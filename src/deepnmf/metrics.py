"""Clustering of learned representations and external partition scores.

The three scores compare an obtained partition against a reference one
through the nonzero cells of their confusion matrix, so their memory grows
with the sample count, not with the product of the cluster counts:
normalized mutual information (symmetric, in [0, 1]), an indicator-matrix
error rate (the square root of the Frobenius norm of the co-membership
difference, taken literally with its outer root, computed from the confusion
counts without forming n-by-n matrices), and naive precision (per reference
class, the largest overlap fraction with any obtained cluster).

Partitions of a representation come from :func:`kmeans`, Lloyd's algorithm
whose assignment step (:func:`deepnmf.kernels.kmeans_assign`) screens all
centers with one matrix product and returns the per-center loop's labels
and distances bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from . import kernels

KMEANS_MAX_ITERS = 300


@dataclass(frozen=True)
class Partition:
    """Cluster assignment: one id per sample, ids in [0, n_clusters)."""

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise InvalidInputError("labels must be a nonempty 1-d sequence")
        if labels.min() < 0 or labels.max() >= self.n_clusters:
            raise InvalidInputError(
                f"labels must lie in [0, {self.n_clusters}), got range "
                f"[{labels.min()}, {labels.max()}]")

    def __len__(self):
        return self.labels.size


def from_labels(labels):
    """Partition from raw ids, relabeled to consecutive ints by first occurrence."""
    labels = np.asarray(labels)
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return Partition(rank[inverse], first.size)


def _overlap_cells(c, c_star):
    """The nonzero confusion cells in row-major order, as (reference class,
    obtained cluster, count) arrays; the one definition of label pairing."""
    if len(c) != len(c_star):
        raise InvalidInputError(
            f"partitions cover {len(c_star)} and {len(c)} samples")
    cells, counts = np.unique(c_star.labels * c.n_clusters + c.labels,
                              return_counts=True)
    return cells // c.n_clusters, cells % c.n_clusters, counts


def confusion_matrix(c, c_star):
    """Overlap counts with reference classes as rows, obtained clusters as columns."""
    rows, cols, counts = _overlap_cells(c, c_star)
    matrix = np.zeros((c_star.n_clusters, c.n_clusters), dtype=np.int64)
    matrix[rows, cols] = counts
    return matrix


def nmi(c, c_star):
    """Normalized mutual information in [0, 1], natural log, 0*log(0) = 0.

    When both partitions are single-cluster the normalizer vanishes; the
    score is then 1 when the partitions agree (they necessarily do) and 0
    otherwise.
    """
    rows, cols, counts = _overlap_cells(c, c_star)
    n = len(c)
    ref_sizes = np.bincount(c_star.labels)
    sizes = np.bincount(c.labels)
    numer = -2.0 * float(np.sum(
        counts * np.log(counts * n / (ref_sizes[rows] * sizes[cols]))))
    denom = sum(float(np.sum(m * np.log(m / n)))
                for m in (ref_sizes[ref_sizes > 0], sizes[sizes > 0]))
    if denom == 0.0:
        return 1.0 if np.array_equal(
            from_labels(c.labels).labels, from_labels(c_star.labels).labels) else 0.0
    return numer / denom


def error_rate(c, c_star, literal_root=True):
    """Co-membership disagreement between the partitions.

    The Frobenius norm of the difference of the two co-membership matrices
    (entry (i, j) is 1 when samples i and j share a cluster), with (by
    default) the outer square root on top, as the definition is written.
    Pass ``literal_root=False`` for the plain Frobenius norm.

    The n-by-n matrices are never formed. With n_ij the confusion counts,
    a_j the obtained cluster sizes and b_i the reference class sizes, the
    squared norm is the count of ordered sample pairs on which the partitions
    disagree, sum_j a_j^2 + sum_i b_i^2 - 2 sum_ij n_ij^2, an exact integer,
    so the result equals the matrix computation bit for bit.
    """
    _, _, counts = _overlap_cells(c, c_star)
    disagree = (int(np.sum(np.bincount(c.labels) ** 2))
                + int(np.sum(np.bincount(c_star.labels) ** 2))
                - 2 * int(np.sum(counts ** 2)))
    frob = math.sqrt(float(disagree))
    return math.sqrt(frob) if literal_root else frob


def naive_precision(c, c_star):
    """Mean over reference classes of (largest overlap) / (class size)."""
    rows, _, counts = _overlap_cells(c, c_star)
    sizes = np.bincount(c_star.labels, minlength=c_star.n_clusters)
    if np.any(sizes == 0):
        empty = int(np.argmin(sizes))
        raise InvalidInputError(f"reference class {empty} is empty")
    largest = np.zeros(c_star.n_clusters, dtype=np.int64)
    np.maximum.at(largest, rows, counts)
    return float(np.mean(largest / sizes))


def _kmeanspp_centers(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(points, centers, max_iters):
    k = centers.shape[0]
    labels = None
    for _ in range(max_iters):
        new_labels, d2 = kernels.kmeans_assign(points, centers)
        # Re-seed empty clusters at the points farthest from their centroid.
        occupied = np.bincount(new_labels, minlength=k) > 0
        if not occupied.all():
            order = np.argsort(-d2)
            taken = 0
            for c in range(k):
                if not occupied[c]:
                    centers[c] = points[order[taken]]
                    taken += 1
            continue
        if labels is not None and np.array_equal(new_labels, labels):
            # The centers have not moved since this assignment.
            return labels, float(d2.sum())
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    last_labels, d2 = kernels.kmeans_assign(points, centers)
    # Fewer distinct points than clusters re-seeds on every iteration; the
    # last assignment, with empty clusters, is then the partition.
    return (last_labels if labels is None else labels), float(d2.sum())


def kmeans(data, k, restarts=10, seed=0, max_iters=KMEANS_MAX_ITERS):
    """Lloyd's algorithm on the columns of ``data`` (columns are samples).

    Each restart is seeded with k-means++ from its own deterministic
    substream; the partition with the lowest within-cluster sum of squares
    wins, ties going to the lowest restart index. Every assignment step is
    :func:`deepnmf.kernels.kmeans_assign`: one matrix product screens all
    centers and only points within a rounding bound of a tie take the
    per-center loop, so labels and distances equal the loop's bit for bit.
    A restart that converges reuses the distances of its last assignment.
    With fewer distinct samples than ``k``, some clusters stay empty.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    points = np.ascontiguousarray(data.T)
    n = points.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise InvalidInputError(f"restarts must be >= 1, got {restarts}")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("data contains non-finite entries")

    best_labels, best_wcss = None, math.inf
    for r in range(restarts):
        rng = np.random.default_rng([abs(int(seed)), r])
        centers = _kmeanspp_centers(points, k, rng)
        labels, wcss = _lloyd(points, centers, max_iters)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return Partition(best_labels, k)
