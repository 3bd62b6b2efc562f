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
on its columns in their own (d, n) layout. The assignment step
(:func:`deepnmf.kernels.assign_labels`) screens all centers with one matrix
product and returns the per-center loop's labels bit for bit; distances are
formed only for the last assignment and for re-seeds, and each center is a
sum in sample order divided by the cluster size.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from . import kernels

KMEANS_MAX_ITERS = 300


@dataclass(frozen=True)
class Partition:
    """One cluster index per sample, in [0, n_clusters); ``ids[i]`` is i's class id."""

    labels: np.ndarray
    n_clusters: int
    ids: Optional[np.ndarray] = None

    def __post_init__(self):
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        ids = np.arange(self.n_clusters) if self.ids is None else np.asarray(self.ids)
        object.__setattr__(self, "ids", ids)
        if ids.shape != (self.n_clusters,):
            raise InvalidInputError(f"need {self.n_clusters} class ids, got {ids.size}")
        if labels.ndim != 1 or labels.size == 0:
            raise InvalidInputError("labels must be a nonempty 1-d sequence")
        if labels.min() < 0 or labels.max() >= self.n_clusters:
            raise InvalidInputError(
                f"labels must lie in [0, {self.n_clusters}), got range "
                f"[{labels.min()}, {labels.max()}]")

    def __len__(self):
        return self.labels.size


def from_labels(labels):
    """Partition from raw ids, relabeled by first occurrence, kept as ``ids``."""
    labels = np.asarray(labels)
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return Partition(rank[inverse], first.size, labels[np.sort(first)])


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

    The normalizer vanishes only when both partitions are single-cluster;
    such partitions agree, and the score is 1.
    """
    rows, cols, counts = _overlap_cells(c, c_star)
    n = len(c)
    ref_sizes = np.bincount(c_star.labels)
    sizes = np.bincount(c.labels)
    numer = -2.0 * float(np.sum(
        counts * np.log(counts * n / (ref_sizes[rows] * sizes[cols]))))
    denom = sum(float(np.sum(m * np.log(m / n)))
                for m in (ref_sizes[ref_sizes > 0], sizes[sizes > 0]))
    return numer / denom if denom else 1.0


def error_rate(c, c_star):
    """Co-membership disagreement between the partitions.

    The Frobenius norm of the difference of the two co-membership matrices
    (entry (i, j) is 1 when samples i and j share a cluster), with the
    outer square root on top, as the definition is written.

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
    return math.sqrt(math.sqrt(float(disagree)))


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


def _draw_index(rng, p):
    """``rng.choice(p.size, p=p)``, from its normalized cumulative sum."""
    cdf = np.cumsum(p)
    return int(np.searchsorted(cdf / cdf[-1], rng.random(), side="right"))


def _kmeanspp_centers(data, k, rng):
    d, n = data.shape
    centers = np.empty((k, d))
    centers[0] = data[:, rng.integers(n)]
    d2 = kernels.sq_dists(data, centers[0])
    for c in range(1, k):
        total = d2.sum()
        idx = _draw_index(rng, d2 / total) if total > 0 else rng.integers(n)
        centers[c] = data[:, idx]
        d2 = np.minimum(d2, kernels.sq_dists(data, centers[c]))
    return centers


def _cluster_means(data, labels, sizes, centers):
    """Set each row of ``centers`` to the mean of the columns of ``data``
    labeled with its index; ``sizes`` counts each label, and every cluster
    must be nonempty.

    Each coordinate is one ``np.bincount`` of a contiguous row of ``data``,
    which adds its weights in sample order, divided by the cluster size."""
    k, d = centers.shape
    for j in range(d):
        centers[:, j] = np.bincount(labels, weights=data[j], minlength=k) / sizes


def _lloyd(data, sq_norms, centers, max_iters):
    """Lloyd's iterations on the columns of ``data`` (d, n), whose squared
    norms are ``sq_norms``, from ``centers`` (k, d), moved in place, until an
    assignment repeats the previous one or ``max_iters`` (>= 1) are made.
    An assignment that leaves clusters empty re-seeds them at the points
    farthest from their centers; otherwise every center moves to its
    cluster's mean (:func:`_cluster_means`). Only those re-seeds and the
    last assignment form distances. Returns the last assignment's labels
    and wcss, to the centers it used."""
    k = centers.shape[0]
    labels = None
    for it in range(1, max_iters + 1):
        new_labels = kernels.assign_labels(data, centers, sq_norms)
        if it == max_iters or (labels is not None
                               and np.array_equal(new_labels, labels)):
            break
        sizes = np.bincount(new_labels, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            # Re-seed empty clusters at the points farthest from their
            # centroid (every time, with fewer distinct points than k).
            d2 = kernels.own_sq_dists(data, centers, new_labels)
            centers[empty] = data[:, np.argsort(-d2)[:empty.size]].T
        else:
            labels = new_labels
            _cluster_means(data, labels, sizes, centers)
    d2 = kernels.own_sq_dists(data, centers, new_labels)
    return new_labels, float(d2.sum())


def kmeans(data, k, restarts=10, seed=0):
    """Lloyd's algorithm on the columns of ``data`` (columns are samples).

    Each restart is seeded with k-means++ from its own deterministic
    substream; the partition with the lowest within-cluster sum of squares
    wins, ties going to the lowest restart index. Every assignment step is
    :func:`deepnmf.kernels.assign_labels`: one matrix product screens all
    centers and only points within a rounding bound of a tie take the
    per-center loop, so labels equal the loop's bit for bit.
    A restart ends with an assignment that repeats the previous one, or
    at ``KMEANS_MAX_ITERS`` assignments, and its wcss is that assignment's.
    With fewer distinct samples than ``k``, some clusters stay empty.

    Data whose largest squared sample norm exceeds max/(8n) is rejected:
    below that bound no squared distance, nor the sum of n of them, can
    overflow, since every center is a sample or a mean of samples.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    n = data.shape[1]
    k = int(k)
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise InvalidInputError(f"restarts must be >= 1, got {restarts}")
    if not np.all(np.isfinite(data)):
        raise InvalidInputError("data contains non-finite entries")
    with np.errstate(over="ignore"):
        sq_norms = np.einsum("ij,ij->j", data, data)
    limit = np.finfo(np.float64).max / (8 * n)
    i = int(np.argmax(sq_norms))
    if sq_norms[i] > limit:
        raise InvalidInputError(
            f"sample {i} has squared norm {sq_norms[i]:.3g}, above "
            f"{limit:.3g}, where k-means distances could overflow")

    best_labels, best_wcss = None, math.inf
    for r in range(restarts):
        rng = np.random.default_rng([abs(int(seed)), r])
        centers = _kmeanspp_centers(data, k, rng)
        labels, wcss = _lloyd(data, sq_norms, centers, KMEANS_MAX_ITERS)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return Partition(best_labels, k)
