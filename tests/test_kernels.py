"""Kernel contracts that no other test pins down."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepnmf import kernels

from _oracles import coordinate_sq_dists, kmeans_assign_oracle


def test_kmeans_assign_ties_go_to_lowest_center():
    # Every point is exactly equally near to two or more nearest centers
    # (center 4 repeats center 0); a last-wins rule would pick 4, 4, 4, 3,
    # 4, 2.
    centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                        [1.0, 0.0]])
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [-0.5, -0.5],
                       [0.5, -0.5], [-0.5, 0.5]])
    labels, d2 = kernels.kmeans_assign(points, centers)
    np.testing.assert_array_equal(labels, [0, 0, 0, 1, 0, 1])
    np.testing.assert_array_equal(
        d2, np.min(((points[:, None, :] - centers[None]) ** 2).sum(-1), axis=1))


@pytest.mark.parametrize("n, d", [(1, 1), (37, 5), (300, 10), (64, 130)])
def test_sq_dists_bits_equal_the_squared_difference_sum(n, d):
    # Columns are samples; one center for all of them, or one each.
    rng = np.random.default_rng(n * d)
    data = rng.standard_normal((d, n))
    for centers in (rng.standard_normal(d), rng.standard_normal((d, n))):
        assert np.array_equal(kernels.sq_dists(data, centers),
                              coordinate_sq_dists(data.T, centers.T))


def _assert_assign_matches_oracle(points, centers):
    # Overflow to inf is part of what is compared at the largest scales.
    with np.errstate(over="ignore", invalid="ignore"):
        labels, d2 = kernels.kmeans_assign(points, centers)
        want_labels, want_d2 = kmeans_assign_oracle(points, centers)
    assert labels.dtype == want_labels.dtype == np.int64
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(d2, want_d2)


def _assign_case(kind, rng, n, d, k):
    """Points and centers of one input family; the hard ones put many points
    at exact or near ties, or overflow the screen."""
    if kind == "random":
        return rng.standard_normal((n, d)), rng.standard_normal((k, d))
    if kind == "duplicate_centers":
        points = rng.uniform(size=(n, d))
        centers = points[rng.integers(n, size=k)]
        centers[k // 2:] = centers[:k - k // 2]
        return points, centers
    if kind == "duplicate_points":
        points = np.repeat(rng.uniform(size=(max(n // 4, 1), d)), 4, axis=0)
        return points, points[rng.integers(points.shape[0], size=k)]
    if kind == "zero_points":
        centers = rng.uniform(size=(k, d))
        centers[rng.integers(k)] = 0.0
        return np.zeros((n, d)), centers
    if kind == "integer_grid":
        return (rng.integers(-3, 4, size=(n, d)).astype(float),
                rng.integers(-3, 4, size=(k, d)).astype(float))
    if kind == "offset_clusters":
        return (1e6 + 1e-3 * rng.standard_normal((n, d)),
                1e6 + 1e-3 * rng.standard_normal((k, d)))
    scale = float(kind.removeprefix("scale_"))
    return scale * rng.uniform(size=(n, d)), scale * rng.uniform(size=(k, d))


ASSIGN_KINDS = ("random", "duplicate_centers", "duplicate_points",
                "zero_points", "integer_grid", "offset_clusters",
                "scale_1e-160", "scale_1e-150", "scale_1e150", "scale_1e160")


@pytest.mark.parametrize("kind", ASSIGN_KINDS)
def test_kmeans_assign_equals_oracle_seeded(kind):
    rng = np.random.default_rng(7)
    for n, d, k in [(1, 1, 1), (50, 1, 3), (300, 10, 10), (200, 40, 12),
                    (257, 130, 5), (64, 7, 20)]:
        _assert_assign_matches_oracle(*_assign_case(kind, rng, n, d, k))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ASSIGN_KINDS), st.integers(0, 2**32 - 1),
       st.integers(1, 80), st.integers(1, 20), st.integers(1, 12))
def test_kmeans_assign_equals_oracle_drawn_families(kind, seed, n, d, k):
    _assert_assign_matches_oracle(
        *_assign_case(kind, np.random.default_rng(seed), n, d, k))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kmeans_assign_equals_oracle_drawn_values(data):
    # Values from a small pool make exact and near ties common; centers are
    # often copies of points.
    d = data.draw(st.integers(1, 6))
    values = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 3.0, 1e-3]),
                       st.floats(-1e8, 1e8, allow_subnormal=True))
    points = data.draw(arrays(np.float64, (data.draw(st.integers(1, 30)), d),
                              elements=values))
    centers = data.draw(arrays(np.float64, (data.draw(st.integers(1, 8)), d),
                               elements=values))
    if data.draw(st.booleans()):
        rows = data.draw(st.lists(st.integers(0, points.shape[0] - 1),
                                  min_size=1, max_size=8))
        centers = points[rows]
    _assert_assign_matches_oracle(points, centers)


def test_kmeans_assign_nonfinite_rows_follow_the_loop():
    points = np.array([[0.0, 1.0], [np.nan, 0.0], [np.inf, 0.0], [1e300, 1.0],
                       [2.0, 2.0]])
    centers = np.array([[0.0, 0.0], [2.0, 2.0], [1e-300, 3.0]])
    _assert_assign_matches_oracle(points, centers)
    # The screen is finite and prefers center 1, but both distances overflow
    # to inf, so the loop keeps label 0.
    _assert_assign_matches_oracle(np.array([[1.3e154]]),
                                  np.array([[-2e153], [-1e153]]))
    _assert_assign_matches_oracle(points[[0, 4]],
                                  np.vstack([centers, [np.nan, 0.0]]))
