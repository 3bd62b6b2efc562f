"""Kernel contracts that no other test pins down."""

import numpy as np

from deepnmf import kernels


def test_status_constants_stable():
    assert (kernels.CONVERGED, kernels.MAXITER, kernels.DIVERGED,
            kernels.NONFINITE) == (0, 1, 2, 3)


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
