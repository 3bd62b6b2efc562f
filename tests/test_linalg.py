import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepnmf import (InvalidInputError, frobenius_sq, project_nonneg,
                     spectral_norm, sym_spectral_norm)

finite_matrices = arrays(
    np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-1e6, 1e6, allow_nan=False))


class TestProjectNonneg:
    def test_mixed_signs(self):
        out = project_nonneg([[1, -2], [0, 3]])
        np.testing.assert_array_equal(out, [[1, 0], [0, 3]])

    def test_zero_fixed_point(self):
        out = project_nonneg(np.zeros((2, 2)))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_matches_elementwise_scan(self, rng):
        m = rng.standard_normal((5, 5))
        out = project_nonneg(m)
        for i in range(5):
            for j in range(5):
                assert out[i, j] == max(m[i, j], 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            project_nonneg([[1.0, np.nan]])
        with pytest.raises(InvalidInputError):
            project_nonneg([[np.inf, 1.0]])

    @given(finite_matrices)
    @settings(deadline=None)
    def test_idempotent(self, m):
        once = project_nonneg(m)
        np.testing.assert_array_equal(project_nonneg(once), once)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, rel=1e-12)

    def test_matches_svd(self, rng):
        m = rng.standard_normal((5, 5))
        top = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(top, rel=1e-8)

    def test_transpose_invariance(self, rng):
        for _ in range(5):
            m = rng.standard_normal((4, 7))
            a = spectral_norm(m)
            b = spectral_norm(m.T)
            assert a == pytest.approx(b, rel=1e-10)

    def test_scaling(self, rng):
        m = rng.standard_normal((5, 4))
        base = spectral_norm(m)
        for c in (-2.5, 0.25, 7.0):
            assert spectral_norm(c * m) == pytest.approx(
                abs(c) * base, rel=1e-10)

    def test_ones_start_orthogonal_to_top_restarts(self):
        # m.T @ m annihilates the all-ones vector; the top singular value 2
        # must still be found.
        m = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert spectral_norm(m) == pytest.approx(2.0, rel=1e-9)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0


class TestSymSpectralNorm:
    """The value is a Lipschitz constant, so it must never come out below
    the top eigenvalue by more than roundoff."""

    @staticmethod
    def _never_below(a):
        s_max = np.linalg.svd(a, compute_uv=False)[0]
        assert sym_spectral_norm(a.T @ a) >= s_max ** 2 * (1 - 1e-12)

    def test_random_nonneg_grams(self):
        rng = np.random.default_rng(2012)
        for cols in range(1, 41):
            for _ in range(3):
                self._never_below(rng.uniform(size=(2 * cols + 5, cols)))

    def test_small_eigengap(self):
        # The gram's top two eigenvalues are 1 and 0.999, a 0.1% gap, on
        # which an iterative estimate converges slowly.
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        p, _ = np.linalg.qr(rng.standard_normal((50, 30)))
        sing = np.concatenate([[1.0, np.sqrt(0.999)],
                               np.linspace(0.9, 0.1, 28)])
        a = p @ np.diag(sing) @ q.T
        self._never_below(a)
        assert sym_spectral_norm(a.T @ a) == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            sym_spectral_norm(np.ones((2, 3)))
        assert sym_spectral_norm(np.zeros((3, 3))) == 0.0


class TestFrobeniusSq:
    def test_small(self):
        assert frobenius_sq(np.array([[3.0, 4.0]])) == 25.0

    def test_zero(self):
        assert frobenius_sq(np.zeros((3, 2))) == 0.0

    def test_matches_naive_double_loop(self, rng):
        m = rng.standard_normal((4, 3))
        total = 0.0
        for i in range(4):
            for j in range(3):
                total += m[i, j] ** 2
        assert frobenius_sq(m) == pytest.approx(total, rel=1e-14)

    def test_dominates_spectral_norm(self, rng):
        for _ in range(10):
            m = rng.standard_normal((4, 6))
            assert frobenius_sq(m) >= spectral_norm(m) ** 2 - 1e-8
