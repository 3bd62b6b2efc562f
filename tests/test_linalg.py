import numpy as np
import pytest

from deepnmf import InvalidInputError, frobenius_sq, sym_spectral_norm


class TestSpectralNorm:
    """The spectral norm of ``m`` squared, as the top eigenvalue of m.T @ m."""

    def test_matches_svd(self, rng):
        m = rng.standard_normal((5, 5))
        top = np.linalg.svd(m, compute_uv=False)[0]
        assert sym_spectral_norm(m.T @ m) == pytest.approx(top ** 2, rel=1e-8)

    def test_zero_matrix(self):
        m = np.zeros((3, 2))
        assert sym_spectral_norm(m.T @ m) == 0.0


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
            assert frobenius_sq(m) >= sym_spectral_norm(m.T @ m) - 1e-8
