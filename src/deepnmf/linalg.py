"""Dense-matrix primitives shared by every other module.

Matrices are plain C-contiguous float64 numpy arrays, row-major, with columns
holding samples throughout the package. Nonnegativity is enforced per use via
:func:`check_nonneg`, not by a wrapper type. Spectral norms, which fix the
solvers' Lipschitz constants, come from numpy's symmetric eigensolver and
are exact up to its roundoff.
"""

import numpy as np

from .errors import InvalidInputError


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-d float64 C-contiguous array or raise."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise InvalidInputError(f"{name} must be nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def check_nonneg(m, name="matrix"):
    """Raise unless every entry of ``m`` is >= 0."""
    if np.min(m) < 0:
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        raise InvalidInputError(
            f"{name} must be nonnegative; entry [{i},{j}] = {m[i, j]}")
    return m


def frobenius_sq(m):
    """Sum of squared entries."""
    r = np.asarray(m, dtype=np.float64).ravel()
    return float(np.dot(r, r))


def sym_spectral_norm(gram):
    """Top eigenvalue of a symmetric PSD matrix, from a symmetric eigensolver.

    This is the Lipschitz constant of a block gradient whose operator is
    ``gram``. The value is exact up to the eigensolver's roundoff, so a
    fixed step of its inverse is safe; an iterative estimate that stops
    early comes out below the true value.
    """
    gram = as_matrix(gram, "gram")
    n = gram.shape[0]
    if gram.shape[1] != n:
        raise InvalidInputError(f"gram must be square, got shape {gram.shape}")
    return float(max(np.linalg.eigvalsh(gram)[-1], 0.0))
