"""Accelerated projected-gradient solver for nonneg-constrained blocks.

One block subproblem is a convex quadratic over a matrix block V >= 0, given
as plain data (an :class:`ApgProblem`): the factors of its affine gradient
plus a Lipschitz constant for that gradient, both assembled in one place,
:mod:`deepnmf.models`. :func:`apg_solve` runs Nesterov's accelerated scheme
with the fixed step 1/LC (no line search, no restarts) in the numpy kernel
loop of :mod:`deepnmf.kernels`. The scheme's O(1/k^2) rate needs LC to be
at least the true Lipschitz constant, which is why the models compute it
exactly (:func:`deepnmf.linalg.sym_spectral_norm`). The loop applies the
quadratic operator once per iteration, to the new iterate, and derives the
search-point gradient from the two latest iterate gradients (exact for an
affine gradient); its block-sized arrays are buffers allocated once per
call.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, NumericalError
from . import kernels


@dataclass(frozen=True)
class StopRule:
    """Inner stopping rule: iteration cap plus relative projected-gradient tol."""

    max_iters: int = 500
    grad_tol: float = 1e-4

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidInputError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_tol <= 0:
            raise InvalidInputError(f"grad_tol must be > 0, got {self.grad_tol}")


@dataclass(frozen=True)
class ApgProblem:
    """One nonneg-constrained block subproblem with the affine gradient
    grad(V) = left @ V @ right + colsum * 1 1' V + ridge * V + lin.

    ``left``/``right`` of None stand for identity factors (the product term
    is always present). The ``colsum`` all-ones gram term is applied as a
    column-sum broadcast, never materialized. The implied block objective is
    0.5*<V, grad(V) - lin> + <lin, V> + const, whose gradient is exactly
    ``grad`` because every operator here is self-adjoint. ``lipschitz``
    bounds the gradient's Lipschitz constant and fixes the step 1/LC.
    """

    lin: np.ndarray
    lipschitz: float
    left: Optional[np.ndarray] = None
    right: Optional[np.ndarray] = None
    colsum: float = 0.0
    ridge: float = 0.0
    const: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.lipschitz) or self.lipschitz <= 0:
            raise InvalidInputError(
                f"lipschitz must be positive and finite, got {self.lipschitz}")

    def _apply(self, v):
        return kernels.quad_apply(v, self.left, self.right, self.colsum,
                                  self.ridge)

    def grad(self, v):
        return self._apply(v) + self.lin

    def objective(self, v):
        return float(0.5 * np.sum(v * self._apply(v)) + np.sum(self.lin * v)
                     + self.const)


def projected_grad_norm(v, g):
    """KKT residual: Frobenius norm of the gradient restricted to entries
    that are either negative or sit at a strictly positive variable."""
    return kernels.kkt_norm(v, g)


def _check_initial(initial, problem):
    initial = np.ascontiguousarray(initial, dtype=np.float64)
    if initial.shape != problem.lin.shape:
        raise InvalidInputError(
            f"initial has shape {initial.shape}, problem expects "
            f"{problem.lin.shape}")
    if np.min(initial) < 0:
        raise InvalidInputError("initial point must be nonnegative")
    return initial


def apg_solve(initial, problem, stop=StopRule(), full_output=False):
    """Run the accelerated iteration until the projected-gradient residual
    falls below ``stop.grad_tol`` times its value at ``initial`` or the
    iteration cap is hit.

    The returned block never has a higher objective than ``initial``:
    acceleration is not monotone, so the best iterate seen is kept as a
    fallback. An objective rising past 10x the starting value aborts with
    NumericalError, which almost always means the supplied Lipschitz
    constant is too small.

    With ``full_output=True`` also returns a dict with ``iters``,
    ``converged``, ``rel_residual`` and ``objective`` entries.
    """
    initial = _check_initial(initial, problem)
    v, iters, status, rel, f_val = kernels.apg_quad_solve(
        initial, problem.left, problem.right, problem.lin, problem.colsum,
        problem.ridge, problem.const, problem.lipschitz, stop.grad_tol,
        stop.max_iters)
    if status == kernels.NONFINITE:
        raise NumericalError("gradient produced non-finite entries")
    if status == kernels.DIVERGED:
        raise NumericalError(
            "objective grew past 10x its starting value; the Lipschitz "
            "constant is likely wrong")
    if full_output:
        return v, {"iters": int(iters), "converged": status == kernels.CONVERGED,
                   "rel_residual": float(rel), "objective": float(f_val)}
    return v
