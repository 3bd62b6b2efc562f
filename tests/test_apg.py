import numpy as np
import pytest

from deepnmf import (ApgProblem, InvalidInputError, NumericalError,
                     QuadGradient, StopRule, apg_solve, projected_grad_norm)

from _oracles import plain_pg_quad, quad_objective


def h_block_problem(w, x, lam=0.0):
    """Least-squares H-block: minimize 0.5*||x - w h||^2 (+ column-L1 term)."""
    gram = w.T @ w
    quad = QuadGradient(lin=-(w.T @ x), left=gram, colsum=lam,
                        const=0.5 * float(np.sum(x * x)))
    lc = float(np.linalg.eigvalsh(gram)[-1]) + lam * w.shape[1]
    return ApgProblem.from_quad(quad, lc)


def separable_problem(x):
    """minimize 0.5*||x - h||^2 over h >= 0: grad = h - x, LC = 1."""
    quad = QuadGradient(lin=-x, const=0.5 * float(np.sum(x * x)))
    return ApgProblem.from_quad(quad, 1.0)


class TestApgStep:
    """A single accelerated step: apg_solve with a one-iteration budget."""

    def test_one_step_solves_separable_problem(self):
        x = np.array([[2.0, -1.0], [0.0, 3.0]])
        out, info = apg_solve(np.zeros_like(x), separable_problem(x),
                              StopRule(1, 1e-10), full_output=True)
        np.testing.assert_array_equal(out, np.maximum(x, 0.0))
        assert info["iters"] == 1

    def test_non_finite_gradient_raises(self):
        lin = np.array([[-1.0, np.nan], [0.0, -2.0]])
        problem = ApgProblem.from_quad(QuadGradient(lin=lin), 1.0)
        with pytest.raises(NumericalError):
            apg_solve(np.ones((2, 2)), problem, StopRule(1, 1e-10))


class TestApgSolve:
    def test_separable_projection(self):
        x = np.array([[2.0, -1.0], [0.0, 3.0]])
        out = apg_solve(np.zeros_like(x), separable_problem(x),
                        StopRule(100, 1e-10))
        np.testing.assert_allclose(out, [[2.0, 0.0], [0.0, 3.0]], atol=1e-9)

    def test_matches_slow_pg_oracle(self, rng):
        w = rng.standard_normal((5, 3)) + 2.0
        x = rng.standard_normal((5, 4)) + 2.0
        problem = h_block_problem(w, x)
        h0 = np.abs(rng.standard_normal((3, 4)))
        out = apg_solve(h0, problem, StopRule(5000, 1e-12))

        gram, lin = w.T @ w, -(w.T @ x)
        ref = plain_pg_quad(h0, gram, lin, problem.lipschitz, 10**6)
        f_out = quad_objective(out, gram, lin, problem.quad.const)
        f_ref = quad_objective(ref, gram, lin, problem.quad.const)
        assert f_out == pytest.approx(f_ref, rel=1e-6)

    def test_penalized_block_reaches_kkt(self, rng):
        w = np.abs(rng.standard_normal((4, 3)))
        x = np.abs(rng.standard_normal((4, 5)))
        problem = h_block_problem(w, x, lam=1.0)
        h0 = np.abs(rng.standard_normal((3, 5)))
        out, info = apg_solve(h0, problem, StopRule(5000, 1e-6), full_output=True)
        assert info["converged"]
        assert info["rel_residual"] <= 1e-6
        # KKT at the tolerance scale: interior entries have near-zero
        # gradient, boundary entries need nonnegative gradient.
        bound = 1e-6 * projected_grad_norm(h0, problem.grad(h0))
        g = problem.grad(out)
        assert np.all(np.abs(g[out > 0]) <= bound + 1e-12)
        assert np.all(g[out == 0] >= -bound - 1e-12)

    def test_objective_never_increases(self, rng):
        for trial in range(5):
            w = rng.standard_normal((6, 4))
            x = rng.standard_normal((6, 5))
            problem = h_block_problem(w, x)
            h0 = np.abs(rng.standard_normal((4, 5)))
            for iters in (1, 3, 10, 200):
                out = apg_solve(h0, problem, StopRule(iters, 1e-14))
                assert problem.objective(out) <= problem.objective(h0) * (1 + 1e-12) + 1e-12

    def test_wrong_lipschitz_diverges(self, rng):
        w = rng.standard_normal((6, 4))
        x = rng.standard_normal((6, 5))
        problem = h_block_problem(w, x)
        bad = ApgProblem.from_quad(problem.quad, problem.lipschitz / 50.0)
        h0 = np.abs(rng.standard_normal((4, 5)))
        with pytest.raises(NumericalError):
            apg_solve(h0, bad, StopRule(500, 1e-10))

    def test_already_stationary_returns_input(self):
        x = np.array([[1.0, 2.0], [0.0, 1.0]])
        out, info = apg_solve(x.copy(), separable_problem(x), full_output=True)
        assert info["iters"] == 0
        np.testing.assert_array_equal(out, x)

    def test_rejects_bad_initial(self):
        problem = separable_problem(np.ones((2, 2)))
        with pytest.raises(InvalidInputError):
            apg_solve(np.zeros((3, 3)), problem)
        with pytest.raises(InvalidInputError):
            apg_solve(np.array([[-1.0, 0.0], [0.0, 0.0]]), problem)


class TestValidation:
    def test_stop_rule(self):
        with pytest.raises(InvalidInputError):
            StopRule(max_iters=0)
        with pytest.raises(InvalidInputError):
            StopRule(grad_tol=0.0)

    def test_problem_lipschitz(self):
        quad = QuadGradient(lin=np.zeros((2, 2)))
        for bad in (0.0, np.inf):
            with pytest.raises(InvalidInputError):
                ApgProblem.from_quad(quad, bad)


def test_projected_grad_norm_masks_boundary():
    v = np.array([[0.0, 1.0], [0.0, 2.0]])
    g = np.array([[5.0, 1.0], [-2.0, -3.0]])
    # Entry (0,0): at zero with positive gradient -> masked out.
    expected = np.sqrt(1.0 + 4.0 + 9.0)
    assert projected_grad_norm(v, g) == pytest.approx(expected, rel=1e-12)
