from dataclasses import replace

import numpy as np
import pytest

from deepnmf import (ApgProblem, InvalidInputError, NumericalError, StopRule,
                     apg_solve, kernels)

from _oracles import plain_pg_quad, quad_objective, two_application_apg


def h_block_problem(w, x, lam=0.0):
    """Least-squares H-block: minimize 0.5*||x - w h||^2 (+ column-L1 term)."""
    gram = w.T @ w
    lc = float(np.linalg.eigvalsh(gram)[-1]) + lam * w.shape[1]
    return ApgProblem(-(w.T @ x), lc, left=gram, colsum=lam,
                      const=0.5 * float(np.sum(x * x)))


def separable_problem(x):
    """minimize 0.5*||x - h||^2 over h >= 0: grad = h - x, LC = 1."""
    return ApgProblem(-x, 1.0, const=0.5 * float(np.sum(x * x)))


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
        problem = ApgProblem(lin, 1.0)
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
        f_out = quad_objective(out, gram, lin, problem.const)
        f_ref = quad_objective(ref, gram, lin, problem.const)
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
        bound = 1e-6 * kernels.kkt_norm(h0, problem.grad(h0))
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

    def test_objective_non_increasing_in_budget(self, rng):
        # Columns sharing a common part make the gram ill-conditioned
        # (condition number about 300); there un-restarted momentum
        # overshoots, and the objective climbs back as the budget grows.
        w = rng.uniform(size=(30, 1)) + 0.5 * rng.uniform(size=(30, 6))
        x = rng.uniform(size=(30, 40))
        problem = h_block_problem(w, x)
        h0 = rng.uniform(size=(6, 40))
        slack = kernels.roundoff_slack(problem.const)
        f_prev = problem.objective(h0)
        for budget in range(1, 61):
            f = problem.objective(apg_solve(h0, problem,
                                            StopRule(budget, 1e-14)))
            assert f <= f_prev + slack, budget
            f_prev = f

    def test_converged_residual_is_that_of_the_returned_block(self, rng):
        w = rng.uniform(size=(12, 5))
        x = rng.uniform(size=(12, 30))
        problem = h_block_problem(w, x, lam=0.1)
        h0 = rng.uniform(size=(5, 30))
        out, info = apg_solve(h0, problem, StopRule(5000, 1e-6),
                              full_output=True)
        assert info["converged"]
        r0 = kernels.kkt_norm(h0, problem.grad(h0))
        assert info["rel_residual"] == pytest.approx(
            kernels.kkt_norm(out, problem.grad(out)) / r0, rel=1e-12)

    def test_wrong_lipschitz_diverges(self, rng):
        w = rng.standard_normal((6, 4))
        x = rng.standard_normal((6, 5))
        problem = h_block_problem(w, x)
        bad = replace(problem, lipschitz=problem.lipschitz / 50.0)
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


def _operator_setup(rng, sides, colsum):
    """A least-squares block 0.5*||X - A V B||^2 (+ colsum penalty) in kernel
    form: (v0, left, right, lin, colsum, ridge, const, lipschitz), with the
    reserved ridge slot at 0.0; absent sides are identities."""
    rows, cols = 6, 9
    a = rng.uniform(size=(8, rows)) if "left" in sides else np.eye(rows)
    b = rng.uniform(size=(cols, 7)) if "right" in sides else np.eye(cols)
    x = rng.uniform(size=(a.shape[0], b.shape[1])) - 0.2
    left = a.T @ a if "left" in sides else None
    right = b @ b.T if "right" in sides else None
    lc = (float(np.linalg.eigvalsh(a.T @ a)[-1])
          * float(np.linalg.eigvalsh(b @ b.T)[-1]) + colsum * rows)
    v0 = rng.uniform(size=(rows, cols))
    return (v0, left, right, -(a.T @ x @ b.T), colsum, 0.0,
            0.5 * float(np.sum(x * x)), lc)


class TestKernelAgainstTwoApplicationLoop:
    """The kernel applies the operator once per iteration and derives the
    search-point gradient; the direct loop evaluates it twice. Solving to a
    tolerance well above roundoff, both must walk the same iterates, accept
    and reject the same momentum steps and stop on the same iteration.
    Nearer roundoff the restart test compares objectives that differ only
    by rounding, and the two may part ways."""

    @pytest.mark.parametrize("sides, colsum", [
        (("left",), 0.3),
        (("right",), 0.3),
        (("left", "right"), 0.2),
        ((), 0.0),
    ], ids=["left+colsum", "right+colsum", "two_sided+colsum", "identity"])
    def test_matches_reference_over_300_iterations(self, rng, sides, colsum):
        args = _operator_setup(rng, sides, colsum)
        before = [None if m is None else m.copy() for m in args[:4]]
        v, iters, converged, rel, f_val = kernels.apg_quad_solve(
            *args, 1e-6, 300)
        v_ref, iters_ref, converged_ref, _, f_ref = two_application_apg(
            *args, 1e-6, 300)

        assert iters == iters_ref
        assert converged and converged_ref
        assert np.max(np.abs(v - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))
        assert f_val == pytest.approx(f_ref, rel=1e-12, abs=0.0)
        for name, m, m0 in zip(("v0", "left", "right", "lin"), args[:4],
                               before):
            if m is not None:
                np.testing.assert_array_equal(m, m0, err_msg=name)
                assert not np.shares_memory(v, m), name

    def test_matches_reference_when_step_too_long(self, rng):
        # A fiftieth of the Lipschitz constant overshoots past 10x the
        # starting objective on the second (plain) step; both loops must
        # raise there. At half of it, restarts keep the accepted iterates
        # below the start until the cap.
        args = list(_operator_setup(rng, ("left",), 0.3))
        args[-1] /= 50.0
        with pytest.raises(FloatingPointError,
                           match=r"diverged at iteration 2$"):
            two_application_apg(*args, 0.0, 300)
        with pytest.raises(NumericalError, match=r"at iteration 2;"):
            kernels.apg_quad_solve(*args, 0.0, 300)

    def test_restart_needs_fewer_iterations(self, rng):
        args = _operator_setup(rng, ("left",), 0.3)
        _, iters, converged, _, _ = kernels.apg_quad_solve(*args, 1e-6, 1000)
        _, iters_ref, converged_ref, _, _ = two_application_apg(
            *args, 1e-6, 1000, restart=False)
        assert converged and converged_ref
        # Un-restarted, the stop cadence alone cannot halve the count.
        assert 2 * iters < iters_ref


@pytest.mark.parametrize("sides", [("left",), ("left", "right")])
def test_residual_at_the_cap_is_that_of_the_returned_block(rng, sides):
    # Caps that end the loop between two every-8th KKT tests make the
    # kernel evaluate the returned block's gradient once more.
    args = _operator_setup(rng, sides, 0.3)
    for cap in range(1, 18):
        v, iters, converged, rel, _ = kernels.apg_quad_solve(*args, 0.0, cap)
        v_ref, _, _, rel_ref, _ = two_application_apg(*args, 0.0, cap)
        assert iters == cap and not converged
        assert np.max(np.abs(v - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))
        assert rel == pytest.approx(rel_ref, rel=1e-12), cap


def test_kernel_holds_four_block_buffers(rng, traced_peak):
    # x, the candidate, the step target, one buffer that carries the
    # previous step target and then the candidate's gradient, and one
    # boolean mask; the returned block is one of them.
    w = rng.uniform(size=(60, 40))
    x = rng.uniform(size=(60, 4000))
    gram = w.T @ w
    v0 = rng.uniform(size=(40, 4000))
    lc = float(np.linalg.eigvalsh(gram)[-1])
    peak = traced_peak(kernels.apg_quad_solve, v0, gram, None, -(w.T @ x),
                       0.0, 0.0, 0.5 * float(np.sum(x * x)), lc, 0.0, 37)
    assert peak <= 4.5 * v0.nbytes


@pytest.mark.parametrize("ridge", [0.2, -0.2, np.nan])
def test_kernel_rejects_a_ridge(rng, ridge):
    # A representation block carries its penalty in its gram; the kernel
    # keeps the ridge slot only for its positional signature.
    args = list(_operator_setup(rng, ("left",), 0.0))
    args[5] = ridge
    with pytest.raises(InvalidInputError, match="ridge must be 0"):
        kernels.apg_quad_solve(*args, 1e-6, 300)


class TestValidation:
    def test_stop_rule(self):
        with pytest.raises(InvalidInputError):
            StopRule(max_iters=0)
        with pytest.raises(InvalidInputError):
            StopRule(grad_tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_stop_rule_rejects_non_finite_tol(self, tol):
        with pytest.raises(InvalidInputError, match="finite"):
            StopRule(grad_tol=tol)

    def test_problem_lipschitz(self):
        for bad in (0.0, np.inf):
            with pytest.raises(InvalidInputError):
                ApgProblem(np.zeros((2, 2)), bad)


def test_projected_grad_norm_masks_boundary():
    v = np.array([[0.0, 1.0], [0.0, 2.0]])
    g = np.array([[5.0, 1.0], [-2.0, -3.0]])
    # Entry (0,0): at zero with positive gradient -> masked out.
    expected = np.sqrt(1.0 + 4.0 + 9.0)
    assert kernels.kkt_norm(v, g) == pytest.approx(expected, rel=1e-12)


def test_projected_grad_norm_is_that_of_the_mask_product(rng):
    # The one-mask form multiplies g by (v > 0) | (g < 0) as 0/1, like the
    # product of two masks, so the norm has the same bits.
    v = rng.uniform(size=(30, 50))
    v[rng.uniform(size=v.shape) < 0.4] = 0.0
    g = rng.normal(size=v.shape)
    g[::7] = 0.0
    ref = g * ((v > 0) | (g < 0))
    assert kernels.kkt_norm(v, g) == np.sqrt(np.vdot(ref, ref))
