import numpy as np
import pytest

from deepnmf import (FactorStack, InvalidInputError, StopRule, TrainConfig,
                     VARIANTS, apg_solve, finetune_objective, finetune_problem,
                     fit, make_spec, objective, pretrain_problem,
                     synth_generate)
from deepnmf import models
from deepnmf.models import ModelSpec, chain_objective, unroll

from _oracles import central_diff, one_shot_misfit

ALL_PENALIZED = {
    "dnmf": {},
    "sdnmf_l": {"mu": 0.3},
    "sdnmf_r": {"lam": 0.2},
    "sdnmf_rl1": {"mu": 0.3, "lam": 0.2},
    "sdnmf_rl2": {"mu": 0.3, "lam": 0.2},
}


def random_stack(rng, m, sizes, n, lo=0.05, hi=1.0):
    dims = (m,) + tuple(sizes)
    ws = [rng.uniform(lo, hi, size=(a, b)) for a, b in zip(dims, dims[1:])]
    hs = [rng.uniform(lo, hi, size=(k, n)) for k in sizes]
    return FactorStack(ws, hs)


# The README's variant table: whether every W_l carries mu, and which H_l
# carry lambda.
README_TABLE = {
    "dnmf": (False, "none"),
    "sdnmf_l": (True, "none"),
    "sdnmf_r": (False, "all"),
    "sdnmf_rl1": (True, "last"),
    "sdnmf_rl2": (True, "last"),
}


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_weights_accepted_on_exactly_the_penalized_factors(variant, depth):
    every_w, h_layers = README_TABLE[variant]
    sizes = tuple(range(depth + 1, 1, -1))
    mu = [0.1 if every_w else 0.0] * depth
    lam = [0.1 if h_layers == "all" or (h_layers == "last" and l == depth)
           else 0.0 for l in range(1, depth + 1)]
    spec = ModelSpec(variant, sizes, mu, lam)
    assert spec.mu == tuple(mu) and spec.lam == tuple(lam)
    for weights in (mu, lam):
        for l in range(depth):
            if weights[l]:
                continue
            weights[l] = 0.1
            with pytest.raises(InvalidInputError):
                ModelSpec(variant, sizes, mu, lam)
            weights[l] = 0.0


@pytest.mark.parametrize("variant, kwargs", [
    ("dnmf", {"mu": 0.5}), ("sdnmf_l", {"lam": 0.3}), ("sdnmf_r", {"mu": 0.2})])
def test_scalar_weight_on_unpenalized_role_rejected(variant, kwargs):
    with pytest.raises(InvalidInputError, match="does not penalize"):
        make_spec(variant, (4, 2), **kwargs)


@pytest.mark.parametrize("kwargs", [{"mu": float("nan")}, {"mu": float("inf")},
                                    {"lam": (0.0, float("nan"))}])
def test_non_finite_weight_rejected(kwargs):
    with pytest.raises(InvalidInputError, match="finite"):
        make_spec("sdnmf_rl1", (4, 2), **kwargs)


class TestModelSpec:
    def test_variant_penalty_consistency(self):
        with pytest.raises(InvalidInputError):
            ModelSpec("dnmf", (4,), (0.1,), (0.0,))
        with pytest.raises(InvalidInputError):
            ModelSpec("sdnmf_l", (4,), (0.1,), (0.1,))
        with pytest.raises(InvalidInputError):
            ModelSpec("sdnmf_r", (4,), (0.1,), (0.1,))
        with pytest.raises(InvalidInputError):
            ModelSpec("sdnmf_rl1", (4, 2), (0.1, 0.1), (0.1, 0.1))

    def test_increasing_sizes_warn_but_pass(self):
        with pytest.warns(UserWarning):
            make_spec("dnmf", (2, 4))

    def test_make_spec_defaults(self):
        spec = make_spec("sdnmf_rl1", (6, 3))
        assert spec.mu == (0.1, 0.1)
        assert spec.lam == (0.0, 0.1)
        spec = make_spec("dnmf", (6, 3))
        assert spec.mu == (0.0, 0.0) and spec.lam == (0.0, 0.0)
        spec = make_spec("sdnmf_r", (6, 3), lam=0.7)
        assert spec.lam == (0.7, 0.7) and spec.mu == (0.0, 0.0)


class TestObjective:
    def test_exact_factorization_is_zero(self, rng):
        stack = random_stack(rng, 8, (4,), 10)
        x = stack.w[0] @ stack.h[0]
        spec = make_spec("dnmf", (4,))
        assert objective(spec, x, stack) == pytest.approx(0.0, abs=1e-12)

    def test_w_penalty_worked_example(self):
        # W = [[1,2],[3,4]], mu = 1: column sums 4 and 6, penalty 26.
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        h = np.eye(2)
        stack = FactorStack([w], [h])
        x = w @ h
        spec = make_spec("sdnmf_l", (2,), mu=1.0)
        assert objective(spec, x, stack) == pytest.approx(26.0, rel=1e-14)

    def test_penalty_equals_column_l1_squared(self, rng):
        w = rng.uniform(0.0, 2.0, size=(5, 4))
        xi_w = np.ones((1, 5)) @ w
        via_trace = float(np.trace(xi_w.T @ xi_w))
        via_l1 = sum(np.linalg.norm(w[:, j], 1) ** 2 for j in range(4))
        via_colsums = float(np.sum(w.sum(axis=0) ** 2))
        assert via_trace == pytest.approx(via_l1, rel=1e-14)
        assert via_trace == pytest.approx(via_colsums, rel=1e-14)

    def test_dnmf_equals_sdnmf_l_with_zero_mu(self, rng):
        stack = random_stack(rng, 8, (4, 2), 9)
        x = rng.uniform(0.0, 1.0, size=(8, 9))
        a = objective(make_spec("dnmf", (4, 2)), x, stack)
        b = objective(make_spec("sdnmf_l", (4, 2), mu=0.0), x, stack)
        assert a == b

    def test_independent_expression_oracle(self, rng):
        # From-scratch evaluation, sharing nothing with the library path.
        stack = random_stack(rng, 6, (4, 3), 7)
        x = rng.uniform(0.0, 1.0, size=(6, 7))
        spec = make_spec("sdnmf_rl1", (4, 3), mu=0.4, lam=0.6)
        recon = stack.w[0] @ stack.w[1] @ stack.h[1]
        expected = 0.5 * np.sum((x - recon) ** 2)
        for w in stack.w:
            expected += 0.5 * 0.4 * np.sum(w.sum(axis=0) ** 2)
        expected += 0.5 * 0.6 * np.sum(stack.h[1].sum(axis=0) ** 2)
        assert objective(spec, x, stack) == pytest.approx(expected, rel=1e-12)

    def test_finetune_objective_drops_hidden_h_penalties(self, rng):
        stack = random_stack(rng, 6, (4, 3), 7)
        x = rng.uniform(0.0, 1.0, size=(6, 7))
        spec = make_spec("sdnmf_r", (4, 3), lam=0.5)
        full = objective(spec, x, stack)
        surrogate = finetune_objective(spec, x, stack)
        hidden_pen = 0.5 * 0.5 * np.sum(stack.h[0].sum(axis=0) ** 2)
        assert full == pytest.approx(surrogate + hidden_pen, rel=1e-12)
        # Identical for variants without hidden H penalties.
        spec_l = make_spec("sdnmf_l", (4, 3), mu=0.5)
        assert objective(spec_l, x, stack) == finetune_objective(spec_l, x, stack)

    @pytest.mark.parametrize("activation", ["linear", "root"])
    def test_chain_objective_allocates_one_residual(self, rng, traced_peak,
                                                    activation):
        # The reconstruction is the residual's buffer: at most one X-sized
        # array, plus the narrow hidden chain.
        stack = random_stack(rng, 200, (8, 4), 2000)
        x = rng.uniform(0.0, 1.0, size=(200, 2000))
        spec = make_spec("sdnmf_rl1", (8, 4), mu=0.3, lam=0.2,
                         activation=activation)
        peak = traced_peak(chain_objective, spec, x, stack.w, stack.h[-1])
        assert peak <= 1.1 * x.nbytes

    @pytest.mark.parametrize("sizes", [(10,), (10, 5)])
    def test_chain_objective_holds_rep_sized_panels(self, rng, traced_peak,
                                                    sizes):
        # One k1 x n panel buffer, plus the unrolled H_1 at depth 2.
        stack = random_stack(rng, 400, sizes, 4000)
        x = rng.uniform(0.0, 1.0, size=(400, 4000))
        spec = make_spec("sdnmf_rl1", sizes, mu=0.3, lam=0.2)
        peak = traced_peak(chain_objective, spec, x, stack.w, stack.h[-1])
        assert peak <= 2.2 * stack.h[0].nbytes

    # 23 rows: panels of 5 rows leave a ragged last one, and k1 = 1 makes
    # every panel a single row.
    @pytest.mark.parametrize("sizes", [(5, 3, 2), (1, 1, 1)],
                             ids=["ragged", "k1=1"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("activation", ["linear", "root", "softplus"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_chain_objective_matches_one_shot_misfit(
            self, rng, monkeypatch, variant, activation, depth, sizes):
        sizes = sizes[:depth]
        stack = random_stack(rng, 23, sizes, 17)
        x = rng.uniform(0.0, 1.0, size=(23, 17))
        spec = make_spec(variant, sizes, activation=activation,
                         **ALL_PENALIZED[variant])
        panels = chain_objective(spec, x, stack.w, stack.h[-1])
        monkeypatch.setattr(models, "misfit", one_shot_misfit)
        one_shot = chain_objective(spec, x, stack.w, stack.h[-1])
        assert panels == pytest.approx(one_shot, rel=1e-15, abs=0.0)


class TestPretrainProblems:
    def test_lipschitz_worked_example(self):
        # Identity H, mu=1, 2x2 W block: LC = ||I||_2 + 1*2 = 3.
        spec = make_spec("sdnmf_l", (2,), mu=1.0)
        w = np.array([[0.5, 0.2], [0.1, 0.7]])
        h = np.eye(2)
        problem = pretrain_problem(spec, 1, "w", w @ h, w, h)
        assert problem.lipschitz == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.parametrize("role", ["w", "h"])
    def test_zero_gram_block_stays_put(self, rng, role):
        # A zero factor zeroes both the gram and the linear term, so the
        # block's gradient is 0 and its step 1/1 leaves it where it is.
        spec = make_spec("dnmf", (3,))
        x = rng.uniform(0.1, 1.0, size=(5, 8))
        w = np.zeros((5, 3)) if role == "h" else rng.uniform(0.1, 1.0, (5, 3))
        h = np.zeros((3, 8)) if role == "w" else rng.uniform(0.1, 1.0, (3, 8))
        problem = pretrain_problem(spec, 1, role, x, w, h)
        assert problem.lipschitz == 1.0 and not problem.lin.any()
        block = w if role == "w" else h
        np.testing.assert_array_equal(apg_solve(block, problem, StopRule()), block)

    def test_dnmf_gradient_is_plain_least_squares(self, rng):
        spec = make_spec("dnmf", (3,))
        w = rng.uniform(0.1, 1.0, size=(5, 3))
        h = rng.uniform(0.1, 1.0, size=(3, 6))
        target = rng.uniform(0.1, 1.0, size=(5, 6))
        hp = pretrain_problem(spec, 1, "h", target, w, h)
        np.testing.assert_allclose(hp.grad(h), w.T @ (w @ h - target), atol=1e-12)
        wp = pretrain_problem(spec, 1, "w", target, w, h)
        np.testing.assert_allclose(wp.grad(w), (w @ h - target) @ h.T, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("role", ["w", "h"])
    def test_gradient_matches_finite_differences(self, rng, variant, role):
        spec = make_spec(variant, (3,), **ALL_PENALIZED[variant])
        w = rng.uniform(0.1, 1.0, size=(4, 3))
        h = rng.uniform(0.1, 1.0, size=(3, 4))
        target = rng.uniform(0.1, 1.0, size=(4, 4))
        problem = pretrain_problem(spec, 1, role, target, w, h)
        point = w if role == "w" else h
        fd = central_diff(problem.objective, point)
        rel = np.linalg.norm(problem.grad(point) - fd) / np.linalg.norm(fd)
        assert rel <= 1e-6

    def test_block_objective_is_the_layer_objective(self, rng):
        # The h-problem's objective at any H equals the penalized layer fit.
        spec = make_spec("sdnmf_r", (3,), lam=0.7)
        w = rng.uniform(0.1, 1.0, size=(5, 3))
        h = rng.uniform(0.1, 1.0, size=(3, 6))
        target = rng.uniform(0.1, 1.0, size=(5, 6))
        problem = pretrain_problem(spec, 1, "h", target, w, h)
        expected = (0.5 * np.sum((target - w @ h) ** 2)
                    + 0.5 * 0.7 * np.sum(h.sum(axis=0) ** 2))
        assert problem.objective(h) == pytest.approx(expected, rel=1e-12)


class TestFinetuneProblems:
    def test_first_layer_matches_pretrain_on_reconstruction(self, rng):
        spec = make_spec("sdnmf_l", (4, 2), mu=0.3)
        stack = random_stack(rng, 6, (4, 2), 8)
        x = rng.uniform(0.1, 1.0, size=(6, 8))
        h_rec = stack.w[1] @ stack.h[1]
        fine = finetune_problem(spec, 1, "w", x, stack)
        pre = pretrain_problem(spec, 1, "w", x, stack.w[0], h_rec)
        probe = rng.uniform(0.0, 1.0, size=stack.w[0].shape)
        np.testing.assert_allclose(fine.grad(probe), pre.grad(probe), atol=1e-12)
        assert fine.lipschitz == pytest.approx(pre.lipschitz, rel=1e-9)

    def test_single_layer_dnmf_reduces_to_plain_nmf_blocks(self, rng):
        spec = make_spec("dnmf", (3,))
        stack = random_stack(rng, 5, (3,), 7)
        x = rng.uniform(0.1, 1.0, size=(5, 7))
        hp = finetune_problem(spec, 1, "h", x, stack)
        w, h = stack.w[0], stack.h[0]
        np.testing.assert_allclose(hp.grad(h), w.T @ w @ h - w.T @ x, atol=1e-12)
        wp = finetune_problem(spec, 1, "w", x, stack)
        np.testing.assert_allclose(wp.grad(w), w @ (h @ h.T) - x @ h.T, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_three_layer_gradients_match_finite_differences(self, rng, variant):
        spec = make_spec(variant, (5, 4, 3), **ALL_PENALIZED[variant])
        stack = random_stack(rng, 7, (5, 4, 3), 6)
        x = rng.uniform(0.1, 1.0, size=(7, 6))
        for layer in (1, 2, 3):
            for role in ("w", "h"):
                problem = finetune_problem(spec, layer, role, x, stack)
                point = stack.w[layer - 1] if role == "w" else stack.h[layer - 1]
                fd = central_diff(problem.objective, point)
                rel = np.linalg.norm(problem.grad(point) - fd) / np.linalg.norm(fd)
                assert rel <= 1e-6, (variant, layer, role)

    def test_w_block_gradient_is_full_objective_gradient(self, rng):
        # For W blocks the subproblem gradient must equal the derivative of
        # the full fine-tuning objective in that block.
        spec = make_spec("sdnmf_l", (4, 3), mu=0.25)
        stack = random_stack(rng, 6, (4, 3), 8)
        x = rng.uniform(0.1, 1.0, size=(6, 8))
        for layer in (1, 2):
            problem = finetune_problem(spec, layer, "w", x, stack)

            def full(w_val, _layer=layer):
                probe = stack.copy()
                probe.w[_layer - 1] = w_val
                return finetune_objective(spec, x, probe)

            fd = central_diff(full, stack.w[layer - 1])
            g = problem.grad(stack.w[layer - 1])
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-6

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_lipschitz_bounds_gradient_variation(self, rng, variant):
        spec = make_spec(variant, (4, 3), **ALL_PENALIZED[variant])
        stack = random_stack(rng, 6, (4, 3), 8)
        x = rng.uniform(0.1, 1.0, size=(6, 8))
        problems = [pretrain_problem(spec, 1, "h", x, stack.w[0], stack.h[0]),
                    pretrain_problem(spec, 1, "w", x, stack.w[0], stack.h[0]),
                    finetune_problem(spec, 2, "w", x, stack),
                    finetune_problem(spec, 2, "h", x, stack)]
        for problem in problems:
            for _ in range(20):
                a = rng.uniform(0.0, 2.0, size=problem.lin.shape)
                b = rng.uniform(0.0, 2.0, size=problem.lin.shape)
                lhs = np.linalg.norm(problem.grad(a) - problem.grad(b))
                rhs = problem.lipschitz * np.linalg.norm(a - b)
                assert lhs <= rhs * (1 + 1e-9)

    def test_nonconforming_stack_rejected(self, rng):
        spec = make_spec("dnmf", (4, 2))
        stack = random_stack(rng, 6, (4, 2), 8)
        x = rng.uniform(0.1, 1.0, size=(6, 8))
        stack.w[0] = rng.uniform(0.1, 1.0, size=(6, 5))
        for role in ("w", "h"):
            with pytest.raises(InvalidInputError, match="spec size 4"):
                finetune_problem(spec, 2, role, x, stack)
        with pytest.raises(InvalidInputError, match="spec size 4"):
            finetune_objective(spec, x, stack)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_blocks_read_the_chain(self, rng, depth):
        # Every block is formed from the chain's own products, bit for bit:
        # W_1 ... W_l multiplied left to right, and the representation
        # unrolled from the top and stopped at the layer.
        sizes = (5, 4, 3)[:depth]
        spec = make_spec("sdnmf_rl2", sizes, mu=0.3, lam=0.2)
        stack = random_stack(rng, 7, sizes, 6)
        x = rng.uniform(0.1, 1.0, size=(7, 6))
        w, h = stack.w, stack.h[-1]
        if depth == 1:
            prefixes, reps = [None, w[0]], [h]
        elif depth == 2:
            prefixes, reps = [None, w[0], w[0] @ w[1]], [w[1] @ h, h]
        else:
            prefixes = [None, w[0], w[0] @ w[1], (w[0] @ w[1]) @ w[2]]
            reps = [w[1] @ (w[2] @ h), w[2] @ h, h]
        for layer in range(1, depth + 1):
            pre, fresh = unroll(spec.activation, w, h, stop=layer)
            assert pre[:layer - 1] == fresh[:layer - 1] == [None] * (layer - 1)
            rep = reps[layer - 1]
            np.testing.assert_array_equal(fresh[layer - 1], rep)
            wp = finetune_problem(spec, layer, "w", x, stack)
            prefix = prefixes[layer - 1]
            np.testing.assert_array_equal(wp.right, rep @ rep.T)
            if prefix is None:
                assert wp.left is None
                np.testing.assert_array_equal(wp.lin, -(x @ rep.T))
            else:
                np.testing.assert_array_equal(wp.left, prefix.T @ prefix)
                np.testing.assert_array_equal(wp.lin, -(prefix.T @ x @ rep.T))
            hp = finetune_problem(spec, layer, "h", x, stack)
            basis = prefixes[layer]
            assert hp.right is None
            # sdnmf_rl2's ridge on H_L is part of that block's gram.
            ridge = 0.2 * np.eye(basis.shape[1]) if layer == depth else 0.0
            np.testing.assert_array_equal(hp.left, basis.T @ basis + ridge)
            np.testing.assert_array_equal(hp.lin, -(basis.T @ x))


@pytest.mark.parametrize("variant", ["sdnmf_r", "sdnmf_rl1", "sdnmf_rl2"])
def test_h_block_penalty_is_part_of_its_gram(rng, variant):
    """Every penalized H block, in pretraining, in fine-tuning and in the
    hidden solves after it, carries lambda 1 1' (column L1) or lambda I
    (ridge) in its left gram: no colsum term, and a Lipschitz constant that
    is that gram's top eigenvalue."""
    lam = 0.2
    spec = make_spec(variant, (5, 4, 3), **ALL_PENALIZED[variant])
    stack = random_stack(rng, 7, (5, 4, 3), 6)
    x = rng.uniform(0.1, 1.0, size=(7, 6))
    inputs = [x] + stack.h[:-1]
    seen = 0
    for layer in range(1, 4):
        if not spec.lam[layer - 1]:
            continue
        k = spec.layer_sizes[layer - 1]
        penalty = lam * (np.eye(k) if variant == "sdnmf_rl2"
                         else np.ones((k, k)))
        h = stack.h[layer - 1]
        chain = stack.w[0]
        for w in stack.w[1:layer]:
            chain = chain @ w
        blocks = [
            (pretrain_problem(spec, layer, "h", inputs[layer - 1],
                              stack.w[layer - 1], h),
             stack.w[layer - 1], inputs[layer - 1]),
            (finetune_problem(spec, layer, "h", x, stack), chain, x)]
        for problem, basis, target in blocks:
            gram = basis.T @ basis + penalty
            assert problem.colsum == 0.0
            np.testing.assert_allclose(problem.left, gram, rtol=1e-14)
            assert problem.lipschitz == pytest.approx(
                np.linalg.eigvalsh(gram)[-1], rel=1e-12)
            np.testing.assert_allclose(
                problem.grad(h), basis.T @ (basis @ h - target) + penalty @ h,
                rtol=1e-10, atol=1e-12)
            seen += 1
    assert seen == (6 if variant == "sdnmf_r" else 2)


class TestReconstruction:
    def test_identity_chain_equals_linear_chain(self, rng):
        sizes = (4, 3, 2)
        stack = random_stack(rng, 6, sizes, 5)
        x = rng.uniform(0.1, 1.0, size=(6, 5))
        lin = make_spec("sdnmf_rl2", sizes, mu=0.2, lam=0.3)
        ident = make_spec("sdnmf_rl2", sizes, mu=0.2, lam=0.3,
                          activation="identity")
        for a, b in zip(unroll("linear", stack.w, stack.h[-1]),
                        unroll("identity", stack.w, stack.h[-1])):
            for ma, mb in zip(a, b):
                np.testing.assert_array_equal(ma, mb)
        assert (chain_objective(lin, x, stack.w, stack.h[-1])
                == chain_objective(ident, x, stack.w, stack.h[-1])
                == finetune_objective(lin, x, stack))

    def test_nonlinear_reconstruction_applies_inverse(self, rng):
        spec = make_spec("dnmf", (4, 3), activation="root")
        stack = random_stack(rng, 6, (4, 3), 5)
        inner = (stack.w[1] @ stack.h[1]) ** 2
        np.testing.assert_allclose(unroll(spec.activation, stack.w, stack.h[1])[0][0],
                                   stack.w[0] @ inner, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        spec = make_spec("dnmf", (4, 2))
        stack = random_stack(rng, 6, (4, 2), 8)
        x = rng.uniform(0.1, 1.0, size=(5, 8))
        with pytest.raises(InvalidInputError):
            objective(spec, x, stack)


# Rescalings that keep the chain W_1 ... W_L H_L: every basis factor times c
# with H_L times c^-L, and W_1 over c with H_L times c.
SCALINGS = {
    "bases_down": lambda w, h, c: ([m * c for m in w], h * c ** -len(w)),
    "first_basis_up": lambda w, h, c: ([w[0] / c] + w[1:], h * c),
}


class TestScaleValley:
    """The penalties see how scale is spread along the chain; the misfit
    does not."""

    @staticmethod
    def valley(variant, scaling):
        x = synth_generate("planted_linear", 1, rows=30, cols=120,
                           layer_sizes=(8, 4), classes=4, noise=0.01).x
        spec = make_spec(variant, (8, 4))
        stack, _ = fit(spec, x, TrainConfig(max_sweeps=5))
        misfit = make_spec("dnmf", (8, 4))
        points = [SCALINGS[scaling](stack.w, stack.h[-1], c)
                  for c in (1.0, 0.1, 0.01)]
        return ([chain_objective(misfit, x, *p) for p in points],
                [chain_objective(spec, x, *p) for p in points])

    @pytest.mark.parametrize("variant, scaling", [
        ("sdnmf_l", "bases_down"), ("sdnmf_r", "first_basis_up")])
    def test_objective_falls_to_the_misfit(self, variant, scaling):
        # No minimizer: the objective tends to the misfit, never reached.
        misfits, objs = self.valley(variant, scaling)
        assert misfits == pytest.approx([misfits[0]] * 3, rel=1e-9)
        assert objs[0] > objs[1] > objs[2] > misfits[0]
        assert objs[2] - misfits[0] <= 1e-3 * (objs[0] - misfits[0])

    @pytest.mark.parametrize("scaling", list(SCALINGS))
    @pytest.mark.parametrize("variant", ["sdnmf_rl1", "sdnmf_rl2"])
    def test_objective_rises_when_every_chain_factor_is_penalized(
            self, variant, scaling):
        misfits, objs = self.valley(variant, scaling)
        assert misfits == pytest.approx([misfits[0]] * 3, rel=1e-9)
        assert objs[0] < objs[1] < objs[2]

    @pytest.mark.parametrize("scaling", list(SCALINGS))
    def test_dnmf_is_scale_invariant(self, scaling):
        misfits, objs = self.valley("dnmf", scaling)
        assert objs == misfits == pytest.approx([misfits[0]] * 3, rel=1e-9)
