import dataclasses

import numpy as np
import pytest

from deepnmf import (FactorStack, InvalidInputError, StopRule, TrainConfig,
                     basis_gradient, finetune, finetune_objective,
                     finetune_problem, fit, get_activation, make_spec,
                     nonlinear_finetune, nonlinear_objective, pretrain,
                     pretrain_problem, representation_gradient,
                     synth_generate)
from deepnmf import nonlinear
from deepnmf.linalg import frobenius_sq
from deepnmf.models import unroll

from _oracles import central_diff, two_loop_nonlinear_finetune

FAST = TrainConfig(inner_stop=StopRule(200, 1e-5), max_sweeps=40, rel_obj_tol=1e-8)


def random_stack(rng, m, sizes, n, lo=0.1, hi=1.0):
    dims = (m,) + tuple(sizes)
    ws = [rng.uniform(lo, hi, size=(a, b)) for a, b in zip(dims, dims[1:])]
    hs = [rng.uniform(lo, hi, size=(k, n)) for k in sizes]
    return FactorStack(ws, hs)


def chain_point(rng, tag, sizes, top, lo):
    """(spec, x, stack) of an sdnmf_rl1 model whose every inverted chain
    level W_l @ fresh_l (l >= 2) has largest entry ``top``: factors are
    drawn from [lo, 1] and each W_l is rescaled from the top down."""
    stack = random_stack(rng, 6, sizes, 7, lo=lo)
    act = get_activation(tag)
    fresh = stack.h[-1]
    for i in range(len(sizes) - 1, 0, -1):
        stack.w[i] *= top / (stack.w[i] @ fresh).max()
        fresh = act.inverse(stack.w[i] @ fresh)
    spec = make_spec("sdnmf_rl1", sizes, mu=0.2, lam=0.3, activation=tag)
    return spec, rng.uniform(0.1, 1.0, size=(6, 7)), stack


def assert_gradients_match_finite_differences(spec, x, stack):
    """representation_gradient and basis_gradient at every layer 2..L
    against central differences of the objective."""
    def check(g, f, v):
        fd = central_diff(f, v)
        assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd)

    check(representation_gradient(spec, x, stack),
          lambda v: nonlinear_objective(spec, x, stack.w, v), stack.h[-1])
    w = stack.w
    for l in range(2, spec.depth + 1):
        check(basis_gradient(spec, x, stack, l),
              lambda v: nonlinear_objective(spec, x, w[:l - 1] + [v] + w[l:],
                                            stack.h[-1]), w[l - 1])


class TestActivations:
    def test_root_values(self):
        out = get_activation("root").g(np.array([[4.0, 9.0]]))
        np.testing.assert_allclose(out, [[2.0, 3.0]])

    def test_root_zero_fixed_point(self):
        out = get_activation("root").g(np.zeros((2, 3)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    @pytest.mark.parametrize("tag,xs", [
        ("root", np.linspace(0.0, 50.0, 11)),
        ("softplus", np.linspace(0.0, 20.0, 11)),
        ("tanh", np.linspace(0.0, 8.0, 11)),
        ("sigmoid", np.linspace(0.0, 15.0, 11)),
        ("identity", np.linspace(-3.0, 3.0, 11)),
    ])
    def test_inverse_round_trip(self, tag, xs):
        act = get_activation(tag)
        ys = act.g(xs)
        back = act.inverse(ys)
        np.testing.assert_allclose(back, xs, atol=1e-9, rtol=1e-9)

    def test_softplus_inverse_round_trip_matrix(self, rng):
        act = get_activation("softplus")
        h = rng.uniform(0.2, 3.0, size=(3, 3))
        np.testing.assert_allclose(act.g(act.inverse(h)), h, atol=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_softplus_is_exact_above_the_exp_overflow(self):
        # Above log(float64 max) ~ 709.78, exp overflows; there softplus
        # and its inverse are the identity in float64.
        act = get_activation("softplus")
        assert act.g(800.0) == 800.0 and act.inverse(800.0) == 800.0
        ys = np.array([[709.0, 709.78, 710.0, 1e300]])
        np.testing.assert_array_equal(act.g(ys)[0, 2:], ys[0, 2:])
        np.testing.assert_array_equal(act.inverse(ys)[0, 2:], ys[0, 2:])
        assert np.all(np.isfinite(act.g(ys))) and np.all(np.isfinite(act.inverse(ys)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sizes", [(6, 3), (6, 4, 3)])
    def test_softplus_fits_large_data(self, sizes):
        # At this scale the pretrained H_1 exceeds 709.78, where softplus
        # used to overflow to inf ahead of layer 2's NNSVD.
        x = 1e6 * np.random.default_rng(0).uniform(0, 1, (12, 30))
        spec = make_spec("sdnmf_rl2", sizes, activation="softplus")
        stack, report = fit(spec, x, TrainConfig(StopRule(50), max_sweeps=8))
        assert report.sweeps_used >= 1
        for m in stack.w + stack.h:
            assert np.all(np.isfinite(m))
        assert np.isfinite(report.final_objective)

    def test_forward_preserves_nonnegativity(self, rng):
        h = rng.uniform(0.0, 5.0, size=(4, 4))
        for tag in ("root", "tanh", "sigmoid", "softplus", "identity"):
            assert get_activation(tag).g(h).min() >= 0.0

    def test_unknown_tag(self):
        with pytest.raises(InvalidInputError):
            get_activation("swish")


class TestNonlinearPretrain:
    def test_planted_root_data_fits(self):
        bundle = synth_generate("planted_nonlinear", seed=5, rows=20, cols=60,
                                layer_sizes=(8, 4), classes=4, noise=0.0,
                                activation="root")
        spec = make_spec("dnmf", (8, 4), activation="root")
        cfg = TrainConfig(inner_stop=StopRule(300, 1e-5), max_sweeps=80,
                          rel_obj_tol=1e-9)
        stack, _ = pretrain(spec, bundle.x, cfg)
        data_fit = nonlinear_objective(spec, bundle.x, stack.w, stack.h[-1])
        rel_err = np.sqrt(2.0 * data_fit) / np.linalg.norm(bundle.x)
        assert rel_err <= 1e-2

    def test_shapes_match_linear_pretrain(self, rng):
        x = rng.uniform(0.1, 1.0, size=(8, 12))
        lin, _ = pretrain(make_spec("dnmf", (4, 2)), x, FAST)
        non, _ = pretrain(make_spec("dnmf", (4, 2), activation="root"), x, FAST)
        for a, b in zip(lin.w + lin.h, non.w + non.h):
            assert a.shape == b.shape

    def test_second_layer_fits_activated_first_representation(self, rng):
        # The activation comes from the spec: layer 2 factorizes g(H_1),
        # while the stack keeps the solved H_1.
        x = rng.uniform(0.1, 1.0, size=(8, 12))
        spec = make_spec("dnmf", (4, 2), activation="root")
        stack, traces = pretrain(spec, x, FAST)
        target = get_activation("root").g(stack.h[0])
        fit2 = 0.5 * float(np.sum((target - stack.w[1] @ stack.h[1]) ** 2))
        assert traces[1][-1] == pytest.approx(fit2, rel=1e-12)
        linear, _ = pretrain(make_spec("dnmf", (4, 2)), x, FAST)
        np.testing.assert_array_equal(linear.h[0], stack.h[0])
        assert not np.array_equal(linear.w[1], stack.w[1])


class TestGradients:
    def test_identity_activation_equals_linear_gradients(self, rng):
        sizes = (4, 3)
        stack = random_stack(rng, 6, sizes, 8)
        # Make the stored hidden representation consistent with the chain.
        stack.h[0] = stack.w[1] @ stack.h[1]
        x = rng.uniform(0.1, 1.0, size=(6, 8))
        nl = make_spec("sdnmf_rl2", sizes, mu=0.2, lam=0.3,
                       activation="identity")
        lin = make_spec("sdnmf_rl2", sizes, mu=0.2, lam=0.3)

        g_h = representation_gradient(nl, x, stack)
        lin_h = finetune_problem(lin, 2, "h", x, stack).grad(stack.h[-1])
        assert np.abs(g_h - lin_h).max() <= 1e-12 * max(1.0, np.abs(lin_h).max())

        g_w = basis_gradient(nl, x, stack, 2)
        lin_w = finetune_problem(lin, 2, "w", x, stack).grad(stack.w[1])
        assert np.abs(g_w - lin_w).max() <= 1e-12 * max(1.0, np.abs(lin_w).max())

    @pytest.mark.parametrize("tag", ["root", "softplus", "identity", "tanh",
                                     "sigmoid"])
    def test_matches_finite_differences(self, rng, tag):
        # Every inverted chain level stays inside the clamp interval, and for
        # sigmoid and softplus above the point where the inverse turns
        # negative, so the chain below stays inside too.
        top = {"tanh": 0.95, "sigmoid": 0.95, "softplus": 3.0}.get(tag, 1.0)
        act = get_activation(tag)
        for sizes in ((4, 3), (5, 4, 3)):
            spec, x, stack = chain_point(rng, tag, sizes, top, lo=0.9)
            pre = unroll(tag, stack.w, stack.h[-1])[0][1:]
            assert all(np.all((p > act.inv_lo + 1e-3) & (p < act.inv_hi - 1e-3))
                       for p in pre)
            assert_gradients_match_finite_differences(spec, x, stack)

    @pytest.mark.parametrize("tag", ["tanh", "sigmoid"])
    def test_matches_finite_differences_where_the_clamp_engages(self, rng, tag):
        # Chain entries up to 1.7 leave [inv_lo, inv_hi]; there the clamped
        # inverse is flat and its derivative is 0, not the boundary slope.
        act = get_activation(tag)
        for sizes in ((4, 3), (5, 4, 3)):
            spec, x, stack = chain_point(rng, tag, sizes, 1.7, lo=0.1)
            pre = unroll(tag, stack.w, stack.h[-1])[0][1:]
            assert any(np.any(p > act.inv_hi) for p in pre)
            assert_gradients_match_finite_differences(spec, x, stack)

    def test_zero_residual_gives_zero_data_gradient(self, rng):
        dims = (6, 4, 2)
        ws = [rng.uniform(0.1, 1.0, size=(a, b)) for a, b in zip(dims, dims[1:])]
        h2 = rng.uniform(0.1, 1.0, size=(2, 9))
        act = get_activation("root")
        h1 = act.inverse(ws[1] @ h2)
        x = ws[0] @ h1
        stack = FactorStack(ws, [h1, h2])
        spec = make_spec("dnmf", (4, 2), activation="root")
        assert np.abs(representation_gradient(spec, x, stack)).max() <= 1e-10
        assert np.abs(basis_gradient(spec, x, stack, 2)).max() <= 1e-10

    def test_basis_gradient_layer_one_rejected(self, rng):
        stack = random_stack(rng, 5, (3, 2), 6)
        spec = make_spec("dnmf", (3, 2), activation="root")
        x = rng.uniform(0.1, 1.0, size=(5, 6))
        with pytest.raises(InvalidInputError):
            basis_gradient(spec, x, stack, 1)


class TestNonlinearFinetune:
    CFG = TrainConfig(inner_stop=StopRule(60, 1e-4), max_sweeps=6,
                      rel_obj_tol=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("tag", ["root", "tanh", "sigmoid", "softplus",
                                     "identity"])
    def test_matches_the_two_loop_sweep(self, tag, depth):
        # One loop for every activation: behind an activation, finetune is
        # the nonlinear sweep it replaced, bit for bit.
        assert nonlinear_finetune is finetune
        sizes = (8, 6, 4)[:depth]
        x = synth_generate("planted_linear", 3, rows=20, cols=40,
                           layer_sizes=sizes, classes=4, noise=0.05).x
        spec = make_spec("sdnmf_rl1", sizes, mu=0.05, lam=0.05, activation=tag)
        stack, _ = pretrain(spec, x, self.CFG)
        got, report = finetune(spec, x, stack, self.CFG)
        ref, ref_report = two_loop_nonlinear_finetune(spec, x, stack, self.CFG)
        assert report.sweeps_used >= 2
        for a, b in zip(got.w + got.h, ref.w + ref.h):
            np.testing.assert_array_equal(a, b)
        assert report.objective_trace == ref_report.objective_trace
        assert (report.sweeps_used, report.stalled) == (
            ref_report.sweeps_used, ref_report.stalled)

    def test_first_basis_block_fits_the_unrolled_chain(self, rng):
        spec, x, stack = chain_point(rng, "softplus", (5, 4, 3), 3.0, lo=0.1)
        got = finetune_problem(spec, 1, "w", x, stack)
        fresh = unroll(spec.activation, stack.w, stack.h[-1], stop=1)[1]
        ref = pretrain_problem(spec, 1, "w", x, stack.w[0], fresh[0])
        for field in dataclasses.fields(got):
            np.testing.assert_array_equal(getattr(got, field.name),
                                          getattr(ref, field.name))
        for role, layer in (("h", spec.depth), ("w", 2)):
            with pytest.raises(InvalidInputError):
                finetune_problem(spec, layer, role, x, stack)

    def test_identity_activation_tracks_linear_path(self, rng):
        x = rng.uniform(0.1, 1.0, size=(10, 20))
        lin_spec = make_spec("dnmf", (4, 2))
        lin_stack, _ = pretrain(lin_spec, x, FAST)
        _, lin_report = finetune(lin_spec, x, lin_stack, FAST)

        nl_spec = make_spec("dnmf", (4, 2), activation="identity")
        nl_stack, _ = pretrain(nl_spec, x, FAST)
        _, nl_report = nonlinear_finetune(nl_spec, x, nl_stack, FAST)
        assert nl_report.final_objective == pytest.approx(
            lin_report.final_objective, rel=0.05)

    def test_objective_decreases_from_pretrain(self):
        bundle = synth_generate("planted_nonlinear", seed=9, rows=16, cols=40,
                                layer_sizes=(6, 3), classes=3, noise=0.02,
                                activation="root")
        spec = make_spec("sdnmf_l", (6, 3), mu=0.05, activation="root")
        stack, _ = pretrain(spec, bundle.x, FAST)
        tuned, report = nonlinear_finetune(spec, bundle.x, stack, FAST)
        trace = np.asarray(report.objective_trace)
        assert trace[-1] <= trace[0]
        assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-10) + 1e-12)

    def test_clipped_hidden_representation_keeps_descent(self):
        # At this data scale the chain's first representation g_inv(W_2 H_2)
        # is partly negative, so the stored H_1 is clipped; W_1's block must
        # fit the unclipped chain the objective reconstructs through, or the
        # trace rises (2.7048 -> 2.9115 at sweep 1).
        bundle = synth_generate("planted_linear", 0, rows=30, cols=80,
                                layer_sizes=(10, 5), classes=4, noise=0.05)
        spec = make_spec("sdnmf_l", (10, 5), mu=0.05, activation="softplus")
        _, report = fit(spec, bundle.x * 0.05,
                        TrainConfig(StopRule(100, 1e-4), max_sweeps=30))
        trace = report.objective_trace
        assert not report.stalled and report.sweeps_used >= 2
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_deep_sigmoid_fit_does_not_stall(self):
        # Its chain leaves sigmoid's clamp interval; with the boundary slope
        # (about 1e7) as the derivative there, the first step stalled.
        sizes = (12, 8, 6, 4)
        bundle = synth_generate("planted_linear", 2, rows=40, cols=120,
                                layer_sizes=sizes, classes=4, noise=0.05)
        spec = make_spec("sdnmf_l", sizes, activation="sigmoid")
        _, report = fit(spec, bundle.x, TrainConfig(StopRule(60), max_sweeps=8))
        trace = report.objective_trace
        assert not report.stalled and report.sweeps_used >= 1
        assert trace[-1] < 0.1 * trace[0]

    def test_stalled_run_stores_its_final_chain(self, rng, monkeypatch):
        # With no halvings allowed the first step stalls; the hidden factors
        # returned must still be the final chain's, not pretraining's.
        monkeypatch.setattr(nonlinear, "MAX_HALVINGS", 0)
        x = rng.uniform(0.1, 1.0, size=(9, 15))
        spec = make_spec("dnmf", (6, 4, 2), activation="root")
        stack, _ = pretrain(spec, x, FAST)
        tuned, report = nonlinear_finetune(spec, x, stack, FAST)
        assert report.stalled and report.sweeps_used == 0
        _, fresh = unroll(spec.activation, tuned.w, tuned.h[-1])
        for l in range(spec.depth - 1):
            np.testing.assert_array_equal(tuned.h[l], np.maximum(fresh[l], 0.0))
            assert not np.array_equal(tuned.h[l], stack.h[l])

    def test_stall_keeps_the_last_complete_sweep(self, monkeypatch):
        # The 4th step is the second sweep's W_2 step, after that sweep's
        # H_L step has moved. The run must return the stack its trace ends
        # at: the first sweep's, with hidden factors from that chain.
        x = synth_generate("planted_nonlinear", 3, rows=20, cols=40,
                           layer_sizes=(8, 4), classes=4, noise=0.01).x
        spec = make_spec("sdnmf_l", (8, 4), activation="root")
        cfg = TrainConfig(inner_stop=StopRule(50), max_sweeps=5)
        stack, _ = pretrain(spec, x, cfg)
        ref, _ = finetune(spec, x, stack,
                          TrainConfig(inner_stop=StopRule(50), max_sweeps=1))
        steps = []
        real = nonlinear.gradient_step

        def stall_fourth(*args):
            steps.append(args[3:5])
            return None if len(steps) == 4 else real(*args)

        monkeypatch.setattr(nonlinear, "gradient_step", stall_fourth)
        got, report = finetune(spec, x, stack, cfg)
        assert steps[2:] == [("h", 2), ("w", 2)]
        assert report.stalled and report.sweeps_used == 1
        assert finetune_objective(spec, x, got) == report.final_objective
        for a, b in zip(got.w + got.h, ref.w + ref.h):
            np.testing.assert_array_equal(a, b)

    def test_complete_run_stores_its_final_chain(self, rng):
        x = rng.uniform(0.1, 1.0, size=(9, 15))
        spec = make_spec("sdnmf_l", (6, 4, 2), mu=0.05, activation="softplus")
        tuned, report = nonlinear_finetune(spec, x, pretrain(spec, x, FAST)[0], FAST)
        assert not report.stalled
        _, fresh = unroll(spec.activation, tuned.w, tuned.h[-1])
        for l in range(spec.depth - 1):
            np.testing.assert_array_equal(tuned.h[l], np.maximum(fresh[l], 0.0))

    def test_factors_stay_nonneg(self, rng):
        x = rng.uniform(0.1, 1.0, size=(8, 15))
        spec = make_spec("sdnmf_rl2", (4, 2), mu=0.1, lam=0.1,
                         activation="root")
        stack, _ = pretrain(spec, x, FAST)
        tuned, _ = nonlinear_finetune(spec, x, stack, FAST)
        for m in tuned.w + tuned.h:
            assert m.min() >= 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_trial_steps_are_rejected_silently(self, rng):
        # A descent direction on one entry of H_L, scaled down so that the
        # first trial step f / ||g||^2 moves that entry far enough to overflow
        # root's inverse y * y: that trial must be rejected without a
        # RuntimeWarning, and backtracking must settle on a finite objective.
        # The chain level W_2 H_2 is scaled to about 1e150, where its square
        # is still finite, and W_1 down so that the data stay near 1.
        spec = make_spec("dnmf", (4, 3), activation="root")
        stack = random_stack(rng, 6, (4, 3), 7)
        stack.w[1] *= 1e75
        stack.h[1] *= 1e75
        stack.w[0] *= 1e-300
        x = unroll(spec.activation, stack.w, stack.h[-1])[0][0] + 1.0
        f0 = nonlinear.chain_objective(spec, x, stack.w, stack.h[-1])
        g = representation_gradient(spec, x, stack)
        grad = np.zeros_like(g)
        grad[0, 0] = 1e-6 * g[0, 0]
        assert grad[0, 0] < 0.0
        values = []

        def f_of(v):
            values.append(nonlinear.chain_objective(spec, x, stack.w, v))
            return values[-1]

        value, f, _ = nonlinear._armijo_step(stack.h[-1], f0, grad, f_of)
        assert not np.isfinite(values[0])
        assert np.isfinite(f) and f < f0 and np.all(np.isfinite(value))

    def test_next_trial_step_is_twice_the_accepted_one(self, rng):
        spec = make_spec("dnmf", (4, 3), activation="root")
        stack = random_stack(rng, 6, (4, 3), 7)
        x = rng.uniform(0.1, 1.0, size=(6, 7))
        f0 = nonlinear.chain_objective(spec, x, stack.w, stack.h[-1])
        grad = representation_gradient(spec, x, stack)
        trials = []

        def f_of(v):
            trials.append(v)
            return nonlinear.chain_objective(spec, x, stack.w, v)

        value, _, step = nonlinear._armijo_step(stack.h[-1], f0, grad, f_of)
        accepted = 0.5 * step
        np.testing.assert_array_equal(
            value, np.maximum(stack.h[-1] - accepted * grad, 0.0))
        assert accepted == f0 / frobenius_sq(grad) / 2.0 ** (len(trials) - 1)
        # A zero gradient does not move the block and forgets the step.
        zero = np.zeros_like(grad)
        assert nonlinear._armijo_step(value, f0, zero, f_of, step)[1:] == (f0, None)

    def test_later_backtrackings_start_near_the_accepted_step(self, monkeypatch):
        # A trial step of f / ||g||^2 on every backtracking grows against
        # 1 / L as the gradient shrinks and takes about 12 evaluations per
        # step on this fit; twice the last accepted step is accepted after
        # about two. Only the Armijo trials evaluate the objective through
        # nonlinear_objective; the objectives that start the trace and end
        # each sweep are finetune_objective's.
        x = synth_generate("planted_linear", 1, rows=40, cols=120,
                           layer_sizes=(8, 4), classes=4, noise=0.01).x
        spec = make_spec("dnmf", (8, 4), activation="root")
        stack, _ = pretrain(spec, x, FAST)
        calls = []

        def counting(*args):
            calls.append(None)
            return nonlinear.chain_objective(*args)

        monkeypatch.setattr(nonlinear, "nonlinear_objective", counting)
        cfg = TrainConfig(StopRule(60), max_sweeps=60, rel_obj_tol=1e-12)
        _, report = nonlinear_finetune(spec, x, stack, cfg)
        assert report.sweeps_used == 60 and not report.stalled
        per_step = len(calls) / (60 * spec.depth)
        assert per_step < 2.5
