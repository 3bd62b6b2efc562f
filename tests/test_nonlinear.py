import numpy as np
import pytest

from deepnmf import (FactorStack, InvalidInputError, StopRule, TrainConfig,
                     apply_activation, basis_gradient, finetune, finetune_problem,
                     get_activation, make_spec, nonlinear_finetune,
                     nonlinear_objective, pretrain,
                     representation_gradient, synth_generate)

from _oracles import central_diff

FAST = TrainConfig(inner_stop=StopRule(200, 1e-5), max_sweeps=40, rel_obj_tol=1e-8)


def random_stack(rng, m, sizes, n, lo=0.1, hi=1.0):
    dims = (m,) + tuple(sizes)
    ws = [rng.uniform(lo, hi, size=(a, b)) for a, b in zip(dims, dims[1:])]
    hs = [rng.uniform(lo, hi, size=(k, n)) for k in sizes]
    return FactorStack(ws, hs)


class TestActivations:
    def test_root_values(self):
        out = apply_activation("root", np.array([[4.0, 9.0]]))
        np.testing.assert_allclose(out, [[2.0, 3.0]])

    def test_root_zero_fixed_point(self):
        out = apply_activation("root", np.zeros((2, 3)))
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

    def test_forward_preserves_nonnegativity(self, rng):
        h = rng.uniform(0.0, 5.0, size=(4, 4))
        for tag in ("root", "tanh", "sigmoid", "softplus", "identity"):
            assert apply_activation(tag, h).min() >= 0.0

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
        stack = pretrain(spec, bundle.x, cfg)
        data_fit = nonlinear_objective(spec, bundle.x, stack.w, stack.h[-1])
        rel_err = np.sqrt(2.0 * data_fit) / np.linalg.norm(bundle.x)
        assert rel_err <= 1e-2

    def test_shapes_match_linear_pretrain(self, rng):
        x = rng.uniform(0.1, 1.0, size=(8, 12))
        lin = pretrain(make_spec("dnmf", (4, 2)), x, FAST)
        non = pretrain(make_spec("dnmf", (4, 2), activation="root"), x, FAST)
        for a, b in zip(lin.w + lin.h, non.w + non.h):
            assert a.shape == b.shape

    def test_second_layer_fits_activated_first_representation(self, rng):
        # The activation comes from the spec: layer 2 factorizes g(H_1),
        # while the stack keeps the solved H_1.
        x = rng.uniform(0.1, 1.0, size=(8, 12))
        spec = make_spec("dnmf", (4, 2), activation="root")
        stack, traces = pretrain(spec, x, FAST, full_output=True)
        target = get_activation("root").g(stack.h[0])
        fit2 = 0.5 * float(np.sum((target - stack.w[1] @ stack.h[1]) ** 2))
        assert traces[1][-1] == pytest.approx(fit2, rel=1e-12)
        linear = pretrain(make_spec("dnmf", (4, 2)), x, FAST)
        np.testing.assert_array_equal(linear.h[0], stack.h[0])
        assert not np.array_equal(linear.w[1], stack.w[1])

    def test_projecting_all_enlarges_subunit_final_representation(self, rng):
        # root on values below one increases them; mode "all" applies it to
        # the final representation, mode "hidden" leaves it alone.
        x = rng.uniform(0.0, 0.5, size=(8, 12))
        hidden = pretrain(
            make_spec("dnmf", (4, 2), activation="root", projection_mode="hidden"),
            x, FAST)
        allmode = pretrain(
            make_spec("dnmf", (4, 2), activation="root", projection_mode="all"),
            x, FAST)
        np.testing.assert_allclose(allmode.h[-1], np.sqrt(hidden.h[-1]), atol=1e-12)
        sub_unit = hidden.h[-1] < 1.0
        assert sub_unit.any()
        assert np.all(allmode.h[-1][sub_unit] >= hidden.h[-1][sub_unit])


class TestGradients:
    def test_identity_activation_equals_linear_gradients(self, rng):
        sizes = (4, 3)
        stack = random_stack(rng, 6, sizes, 8)
        # Make the stored hidden representation consistent with the chain.
        stack.set_h(1, stack.w[1] @ stack.h[1])
        x = rng.uniform(0.1, 1.0, size=(6, 8))
        nl = make_spec("sdnmf_rl2", sizes, mu=0.2, lam=0.3,
                       activation="identity", projection_mode="hidden")
        lin = make_spec("sdnmf_rl2", sizes, mu=0.2, lam=0.3)

        g_h = representation_gradient(nl, x, stack)
        lin_h = finetune_problem(lin, 2, "h", x, stack).grad(stack.h[-1])
        assert np.abs(g_h - lin_h).max() <= 1e-12 * max(1.0, np.abs(lin_h).max())

        g_w = basis_gradient(nl, x, stack, 2)
        lin_w = finetune_problem(lin, 2, "w", x, stack).grad(stack.w[1])
        assert np.abs(g_w - lin_w).max() <= 1e-12 * max(1.0, np.abs(lin_w).max())

    @pytest.mark.parametrize("tag", ["root", "softplus"])
    def test_matches_finite_differences(self, rng, tag):
        sizes = (4, 3)
        stack = random_stack(rng, 5, sizes, 6)
        x = rng.uniform(0.1, 1.0, size=(5, 6))
        spec = make_spec("sdnmf_rl1", sizes, mu=0.2, lam=0.3, activation=tag,
                         projection_mode="hidden")

        g = representation_gradient(spec, x, stack)
        fd = central_diff(lambda v: nonlinear_objective(spec, x, stack.w, v),
                          stack.h[-1])
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-5

        g2 = basis_gradient(spec, x, stack, 2)

        def f_w(v):
            return nonlinear_objective(spec, x, [stack.w[0], v], stack.h[-1])

        fd2 = central_diff(f_w, stack.w[1])
        assert np.linalg.norm(g2 - fd2) / np.linalg.norm(fd2) <= 1e-5

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
    def test_rejects_linear_spec(self, rng):
        x = rng.uniform(0.1, 1.0, size=(5, 6))
        stack = random_stack(rng, 5, (3,), 6)
        with pytest.raises(InvalidInputError):
            nonlinear_finetune(make_spec("dnmf", (3,)), x, stack, FAST)

    def test_identity_activation_tracks_linear_path(self, rng):
        x = rng.uniform(0.1, 1.0, size=(10, 20))
        lin_spec = make_spec("dnmf", (4, 2))
        lin_stack = pretrain(lin_spec, x, FAST)
        _, lin_report = finetune(lin_spec, x, lin_stack, FAST)

        nl_spec = make_spec("dnmf", (4, 2), activation="identity",
                            projection_mode="hidden")
        nl_stack = pretrain(nl_spec, x, FAST)
        _, nl_report = nonlinear_finetune(nl_spec, x, nl_stack, FAST)
        assert nl_report.final_objective == pytest.approx(
            lin_report.final_objective, rel=0.05)

    def test_objective_decreases_from_pretrain(self):
        bundle = synth_generate("planted_nonlinear", seed=9, rows=16, cols=40,
                                layer_sizes=(6, 3), classes=3, noise=0.02,
                                activation="root")
        spec = make_spec("sdnmf_l", (6, 3), mu=0.05, activation="root",
                         projection_mode="hidden")
        stack = pretrain(spec, bundle.x, FAST)
        tuned, report = nonlinear_finetune(spec, bundle.x, stack, FAST)
        trace = np.asarray(report.objective_trace)
        assert trace[-1] <= trace[0]
        assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-10) + 1e-12)

    def test_factors_stay_nonneg(self, rng):
        x = rng.uniform(0.1, 1.0, size=(8, 15))
        spec = make_spec("sdnmf_rl2", (4, 2), mu=0.1, lam=0.1,
                         activation="root", projection_mode="all")
        stack = pretrain(spec, x, FAST)
        tuned, _ = nonlinear_finetune(spec, x, stack, FAST)
        for m in tuned.w + tuned.h:
            assert m.min() >= 0.0
