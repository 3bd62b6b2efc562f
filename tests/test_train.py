import numpy as np
import pytest

from deepnmf import (ApgProblem, InvalidInputError, NumericalError, StopRule,
                     TrainConfig, VARIANTS, apg_solve, finetune,
                     finetune_objective, fit, make_spec, nnsvd_init, pretrain,
                     synth_generate)
from deepnmf import kernels, train
from deepnmf.activations import get_activation
from deepnmf.kernels import roundoff_slack
from deepnmf.models import finetune_problem
from deepnmf.train import _sweeps, layer_objective

from _oracles import every_hidden_finetune

PEN = {
    "dnmf": {},
    "sdnmf_l": {"mu": 0.1},
    "sdnmf_r": {"lam": 0.1},
    "sdnmf_rl1": {"mu": 0.1, "lam": 0.1},
    "sdnmf_rl2": {"mu": 0.1, "lam": 0.1},
}

FAST = TrainConfig(inner_stop=StopRule(200, 1e-5), max_sweeps=40, rel_obj_tol=1e-8)


def planted(rng, m, sizes, n):
    dims = (m,) + tuple(sizes)
    ws = [rng.uniform(0.0, 1.0, size=(a, b)) for a, b in zip(dims, dims[1:])]
    h = rng.uniform(0.0, 1.0, size=(sizes[-1], n))
    x = h
    for w in reversed(ws):
        x = w @ x
    return x


def trace_is_monotone(trace):
    trace = np.asarray(trace)
    return bool(np.all(trace[1:] <= trace[:-1] * (1 + 1e-10) + 1e-300))


class TestPretrain:
    def test_planted_single_layer_reconstructs(self, rng):
        x = planted(rng, 6, (3,), 10)
        spec = make_spec("dnmf", (3,))
        stack, _ = pretrain(spec, x, TrainConfig(max_sweeps=200))
        err = np.linalg.norm(x - stack.w[0] @ stack.h[0]) / np.linalg.norm(x)
        assert err <= 1e-3

    def test_shape_chain(self, rng):
        x = rng.uniform(0.0, 1.0, size=(6, 10))
        stack, _ = pretrain(make_spec("dnmf", (4, 2)), x, FAST)
        assert stack.w[0].shape == (6, 4)
        assert stack.w[1].shape == (4, 2)
        assert stack.h[1].shape == (2, 10)

    def test_per_layer_traces_non_increasing(self, rng):
        x = rng.uniform(0.0, 1.0, size=(8, 14))
        spec = make_spec("sdnmf_l", (4, 2), mu=0.1)
        _, traces = pretrain(spec, x, FAST)
        assert len(traces) == 2
        for trace in traces:
            assert trace_is_monotone(trace)

    @pytest.mark.parametrize("activation", ["linear", "root"])
    def test_traces_start_at_the_seed(self, rng, activation):
        x = rng.uniform(0.0, 1.0, size=(8, 14))
        spec = make_spec("sdnmf_l", (4, 2), mu=0.1, activation=activation)
        stack, traces = pretrain(spec, x, FAST)
        h1 = stack.h[0]
        inputs = [x, h1 if activation == "linear" else get_activation(activation).g(h1)]
        for layer, (h_input, trace) in enumerate(zip(inputs, traces), start=1):
            w, h = nnsvd_init(h_input, spec.layer_sizes[layer - 1])
            assert trace[0] == layer_objective(spec, layer, h_input, w, h)
            assert len(trace) >= 2 and trace[-1] < trace[0]

    def test_factors_feasible(self, rng):
        x = rng.uniform(0.0, 1.0, size=(7, 12))
        stack, _ = pretrain(make_spec("sdnmf_rl1", (3, 2), mu=0.2, lam=0.2), x, FAST)
        for m in stack.w + stack.h:
            assert m.min() >= 0.0

    def test_rejects_oversized_first_layer(self, rng):
        x = rng.uniform(0.0, 1.0, size=(4, 10))
        with pytest.raises(InvalidInputError):
            pretrain(make_spec("dnmf", (5,)), x, FAST)

    def test_layer_wider_than_its_input_is_named(self, rng):
        x = rng.uniform(0.0, 1.0, size=(8, 3))
        with pytest.raises(InvalidInputError, match="layer 1 has size 5, above "
                                                    "the smaller side of its 8x3"):
            pretrain(make_spec("dnmf", (5,)), x, FAST)
        x = rng.uniform(0.0, 1.0, size=(8, 12))
        with pytest.warns(UserWarning, match="non-increasing"):
            spec = make_spec("dnmf", (4, 6))
        with pytest.raises(InvalidInputError, match="layer 2 has size 6, above "
                                                    "the smaller side of its 4x12"):
            pretrain(spec, x, FAST)

    def test_rejects_negative_data(self):
        x = -np.ones((4, 6))
        with pytest.raises(InvalidInputError):
            pretrain(make_spec("dnmf", (2,)), x, FAST)


class TestFinetune:
    def test_fixed_point_returns_in_one_sweep(self, rng):
        # Plant the exact factorization: every block gradient vanishes, so one
        # sweep changes nothing and the stop fires immediately.
        from deepnmf import FactorStack

        dims = (6, 4, 2)
        ws = [rng.uniform(0.0, 1.0, size=(a, b)) for a, b in zip(dims, dims[1:])]
        h2 = rng.uniform(0.0, 1.0, size=(2, 10))
        stack = FactorStack(ws, [ws[1] @ h2, h2])
        x = ws[0] @ ws[1] @ h2
        spec = make_spec("dnmf", (4, 2))
        stack, report = finetune(spec, x, stack, FAST)
        start = report.objective_trace[0]
        assert report.sweeps_used == 1
        assert report.final_objective <= start * (1 + 1e-10) + 1e-12

    def test_two_layer_sdnmf_l_descends(self, rng):
        x = rng.uniform(0.0, 1.0, size=(20, 50))
        spec = make_spec("sdnmf_l", (6, 3), mu=0.1)
        stack, _ = pretrain(spec, x, FAST)
        pre_obj = finetune_objective(spec, x, stack)
        tuned, report = finetune(spec, x, stack, FAST)
        assert trace_is_monotone(report.objective_trace)
        assert report.final_objective <= pre_obj * (1 + 1e-10)
        assert report.objective_trace[0] == pytest.approx(pre_obj, rel=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_monotone_per_variant(self, rng, variant):
        x = rng.uniform(0.0, 1.0, size=(12, 25))
        spec = make_spec(variant, (5, 3), **PEN[variant])
        stack, report = fit(spec, x, FAST)
        assert trace_is_monotone(report.objective_trace)
        for m in stack.w + stack.h:
            assert m.min() >= 0.0

    def test_single_layer_matches_standalone_alternation(self, rng):
        # Independent plain-NMF alternation assembled from raw quadratic
        # blocks, mirroring the pipeline's two stages and stopping rules:
        # H-then-W sweeps from the NNSVD seed, then W-then-H sweeps.
        x = np.abs(rng.standard_normal((10, 16))) + 0.1
        spec = make_spec("dnmf", (4,))
        cfg = TrainConfig(inner_stop=StopRule(2000, 1e-6), max_sweeps=150,
                          rel_obj_tol=1e-10)
        stack, report = fit(spec, x, cfg)

        const = 0.5 * float(np.sum(x * x))

        def h_problem(w):
            gram = w.T @ w
            return ApgProblem(-(w.T @ x), float(np.linalg.eigvalsh(gram).max()),
                              left=gram, const=const)

        def w_problem(h):
            right = h @ h.T
            return ApgProblem(-(x @ h.T), float(np.linalg.eigvalsh(right).max()),
                              right=right, const=const)

        def data_fit(w, h):
            return 0.5 * float(np.sum((x - w @ h) ** 2))

        w, h = nnsvd_init(x, 4)
        prev = np.inf
        for _ in range(cfg.max_sweeps):
            h = apg_solve(h, h_problem(w), cfg.inner_stop)
            w = apg_solve(w, w_problem(h), cfg.inner_stop)
            cur = data_fit(w, h)
            if abs(prev - cur) / max(abs(prev), 1e-300) < cfg.rel_obj_tol:
                break
            prev = cur
        prev = data_fit(w, h)
        for _ in range(cfg.max_sweeps):
            w = apg_solve(w, w_problem(h), cfg.inner_stop)
            h = apg_solve(h, h_problem(w), cfg.inner_stop)
            cur = data_fit(w, h)
            if abs(prev - cur) / max(abs(prev), 1e-300) < cfg.rel_obj_tol:
                break
            prev = cur
        assert report.final_objective == pytest.approx(cur, rel=1e-8, abs=1e-10)

    def test_deterministic_traces(self, rng):
        x = rng.uniform(0.0, 1.0, size=(10, 18))
        spec = make_spec("sdnmf_rl2", (4, 2), mu=0.1, lam=0.1)
        _, r1 = fit(spec, x, FAST)
        _, r2 = fit(spec, x.copy(), FAST)
        assert r1.objective_trace == r2.objective_trace

    def test_iterates_stay_bounded(self, rng):
        x = rng.uniform(0.0, 1.0, size=(10, 18))
        for variant in VARIANTS:
            spec = make_spec(variant, (4, 2), **PEN[variant])
            stack, _ = fit(spec, x, FAST)
            assert max(m.max() for m in stack.w + stack.h) <= 1e6 * max(x.max(), 1.0)

    def test_report_carries_pretrain_objectives(self, rng):
        x = rng.uniform(0.0, 1.0, size=(8, 12))
        _, report = fit(make_spec("dnmf", (3, 2)), x, FAST)
        assert len(report.per_layer_pretrain_objectives) == 2
        assert all(np.isfinite(v) for v in report.per_layer_pretrain_objectives)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0])
def test_train_config_rejects_non_finite_or_zero_tol(tol):
    with pytest.raises(InvalidInputError, match="rel_obj_tol"):
        TrainConfig(rel_obj_tol=tol)


class TestDataScale:
    """Every step, floor and tolerance of training comes from the problem, so
    a power-of-two rescaling of the data rescales the whole fit exactly."""

    @pytest.mark.parametrize("activation", ["linear", "root"])
    def test_power_of_two_rescaling_scales_the_trace(self, activation):
        x = synth_generate("planted_linear", 1, rows=40, cols=120,
                           layer_sizes=(8, 4), classes=4, noise=0.01).x
        spec = make_spec("dnmf", (8, 4), activation=activation)
        cfg = TrainConfig(StopRule(60), max_sweeps=10)
        _, unit = fit(spec, x, cfg)
        assert unit.sweeps_used == 10 and not unit.stalled
        for e in (-96, -48, 48, 96):
            s = 2.0 ** e
            _, report = fit(spec, s * x, cfg)
            assert report.objective_trace == [s * s * v for v in
                                              unit.objective_trace], e

    def test_large_basis_penalty_still_descends(self):
        # The penalty drives W_1's entries, and with them the H blocks'
        # Lipschitz constants, toward 0 (about 1e-11 after pretraining
        # here); the steps must grow to match, or the fit stops far above
        # its optimum.
        x = np.abs(np.random.default_rng(0).normal(size=(5, 6)))
        spec = make_spec("sdnmf_l", (3, 2), mu=1e9)
        _, report = fit(spec, x, TrainConfig(max_sweeps=20))
        assert report.final_objective < 1.0


class TestHiddenSolves:
    """Linear fine-tuning solves the chain W_1 .. W_L H_L in its sweeps and
    each hidden H_l once, after the last sweep."""

    CFG = TrainConfig(inner_stop=StopRule(60, 1e-4), max_sweeps=4,
                      rel_obj_tol=1e-12)

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("variant", ["dnmf", "sdnmf_l", "sdnmf_r", "sdnmf_rl2"])
    def test_hidden_blocks_do_not_affect_the_chain(self, rng, variant, depth):
        sizes = (8, 6, 4)[:depth]
        x = planted(rng, 20, sizes, 40) + 0.01 * rng.uniform(size=(20, 40))
        spec = make_spec(variant, sizes, **PEN[variant])
        stack, _ = pretrain(spec, x, self.CFG)
        got, report = finetune(spec, x, stack, self.CFG)
        ref, ref_report = every_hidden_finetune(spec, x, stack, self.CFG)
        assert report.sweeps_used >= 2
        for a, b in zip(got.w + got.h[-1:], ref.w + ref.h[-1:]):
            np.testing.assert_array_equal(a, b)
        assert report.objective_trace == ref_report.objective_trace
        # Each stored hidden factor is one block solve against the final
        # bases, started from the chain's W_{l+1} .. W_L H_L.
        rep = got.h[-1]
        for layer in range(depth - 1, 0, -1):
            rep = got.w[layer] @ rep
            problem = finetune_problem(spec, layer, "h", x, got)
            np.testing.assert_array_equal(
                got.h[layer - 1], apg_solve(rep, problem, self.CFG.inner_stop))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_solve_count(self, rng, depth, monkeypatch):
        sizes = (8, 6, 4)[:depth]
        x = planted(rng, 20, sizes, 40) + 0.01 * rng.uniform(size=(20, 40))
        spec = make_spec("sdnmf_l", sizes, mu=0.1)
        stack, _ = pretrain(spec, x, self.CFG)
        # One letter per call: "s" a block solve, "o" the objective that
        # starts the trace and ends every sweep.
        events = []

        def logged(fn, letter):
            def wrapper(*args, **kwargs):
                events.append(letter)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(train, "apg_solve", logged(train.apg_solve, "s"))
        monkeypatch.setattr(train, "finetune_objective",
                            logged(train.finetune_objective, "o"))
        _, report = finetune(spec, x, stack, self.CFG)
        assert report.sweeps_used >= 2
        expected = ("o" + ("s" * (depth + 1) + "o") * report.sweeps_used
                    + "s" * (depth - 1))
        assert "".join(events) == expected


@pytest.mark.parametrize("variant", ["sdnmf_r", "sdnmf_rl1", "sdnmf_rl2"])
def test_no_h_block_reaches_the_kernel_with_a_separate_penalty(
        rng, variant, monkeypatch):
    # An H block (40 columns, one per sample) carries its penalty in its
    # gram, in pretraining, in fine-tuning and in the hidden solves.
    x = planted(rng, 20, (8, 4), 40) + 0.01 * rng.uniform(size=(20, 40))
    spec = make_spec(variant, (8, 4), **PEN[variant])
    calls = []
    solve = kernels.apg_quad_solve

    def recorded(v0, left, right, lin, colsum_w, ridge, *rest):
        calls.append((v0.shape[1] == 40, colsum_w, ridge))
        return solve(v0, left, right, lin, colsum_w, ridge, *rest)

    monkeypatch.setattr(kernels, "apg_quad_solve", recorded)
    fit(spec, x, TrainConfig(inner_stop=StopRule(20), max_sweeps=2))
    h_terms = {(colsum, ridge) for is_h, colsum, ridge in calls if is_h}
    assert h_terms == {(0.0, 0.0)}
    assert {ridge for _, _, ridge in calls} == {0.0}


class TestSweepLoop:
    X = np.ones((3, 4))

    def test_rising_sweep_raises(self):
        values = iter([0.9, 1.2])
        with pytest.raises(NumericalError, match="rose from 0.9 to 1.2"):
            _sweeps(self.X, TrainConfig(max_sweeps=5), 1.0, lambda: next(values))

    def test_rise_within_roundoff_of_the_data_scale_passes(self):
        # The block objectives carry 0.5*||X||^2 = 6, so a rise far above
        # the objective's own relative tolerance is still roundoff.
        slack = roundoff_slack(6.0)
        values = iter([1e-15 + 0.5 * slack, 1e-15 + 0.5 * slack])
        report = _sweeps(self.X, TrainConfig(max_sweeps=5), 1e-15,
                         lambda: next(values))
        assert report.sweeps_used == 2
        values = iter([1e-15 + 2.0 * slack])
        with pytest.raises(NumericalError, match="rose"):
            _sweeps(self.X, TrainConfig(max_sweeps=5), 1e-15,
                    lambda: next(values))

    def test_stalled_sweep_counts_only_complete_sweeps(self):
        values = iter([0.9, 0.5, None])
        report = _sweeps(self.X, TrainConfig(max_sweeps=5), 1.0,
                         lambda: next(values))
        assert report.stalled
        assert report.sweeps_used == 2
        assert report.objective_trace == [1.0, 0.9, 0.5]
        assert report.final_objective == 0.5
