import numpy as np
import pytest

from deepnmf import (ApgProblem, InvalidInputError, StopRule, TrainConfig,
                     VARIANTS, apg_solve, finetune,
                     finetune_objective, fit, make_spec, nnsvd_init, pretrain)

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
        stack = pretrain(spec, x, TrainConfig(max_sweeps=200))
        err = np.linalg.norm(x - stack.w[0] @ stack.h[0]) / np.linalg.norm(x)
        assert err <= 1e-3

    def test_shape_chain(self, rng):
        x = rng.uniform(0.0, 1.0, size=(6, 10))
        stack = pretrain(make_spec("dnmf", (4, 2)), x, FAST)
        assert stack.w[0].shape == (6, 4)
        assert stack.w[1].shape == (4, 2)
        assert stack.h[1].shape == (2, 10)

    def test_per_layer_traces_non_increasing(self, rng):
        x = rng.uniform(0.0, 1.0, size=(8, 14))
        spec = make_spec("sdnmf_l", (4, 2), mu=0.1)
        _, traces = pretrain(spec, x, FAST, full_output=True)
        assert len(traces) == 2
        for trace in traces:
            assert trace_is_monotone(trace)

    def test_factors_feasible(self, rng):
        x = rng.uniform(0.0, 1.0, size=(7, 12))
        stack = pretrain(make_spec("sdnmf_rl1", (3, 2), mu=0.2, lam=0.2), x, FAST)
        for m in stack.w + stack.h:
            assert m.min() >= 0.0

    def test_rejects_oversized_first_layer(self, rng):
        x = rng.uniform(0.0, 1.0, size=(4, 10))
        with pytest.raises(InvalidInputError):
            pretrain(make_spec("dnmf", (5,)), x, FAST)

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
        stack = pretrain(spec, x, FAST)
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
            assert stack.max_entry() <= 1e6 * max(x.max(), 1.0)

    def test_report_carries_pretrain_objectives(self, rng):
        x = rng.uniform(0.0, 1.0, size=(8, 12))
        _, report = fit(make_spec("dnmf", (3, 2)), x, FAST)
        assert len(report.per_layer_pretrain_objectives) == 2
        assert all(np.isfinite(v) for v in report.per_layer_pretrain_objectives)
