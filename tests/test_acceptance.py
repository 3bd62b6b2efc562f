"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines). Each test prints a single summary line on
success; a failing criterion fails its test.
"""

import csv as csvmod
import time

import numpy as np
import pytest

from deepnmf import (ApgProblem, EvalConfig, ExperimentConfig, FactorStack,
                     StopRule, SweepAxes, TrainConfig, VARIANTS,
                     apg_solve, basis_gradient, error_rate, finetune,
                     finetune_problem, fit, kmeans, make_spec, naive_precision,
                     nmi, nnsvd_init, nonlinear_objective, pretrain,
                     pretrain_problem, representation_gradient,
                     run_experiment, synth_generate)
from deepnmf.kernels import kkt_norm
from deepnmf.metrics import from_labels

from _oracles import (canonical_partitions, central_diff, er_oracle,
                      nmi_oracle, np_oracle, plain_pg_iters_to_tol,
                      plain_pg_quad, quad_objective)

PEN = {
    "dnmf": {},
    "sdnmf_l": {"mu": 0.3},
    "sdnmf_r": {"lam": 0.2},
    "sdnmf_rl1": {"mu": 0.3, "lam": 0.2},
    "sdnmf_rl2": {"mu": 0.3, "lam": 0.2},
}


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def nmf_h_instances(n_instances=10, m=20, n=15, k=5):
    """Seeded plain-NMF H-block instances: (h0, gram, lin, const, lipschitz)."""
    out = []
    for seed in range(n_instances):
        rng = np.random.default_rng(1000 + seed)
        x = rng.uniform(0.0, 1.0, size=(m, n))
        w = rng.uniform(0.0, 1.0, size=(m, k))
        gram = w.T @ w
        out.append((rng.uniform(0.0, 1.0, size=(k, n)), gram, -(w.T @ x),
                    0.5 * float(np.sum(x * x)),
                    float(np.linalg.eigvalsh(gram).max())))
    return out


def random_stack(rng, m, sizes, n, lo=0.1, hi=1.0):
    dims = (m,) + tuple(sizes)
    ws = [rng.uniform(lo, hi, size=(a, b)) for a, b in zip(dims, dims[1:])]
    hs = [rng.uniform(lo, hi, size=(kk, n)) for kk in sizes]
    return FactorStack(ws, hs)


def test_criterion_01_solver_matches_slow_pg_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for h0, gram, lin, const, lc in nmf_h_instances():
        problem = ApgProblem(lin, lc, left=gram, const=const)
        out = apg_solve(h0, problem, StopRule(20000, 1e-10))
        ref = plain_pg_quad(h0, gram, lin, lc, 10**6)
        f_out = quad_objective(out, gram, lin, const)
        f_ref = quad_objective(ref, gram, lin, const)
        rel = abs(f_out - f_ref) / max(abs(f_ref), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"10 instances, worst objective gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_acceleration_beats_plain_pg():
    pairs = []
    for h0, gram, lin, const, lc in nmf_h_instances():
        problem = ApgProblem(lin, lc, left=gram, const=const)
        _, info = apg_solve(h0, problem, StopRule(10**6, 1e-6), full_output=True)
        pg_iters = plain_pg_iters_to_tol(h0, gram, lin, lc, 1e-6, 10**6)
        assert info["converged"]
        assert info["iters"] <= pg_iters
        pairs.append((info["iters"], pg_iters))
    _report(2, "APG vs PG iterations per instance: "
               + ", ".join(f"{a}<={b}" for a, b in pairs))


def test_criterion_03_converged_solves_certify_kkt():
    rng = np.random.default_rng(7)
    checked = 0
    for variant in VARIANTS:
        spec = make_spec(variant, (4, 3), **PEN[variant])
        stack = random_stack(rng, 8, (4, 3), 10)
        x = rng.uniform(0.1, 1.0, size=(8, 10))
        problems = [pretrain_problem(spec, 1, "h", x, stack.w[0], stack.h[0]),
                    pretrain_problem(spec, 1, "w", x, stack.w[0], stack.h[0])]
        problems += [finetune_problem(spec, layer, role, x, stack)
                     for layer in (1, 2) for role in ("w", "h")]
        for problem in problems:
            v0 = rng.uniform(0.0, 1.0, size=problem.lin.shape)
            out, info = apg_solve(v0, problem, StopRule(20000, 1e-4),
                                  full_output=True)
            assert info["converged"]
            r0 = kkt_norm(v0, problem.grad(v0))
            r_final = kkt_norm(out, problem.grad(out))
            assert r_final <= 1e-4 * r0
            checked += 1
    _report(3, f"{checked} converged block solves within 1e-4 of the "
               "starting projected-gradient norm")


def test_criterion_04_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    checks = 0
    for variant in VARIANTS:
        spec = make_spec(variant, (4, 3), **PEN[variant])
        for point in range(20):
            stack = random_stack(rng, 6, (4, 3), 5)
            x = rng.uniform(0.1, 1.0, size=(6, 5))
            layer = 1 + point % 2
            problems = {
                ("pretrain", "h"): pretrain_problem(
                    spec, layer, "h", rng.uniform(0.1, 1.0, size=(6, 5)),
                    rng.uniform(0.1, 1.0, size=(6, 4)), rng.uniform(0.1, 1.0, size=(4, 5))),
                ("pretrain", "w"): pretrain_problem(
                    spec, layer, "w", rng.uniform(0.1, 1.0, size=(6, 5)),
                    rng.uniform(0.1, 1.0, size=(6, 4)), rng.uniform(0.1, 1.0, size=(4, 5))),
                ("finetune", "w"): finetune_problem(spec, layer, "w", x, stack),
                ("finetune", "h"): finetune_problem(spec, layer, "h", x, stack),
            }
            for (phase, role), problem in problems.items():
                v = rng.uniform(0.1, 1.0, size=problem.lin.shape)
                fd = central_diff(problem.objective, v)
                rel = (np.linalg.norm(problem.grad(v) - fd)
                       / max(np.linalg.norm(fd), 1e-300))
                assert rel <= 1e-5, (variant, phase, role, layer)
                checks += 1

    for tag in ("root", "softplus"):
        spec = make_spec("sdnmf_rl1", (4, 3), mu=0.2, lam=0.3, activation=tag)
        for point in range(20):
            stack = random_stack(rng, 6, (4, 3), 5)
            x = rng.uniform(0.1, 1.0, size=(6, 5))
            g = representation_gradient(spec, x, stack)
            fd = central_diff(
                lambda v: nonlinear_objective(spec, x, stack.w, v), stack.h[-1])
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-5, tag
            g2 = basis_gradient(spec, x, stack, 2)
            fd2 = central_diff(
                lambda v: nonlinear_objective(spec, x, [stack.w[0], v],
                                              stack.h[-1]), stack.w[1])
            assert np.linalg.norm(g2 - fd2) / np.linalg.norm(fd2) <= 1e-5, tag
            checks += 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"{checks} gradient checks at 20 interior points each "
               f"within 1e-5 of central differences, {elapsed:.1f}s")


def test_criterion_05_monotone_descent_per_variant():
    cfg = TrainConfig(inner_stop=StopRule(150, 1e-4), max_sweeps=25,
                      rel_obj_tol=1e-9)
    runs = 0
    for variant in VARIANTS:
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            x = rng.uniform(0.0, 1.0, size=(12, 30))
            spec = make_spec(variant, (5, 3), **PEN[variant])
            stack = pretrain(spec, x, cfg)
            tuned, report = finetune(spec, x, stack, cfg)
            trace = np.asarray(report.objective_trace)
            assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-10) + 1e-12), variant
            assert report.final_objective <= trace[0] * (1 + 1e-10)
            runs += 1
    _report(5, f"{runs} fine-tuning runs (5 seeds x {len(VARIANTS)} variants) "
               "monotone within 1e-10 relative slack")


def test_criterion_06_planted_recovery():
    t0 = time.perf_counter()
    bundle = synth_generate("planted_linear", seed=1234, rows=50, cols=200,
                            layer_sizes=(20, 8), classes=8, noise=0.01)
    spec = make_spec("sdnmf_l", (20, 8), mu=0.1)
    cfg = TrainConfig(inner_stop=StopRule(300, 1e-4), max_sweeps=30,
                      rel_obj_tol=1e-7)
    nmis, nps = [], []
    for rep in range(3):
        stack, _ = fit(spec, bundle.x, cfg)
        for krep in range(5):
            part = kmeans(stack.h[-1], 8, restarts=5, seed=100 * rep + krep)
            nmis.append(nmi(part, bundle.labels))
            nps.append(naive_precision(part, bundle.labels))
    elapsed = time.perf_counter() - t0
    assert np.mean(nmis) >= 0.9
    assert np.mean(nps) >= 0.85
    assert elapsed < 60.0
    _report(6, f"mean NMI {np.mean(nmis):.3f} >= 0.9, mean NP "
               f"{np.mean(nps):.3f} >= 0.85, {elapsed:.1f}s")


def test_criterion_07_sparsity_grows_with_penalty():
    bundle = synth_generate("planted_linear", seed=77, rows=24, cols=80,
                            layer_sizes=(8, 4), classes=4, noise=0.01)
    cfg = TrainConfig(inner_stop=StopRule(200, 1e-4), max_sweeps=20,
                      rel_obj_tol=1e-7)
    fractions = []
    for mu in (0.0, 0.1, 1.0):
        spec = make_spec("sdnmf_l", (8, 4), mu=mu)
        stack, _ = fit(spec, bundle.x, cfg)
        fractions.append(float(np.mean(np.abs(stack.w[0]) < 1e-6)))
    assert fractions == sorted(fractions)
    assert fractions[-1] > fractions[0]
    _report(7, "near-zero fraction of the first basis factor over mu "
               f"(0, 0.1, 1): {[round(f, 3) for f in fractions]}")


def test_criterion_08_metrics_match_bruteforce_oracle():
    checked = 0
    for n in range(1, 7):
        parts = canonical_partitions(n, 3)
        for la in parts:
            for lb in parts:
                a, b = from_labels(la), from_labels(lb)
                assert nmi(a, b) == pytest.approx(nmi_oracle(la, lb), abs=1e-12)
                assert error_rate(a, b) == pytest.approx(er_oracle(la, lb), abs=1e-12)
                assert naive_precision(a, b) == pytest.approx(np_oracle(la, lb),
                                                              abs=1e-12)
                checked += 1
    ref = from_labels([1, 1, 2, 2])
    obt = from_labels([1, 2, 2, 2])
    assert nmi(obt, ref) == pytest.approx(0.3437110184854508, rel=1e-12)
    assert error_rate(obt, ref) == pytest.approx(6.0 ** 0.25, rel=1e-12)
    assert naive_precision(obt, ref) == pytest.approx(0.75, rel=1e-12)
    _report(8, f"{checked} partition pairs vs the brute-force oracle, plus "
               "the worked example (NMI 0.3437, ER 6^(1/4), NP 0.75)")


def test_criterion_09_lipschitz_constants_are_valid():
    rng = np.random.default_rng(13)
    checked = 0
    for variant in VARIANTS:
        spec = make_spec(variant, (4, 3), **PEN[variant])
        stack = random_stack(rng, 6, (4, 3), 8)
        x = rng.uniform(0.1, 1.0, size=(6, 8))
        problems = [pretrain_problem(spec, 1, "h", x, stack.w[0], stack.h[0]),
                    pretrain_problem(spec, 1, "w", x, stack.w[0], stack.h[0]),
                    finetune_problem(spec, 2, "w", x, stack),
                    finetune_problem(spec, 2, "h", x, stack)]
        for problem in problems:
            for _ in range(100):
                a = rng.uniform(0.0, 2.0, size=problem.lin.shape)
                b = rng.uniform(0.0, 2.0, size=problem.lin.shape)
                lhs = np.linalg.norm(problem.grad(a) - problem.grad(b))
                rhs = problem.lipschitz * np.linalg.norm(a - b)
                assert lhs <= rhs * (1 + 1e-9), variant
                checked += 1
    _report(9, f"{checked} random gradient-variation pairs bounded by their "
               "Lipschitz constants")


def test_criterion_10_reductions():
    # Single-layer, zero-penalty pipeline vs a standalone accelerated
    # alternation built from raw blocks, mirroring both stages.
    rng = np.random.default_rng(17)
    x = np.abs(rng.standard_normal((12, 18))) + 0.1
    cfg = TrainConfig(inner_stop=StopRule(2000, 1e-6), max_sweeps=150,
                      rel_obj_tol=1e-10)
    _, report = fit(make_spec("dnmf", (4,)), x, cfg)

    const = 0.5 * float(np.sum(x * x))

    def h_problem(w):
        gram = w.T @ w
        return ApgProblem(-(w.T @ x), float(np.linalg.eigvalsh(gram).max()),
                          left=gram, const=const)

    def w_problem(h):
        right = h @ h.T
        return ApgProblem(-(x @ h.T), float(np.linalg.eigvalsh(right).max()),
                          right=right, const=const)

    w, h = nnsvd_init(x, 4)
    prev = np.inf
    for _ in range(cfg.max_sweeps):
        h = apg_solve(h, h_problem(w), cfg.inner_stop)
        w = apg_solve(w, w_problem(h), cfg.inner_stop)
        cur = 0.5 * float(np.sum((x - w @ h) ** 2))
        if abs(prev - cur) / max(abs(prev), 1e-300) < cfg.rel_obj_tol:
            break
        prev = cur
    prev = 0.5 * float(np.sum((x - w @ h) ** 2))
    for _ in range(cfg.max_sweeps):
        w = apg_solve(w, w_problem(h), cfg.inner_stop)
        h = apg_solve(h, h_problem(w), cfg.inner_stop)
        cur = 0.5 * float(np.sum((x - w @ h) ** 2))
        if abs(prev - cur) / max(abs(prev), 1e-300) < cfg.rel_obj_tol:
            break
        prev = cur
    rel = abs(report.final_objective - cur) / max(abs(cur), 1e-300)
    assert rel <= 1e-8

    # Identity-activation chain gradients collapse onto the linear ones.
    stack = random_stack(rng, 6, (4, 3), 8)
    stack.h[0] = stack.w[1] @ stack.h[1]
    xx = rng.uniform(0.1, 1.0, size=(6, 8))
    nl = make_spec("sdnmf_rl2", (4, 3), mu=0.2, lam=0.3,
                   activation="identity")
    lin = make_spec("sdnmf_rl2", (4, 3), mu=0.2, lam=0.3)
    g_h = representation_gradient(nl, xx, stack)
    lin_h = finetune_problem(lin, 2, "h", xx, stack).grad(stack.h[-1])
    gap_h = np.abs(g_h - lin_h).max() / max(np.abs(lin_h).max(), 1.0)
    g_w = basis_gradient(nl, xx, stack, 2)
    lin_w = finetune_problem(lin, 2, "w", xx, stack).grad(stack.w[1])
    gap_w = np.abs(g_w - lin_w).max() / max(np.abs(lin_w).max(), 1.0)
    assert gap_h <= 1e-12
    assert gap_w <= 1e-12
    _report(10, f"single-layer objective gap {rel:.2e} <= 1e-8; identity-"
                f"activation gradient gaps {gap_h:.2e}, {gap_w:.2e} <= 1e-12")


def test_criterion_11_determinism_across_runs_and_threads(tmp_path, monkeypatch):
    outputs = []
    for run, threads in ((0, "1"), (1, "4"), (2, "1")):
        monkeypatch.setenv("DEEPNMF_THREADS", threads)
        cfg = ExperimentConfig(
            model=make_spec("sdnmf_l", (4, 2), mu=0.1),
            train=TrainConfig(inner_stop=StopRule(100, 1e-4), max_sweeps=8,
                              rel_obj_tol=1e-7),
            eval=EvalConfig(kmeans_restarts=2, model_reps=2, kmeans_reps=2,
                            seed=42),
            data={"kind": "planted_linear", "rows": 12, "cols": 30,
                  "layer_sizes": (4, 2), "classes": 2, "noise": 0.01,
                  "seed": 8},
            output_dir=str(tmp_path / f"out{run}"),
            sweep=SweepAxes(mu=(0.0, 0.1)),
        )
        run_experiment(cfg)
        summary = (tmp_path / f"out{run}" / "summary.csv").read_bytes()
        with open(tmp_path / f"out{run}" / "records.csv", newline="") as fh:
            table = list(csvmod.reader(fh))
        wall = table[0].index("wall_ms")
        records = [row[:wall] + row[wall + 1:] for row in table]
        outputs.append((summary, records))
    assert outputs[0] == outputs[1] == outputs[2]
    _report(11, "summary.csv byte-identical and records.csv identical modulo "
                "wall clock across reruns and DEEPNMF_THREADS in {1, 4}")
