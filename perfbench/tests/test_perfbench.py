"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from deepnmf import metrics, train  # noqa: E402

SECOND_SEED = 11


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


@pytest.mark.parametrize("name", ["fit_tall", "sweep_score"])
def test_traced_run_is_bit_identical_to_untraced(name, tmp_path):
    wl = workloads.build(name, SECOND_SEED, "reduced", tmp_path)
    plain = wl.run(0)
    tracer = tracing.Tracer("test")
    original_fit = train.fit
    tracing.instrument(tracer, workloads.PACKAGE)
    try:
        with tracer.span("bench.op", "bench"):
            traced = wl.run(0)
    finally:
        tracer.unpatch()
    assert train.fit is original_fit
    assert wl.fingerprint(traced) == wl.fingerprint(plain)
    if name == "fit_tall":
        assert traced.report.objective_trace == plain.report.objective_trace
        assert [(sc.nmi, sc.er) for sc in traced.scores] == [
            (sc.nmi, sc.er) for sc in plain.scores]

    m = tracing.op_metrics(tracer.spans, tracer.counts, tracer.spans[-1])
    assert set(m) == {n for n, _, _ in spec.PER_LAYER}
    assert m["apg.finetune.h1.solves"] > 0
    assert m["models.problems"] > 0 and m["linalg.lipschitz_calls"] > 0
    assert m["metrics.kmeans_calls"] > 0
    assert 0.0 <= m["trace.uncovered_ratio"] < 0.5
    if name == "fit_tall":
        assert m["apg.pretrain.w3.solves"] > 0
    else:
        assert m["experiment.units"] == 4
        assert m["nonlinear.objective_evals"] > 0
        assert m["dataio.load_s"] > 0


def test_self_time_subtracts_covered_child_time():
    S = tracing.Span
    spans = [S(1, None, "a", "train", 0.0, 10.0, 0, "r"),
             S(2, 1, "b", "apg", 1.0, 4.0, 0, "r"),
             S(3, 1, "c", "apg", 3.0, 6.0, 1, "r"),  # overlaps b
             S(4, 3, "d", "linalg", 5.0, 5.5, 1, "r")]
    selfs = tracing.self_times(spans)
    assert selfs["train"] == pytest.approx(5.0)
    assert selfs["apg"] == pytest.approx(3.0 + 2.5)
    assert selfs["linalg"] == pytest.approx(0.5)


def test_reference_error_rate_is_bit_identical():
    rng = np.random.default_rng(0)
    for n, k in [(50, 3), (200, 7), (31, 1)]:
        a = metrics.Partition(rng.integers(0, k, n), k)
        b = metrics.Partition(rng.integers(0, k, n), k)
        assert workloads.reference_error_rate(a, b) == metrics.error_rate(a, b)
        assert workloads.reference_error_rate(a, a) == metrics.error_rate(a, a)


@pytest.mark.parametrize("name", [n for n, _ in spec.WORKLOADS])
def test_workload_runs_reduced_on_second_seed(name):
    for trace, table in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        proc = run_bench("--workload", name, "--seed", str(SECOND_SEED),
                         "--seconds", "1", "--trace", str(trace),
                         "--size", "reduced")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {entry[0] for entry in table}
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "fit_wide", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
