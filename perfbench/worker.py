"""One benchmark process: set up a workload, run its timed loop, check outputs.

Started by ``run.py`` with one BLAS thread; prints one JSON object as the
last line of its standard output. ``--mode setup`` stops at the first timed
call and reports only the set-up time.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from deepnmf import kernels  # noqa: E402

KERNEL_ITERS = 100
KERNEL_REPEATS = 3


def git_commit(root):
    """Commit of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba_enabled": kernels.NUMBA_ENABLED,
        "kernel_path": "numba" if kernels.NUMBA_ENABLED else "numpy",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "deepnmf_threads": os.environ.get("DEEPNMF_THREADS"),
        "commit": git_commit(ROOT),
    }


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def run_checked(wl, idx, tally, reference, tracer=None):
    """Run one operation, inside an operation span when ``tracer`` is given;
    returns (wall seconds, output or None)."""
    start = time.perf_counter()
    try:
        with tracer.span("bench.op", "bench") if tracer else nullcontext():
            out = wl.run(idx)
    except Exception as exc:  # a raised fit counts as a failed operation
        tally.record([f"{type(exc).__name__}: {exc}"])
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None
    wall = time.perf_counter() - start
    problems = wl.check(idx, out)
    fp = wl.fingerprint(out)
    if reference.setdefault(idx, fp) != fp:
        problems.append(f"instance {idx} not reproduced bit for bit")
    tally.record(problems)
    return wall, out


def timed_loop(wl, seconds, tally):
    """Closed loop, one client: cycle the instances until the next operation
    would end past the deadline, always completing one full pass."""
    n = len(wl.instances)
    walls = []
    quality = {}
    reference = {}
    deadline = time.perf_counter() + seconds
    k = 0
    while k < n or (time.perf_counter() + statistics.median(walls or [0.0])
                    <= deadline):
        idx = k % n
        wall, out = run_checked(wl, idx, tally, reference)
        if out is not None:
            walls.append(wall)
            quality.setdefault(idx, wl.quality(idx, out))
        k += 1
    return {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "final_objective": _mean(q["final_objective"] for q in quality.values()),
        "nmi": _mean(q["nmi"] for q in quality.values()),
    }


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def traced_loop(wl, seconds, tally, run_id):
    """Alternate an untraced and a traced operation on each instance until
    the deadline (at least one pair); returns medians of the per-operation
    layer metrics, and the tracer whose spans the caller writes out."""
    tracer = tracing.Tracer(run_id)
    n = len(wl.instances)
    per_op, ratios, pair_walls = [], [], []
    reference = {}
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or (time.perf_counter() + statistics.median(pair_walls)
                     <= deadline):
        idx = k % n
        k += 1
        plain_wall, plain = run_checked(wl, idx, tally, reference)
        tracer.counts.clear()
        mark = len(tracer.spans)
        tracing.instrument(tracer, workloads.PACKAGE)
        try:
            traced_wall, traced = run_checked(wl, idx, tally, reference, tracer)
        finally:
            tracer.unpatch()
        pair_walls.append(plain_wall + traced_wall)
        if plain is None or traced is None:
            continue
        spans = tracer.spans[mark:]
        per_op.append(tracing.op_metrics(spans, tracer.counts, spans[-1]))
        ratios.append(traced_wall / plain_wall)
    metrics = {name: statistics.median([m[name] for m in per_op]) if per_op
               else 0.0 for name, _, _ in spec.PER_LAYER}
    metrics["trace.overhead_ratio"] = statistics.median(ratios) if ratios else 0.0
    metrics.update(kernel_metrics())
    return metrics, tracer


def _best_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def kernel_metrics():
    """Fixed-shape kernel cases on the active kernel path: microseconds per
    APG iteration per block shape, per power iteration, and milliseconds per
    k-means assignment pass."""
    rng = np.random.default_rng(0)
    out = {}
    for name, rows, cols, left_dim, right_dim in spec.KERNEL_CASES:
        left = right = None
        lc = 1.0
        if left_dim:
            a = rng.uniform(size=(2 * left_dim, left_dim))
            left = a.T @ a
            lc *= float(np.linalg.eigvalsh(left).max())
        if right_dim:
            b = rng.uniform(size=(right_dim, 2 * right_dim))
            right = b @ b.T
            lc *= float(np.linalg.eigvalsh(right).max())
        # The block's minimiser is ``target`` and its objective is >= 0, so
        # the kernel's divergence guard stays quiet at every shape.
        target = rng.uniform(size=(rows, cols))
        op_target = target
        if left is not None:
            op_target = left @ op_target
        if right is not None:
            op_target = op_target @ right
        lin = -op_target
        const = 0.5 * float(np.sum(target * op_target))
        v0 = rng.uniform(size=(rows, cols))
        # rel_tol 0 runs the whole iteration budget.
        secs, res = _best_time(lambda: kernels.apg_quad_solve(
            v0, left, right, lin, 0.0, 0.0, const, lc, 0.0, KERNEL_ITERS),
            KERNEL_REPEATS)
        out[f"kernels.us_per_iter.{name}"] = 1e6 * secs / max(int(res[1]), 1)

    a = rng.standard_normal((60, 60))
    gram = a @ a.T
    v0 = np.full(60, 1.0 / np.sqrt(60))
    secs, res = _best_time(lambda: kernels.sym_top_eig(gram, v0, 0.0, 2000),
                           KERNEL_REPEATS)
    out["kernels.eig_us_per_iter.60x60"] = 1e6 * secs / max(int(res[1]), 1)

    pts = rng.standard_normal((2000, 40))
    centers = rng.standard_normal((12, 40))
    secs, _ = _best_time(lambda: kernels.kmeans_assign(pts, centers), 5)
    out["kernels.kmeans_assign_ms"] = 1e3 * secs
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "reduced"), default="full")
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before launch")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(workloads.experiment.__file__).resolve().parents:
        raise SystemExit(f"deepnmf was not imported from {src}")
    wl = workloads.build(args.workload, args.seed, args.size, args.workdir)
    warm = workloads.build(args.workload, 0, "reduced",
                           Path(args.workdir) / "warm")
    warm.check(0, warm.run(0))
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tally = Tally()
    spans_path = None
    if args.trace:
        run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
        metrics, tracer = traced_loop(wl, args.seconds, tally, run_id)
        spans_path = Path(args.workdir) / "spans.jsonl"
        tracer.dump(spans_path)
    else:
        metrics = timed_loop(wl, args.seconds, tally)
    for problems in wl.post_checks():
        tally.record(problems)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps({
        "setup_s": setup_s, "metrics": metrics, "attempted": tally.attempted,
        "failed": tally.failed, "problems": tally.problems,
        "spans": str(spans_path) if spans_path else None,
        "provenance": provenance(args),
    }))


if __name__ == "__main__":
    main()
