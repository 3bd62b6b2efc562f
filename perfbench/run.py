#!/usr/bin/env python3
"""deepnmf benchmark.

    python3 perfbench/run.py --workload fit_wide --seed 1 --seconds 36 --trace 0

Runs one seeded workload on the numpy kernel path and prints, as the last
line of standard output, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of ``spec.END_TO_END``; ``--trace 1`` reports the
per-layer metrics of ``spec.PER_LAYER`` from a separate traced run.

The timed work runs in a child process (``worker.py``) with one BLAS thread
and DEEPNMF_THREADS=2 only on ``sweep_score``, so no run uses more compute
threads than the two CPUs it was tuned on. Before the measured child, the
untraced run starts ``SETUP_PROBES`` set-up-only children; ``setup_s`` is
the median over all of them. Scratch files go under ``.bench_build/`` in
the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 3
TIME_LIMIT_S = 170


def launch(args, mode, workdir, deadline):
    """Run one worker child to completion; returns its parsed JSON line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", DEEPNMF_NO_NUMBA="1",
               DEEPNMF_THREADS="2" if args.workload == "sweep_score" else "1")
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--mode", mode,
           "--t0", repr(t0), "--workdir", str(workdir)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    names = [name for name, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "reduced"), default="full",
                        help="reduced runs every workload on small inputs "
                             "(for the benchmark's own tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "deepnmf" / "__init__.py").is_file():
        print(f"no deepnmf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_build" / "perfbench" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{args.size}")
    shutil.rmtree(workdir, ignore_errors=True)

    setups = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            probe_dir = workdir / f"probe{k}"
            setups.append(launch(args, "setup", probe_dir, deadline)["setup_s"])
            shutil.rmtree(probe_dir)
    res = launch(args, "run", workdir / "run", deadline)
    setups.append(res["setup_s"])

    measured = dict(res["metrics"], setup_s=statistics.median(setups),
                    ok_ratio=(res["attempted"] - res["failed"]) / res["attempted"])
    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {entry[0]: {"value": measured[entry[0]], "unit": entry[1]}
               for entry in table}
    correct = res["failed"] == 0
    record = {"provenance": res["provenance"], "setup_samples_s": setups,
              "problems": res["problems"], "spans": res["spans"],
              "correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    for problem in res["problems"]:
        print(f"FAILED CHECK: {problem}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
