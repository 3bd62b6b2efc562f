"""The benchmark's contract: workloads and metric names, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module:

    python3 perfbench/spec.py > BENCHMARK.json

and ``perfbench/tests`` checks that the committed file still matches.
"""

import json

RUN_SECONDS = 36

WORKLOADS = [
    ("fit_wide", "200x1000 sdnmf_l (40,10): samples outnumber features, so H "
                 "blocks and the hidden-H fine-tune solves dominate"),
    ("fit_tall", "1000x200 sdnmf_rl2 (40,20,10): features outnumber samples, so "
                 "W blocks, two-sided products and prefix grams dominate"),
    ("sweep_score", "50x5000 bundle swept over linear;root with 2 workers: "
                    "k-means, error rate and the nonlinear path dominate"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("final_objective", "ratio", "lower", 0.24),
    ("nmi", "score", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
]

PHASES = ("pretrain", "finetune")
ROLES = ("w", "h")
DEPTH = 3
APG_FIELDS = [("solves", "count"), ("iters", "count"), ("cap_hits", "count"),
              ("solve_s", "s"), ("us_per_iter", "us")]

LAYERS = ("train", "apg", "models", "linalg", "nnsvd", "nonlinear", "metrics",
          "experiment", "dataio")

# Fixed block shapes of the folded-in kernel cases: (name, v_rows, v_cols,
# left_dim or 0, right_dim or 0). The first five are blocks of the fit
# workloads, the last two the small and medium cases of the old kernel script.
KERNEL_CASES = [
    ("h40x1000", 40, 1000, 40, 0),
    ("h10x1000", 10, 1000, 10, 0),
    ("w200x40", 200, 40, 0, 40),
    ("w1000x40", 1000, 40, 0, 40),
    ("w40x20.two_sided", 40, 20, 40, 20),
    ("h5x15", 5, 15, 5, 0),
    ("h30x150", 30, 150, 30, 0),
]


def _per_layer():
    out = []
    for phase in PHASES:
        for role in ROLES:
            for layer in range(1, DEPTH + 1):
                for field, unit in APG_FIELDS:
                    out.append((f"apg.{phase}.{role}{layer}.{field}", unit,
                                "lower"))
    out.append(("apg.converged_ratio", "ratio", "higher"))
    out += [
        ("train.pretrain_s", "s", "lower"),
        ("train.finetune_s", "s", "lower"),
        ("train.sweeps", "count", "lower"),
        ("nnsvd.init_s", "s", "lower"),
        ("models.problem_s", "s", "lower"),
        ("models.problems", "count", "lower"),
        ("linalg.lipschitz_s", "s", "lower"),
        ("linalg.lipschitz_calls", "count", "lower"),
    ]
    out += [(f"kernels.us_per_iter.{name}", "us", "lower")
            for name, *_ in KERNEL_CASES]
    out += [
        ("kernels.eig_us_per_iter.60x60", "us", "lower"),
        ("kernels.kmeans_assign_ms", "ms", "lower"),
        ("nonlinear.finetune_s", "s", "lower"),
        ("nonlinear.objective_evals", "count", "lower"),
        ("nonlinear.gradient_s", "s", "lower"),
        ("nonlinear.stalled", "count", "lower"),
        ("metrics.kmeans_s", "s", "lower"),
        ("metrics.kmeans_calls", "count", "lower"),
        ("metrics.error_rate_s", "s", "lower"),
        ("metrics.nmi_s", "s", "lower"),
        ("metrics.np_s", "s", "lower"),
        ("metrics.er", "score", "lower"),
        ("experiment.units", "count", "higher"),
        ("experiment.busy_s", "s", "lower"),
        ("experiment.queue_wait_s", "s", "lower"),
        ("experiment.pool_efficiency", "ratio", "higher"),
        ("experiment.unit_errors", "count", "lower"),
        ("dataio.load_s", "s", "lower"),
    ]
    out += [(f"self_s.{layer}", "s", "lower") for layer in LAYERS]
    out += [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.uncovered_ratio", "ratio", "lower"),
    ]
    return out


PER_LAYER = _per_layer()


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
