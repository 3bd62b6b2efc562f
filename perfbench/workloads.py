"""Seeded workload inputs, the timed operation of each workload, and the
checks on its outputs.

A workload run draws ``instances`` independent problems from its seed and
cycles through them. Quality metrics are the mean over the first pass, so
they do not depend on how many operations fit in the run; ``wall_s`` is the
median over all operations of the run.
"""

import math
import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from deepnmf import dataio, experiment, metrics, models, nonlinear, synth, train
from deepnmf.apg import StopRule

# Module namespace handed to the tracer; the timed operations call the
# package through these module attributes so the tracer's wrappers apply.
PACKAGE = SimpleNamespace(train=train, models=models, nonlinear=nonlinear,
                          experiment=experiment, metrics=metrics)


@dataclass(frozen=True)
class FitShape:
    rows: int
    cols: int
    planted: tuple
    classes: int
    variant: str
    layers: tuple
    mu: float
    lam: float
    max_sweeps: int
    inner_iters: int
    instances: int
    kmeans_reps: int = 4
    kmeans_restarts: int = 5
    noise: float = 0.01


@dataclass(frozen=True)
class SweepShape:
    rows: int
    cols: int
    planted: tuple
    classes: int
    layers: tuple
    mu: float
    max_sweeps: int
    inner_iters: int
    model_reps: int
    kmeans_reps: int
    kmeans_restarts: int
    instances: int = 1
    noise: float = 0.01
    activations: tuple = ("linear", "root")


SHAPES = {
    "full": {
        "fit_wide": FitShape(200, 1000, (40, 10), 10, "sdnmf_l", (40, 10),
                             0.1, 0.0, max_sweeps=10, inner_iters=500,
                             instances=3),
        "fit_tall": FitShape(1000, 200, (40, 20, 10), 10, "sdnmf_rl2",
                             (40, 20, 10), 0.1, 0.1, max_sweeps=10,
                             inner_iters=500, instances=3),
        "sweep_score": SweepShape(50, 5000, (20, 10), 10, (20, 10), 0.1,
                                  max_sweeps=3, inner_iters=100, model_reps=2,
                                  kmeans_reps=8, kmeans_restarts=5,
                                  instances=3),
    },
    "reduced": {
        "fit_wide": FitShape(40, 120, (8, 4), 4, "sdnmf_l", (8, 4), 0.1, 0.0,
                             max_sweeps=2, inner_iters=50, instances=2),
        "fit_tall": FitShape(120, 40, (8, 6, 4), 4, "sdnmf_rl2", (8, 6, 4),
                             0.1, 0.1, max_sweeps=2, inner_iters=50,
                             instances=2),
        "sweep_score": SweepShape(20, 300, (8, 4), 4, (8, 4), 0.1,
                                  max_sweeps=2, inner_iters=30, model_reps=2,
                                  kmeans_reps=2, kmeans_restarts=2),
    },
}

def substream(seed, *parts):
    return int(np.random.SeedSequence([abs(int(seed)), *parts])
               .generate_state(1)[0])


def reference_error_rate(c, c_star):
    """Closed form of ``metrics.error_rate``: the squared Frobenius norm of
    the co-membership difference is sum(|A|^2) + sum(|B|^2) - 2 sum(n_ij^2)
    over cluster sizes and confusion counts, an exact integer, so both
    square roots round identically to the program's n-by-n computation."""
    counts = metrics.confusion_matrix(c, c_star)
    same = int((counts.sum(axis=0) ** 2).sum())
    same_star = int((counts.sum(axis=1) ** 2).sum())
    both = int((counts ** 2).sum())
    return math.sqrt(math.sqrt(float(same + same_star - 2 * both)))


def _bundle(seed, shape):
    return synth.synth_generate("planted_linear", seed, rows=shape.rows,
                                cols=shape.cols, layer_sizes=shape.planted,
                                classes=shape.classes, noise=shape.noise)


def _zero_objective(x):
    """Objective of all-zero factors, 0.5 * ||X||_F^2, the scale that makes
    objectives comparable across seeds."""
    return 0.5 * float(np.dot(x.ravel(), x.ravel()))


class FitWorkload:
    """fit on an in-memory matrix, then ``kmeans_reps`` k-means runs on H_L,
    each scored by nmi, error_rate and naive_precision."""

    def __init__(self, shape, seed):
        self.shape = shape
        self.spec = models.make_spec(shape.variant, shape.layers, mu=shape.mu,
                                     lam=shape.lam or None)
        self.cfg = train.TrainConfig(
            inner_stop=StopRule(shape.inner_iters, 1e-4),
            max_sweeps=shape.max_sweeps, rel_obj_tol=1e-6)
        self.instances = []
        for i in range(shape.instances):
            bundle = _bundle(substream(seed, i), shape)
            self.instances.append(SimpleNamespace(
                x=bundle.x, labels=bundle.labels,
                kseed=substream(seed, i, 1), scale=_zero_objective(bundle.x)))

    def run(self, i):
        inst = self.instances[i]
        stack, report = PACKAGE.train.fit(self.spec, inst.x, self.cfg)
        scores = []
        for rep in range(self.shape.kmeans_reps):
            part = PACKAGE.metrics.kmeans(stack.h[-1], self.shape.classes,
                                          restarts=self.shape.kmeans_restarts,
                                          seed=substream(inst.kseed, rep))
            scores.append(SimpleNamespace(
                partition=part, nmi=PACKAGE.metrics.nmi(part, inst.labels),
                er=PACKAGE.metrics.error_rate(part, inst.labels),
                np=PACKAGE.metrics.naive_precision(part, inst.labels)))
        return SimpleNamespace(stack=stack, report=report, scores=scores)

    def check(self, i, out):
        """Problems with one output, as a list of messages."""
        inst = self.instances[i]
        bad = []
        for m in out.stack.w + out.stack.h:
            if not np.all(np.isfinite(m)) or m.min() < 0:
                bad.append("factor not finite and nonnegative")
                break
        trace = out.report.objective_trace
        # Same margin the trainer itself allows for roundoff between sweeps.
        if any(b > a * (1.0 + 1e-10) for a, b in zip(trace, trace[1:])):
            bad.append("objective trace rises")
        for sc in out.scores:
            if not -1e-12 <= sc.nmi <= 1.0 + 1e-12:  # roundoff of the log ratios
                bad.append(f"nmi {sc.nmi} outside [0, 1]")
            if sc.er != reference_error_rate(sc.partition, inst.labels):
                bad.append("error_rate differs from its closed form")
        return bad

    def fingerprint(self, out):
        """Everything two runs of one instance must reproduce bit for bit."""
        arrays = [m.tobytes() for m in out.stack.w + out.stack.h]
        return (tuple(arrays), tuple(out.report.objective_trace),
                tuple((sc.nmi, sc.er) for sc in out.scores))

    def quality(self, i, out):
        return {"final_objective": out.report.final_objective
                / self.instances[i].scale,
                "nmi": statistics.fmean(sc.nmi for sc in out.scores)}

    def post_checks(self):
        """Problem lists of the checks made once after the timed loop."""
        return []


class SweepWorkload:
    """One run_experiment over a pre-generated bundle, CSV and JSON included."""

    def __init__(self, shape, seed, workdir):
        self.shape = shape
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.instances = []
        for i in range(shape.instances):
            bundle = _bundle(substream(seed, i), shape)
            path = self.workdir / f"bundle{i}.bin"
            dataio.save_bundle(path, bundle)
            self.instances.append(SimpleNamespace(
                path=path, scale=_zero_objective(bundle.x),
                eval_seed=substream(seed, i, 1)))

    def config(self, i, outdir):
        shape = self.shape
        inst = self.instances[i]
        return experiment.ExperimentConfig(
            model=models.make_spec("sdnmf_l", shape.layers, mu=shape.mu),
            train=train.TrainConfig(
                inner_stop=StopRule(shape.inner_iters, 1e-4),
                max_sweeps=shape.max_sweeps, rel_obj_tol=1e-6),
            eval=experiment.EvalConfig(
                kmeans_restarts=shape.kmeans_restarts,
                model_reps=shape.model_reps, kmeans_reps=shape.kmeans_reps,
                seed=inst.eval_seed),
            data={"path": str(inst.path)}, output_dir=str(outdir),
            sweep=experiment.SweepAxes(activation=shape.activations))

    def run(self, i):
        outdir = self.workdir / f"sweep{i}"
        rows, _ = PACKAGE.experiment.run_experiment(self.config(i, outdir))
        return SimpleNamespace(rows=rows,
                               summary_csv=(outdir / "summary.csv").read_bytes())

    def check(self, i, out):
        shape = self.shape
        bad = []
        expected = len(shape.activations) * shape.model_reps * shape.kmeans_reps
        errors = [r for r in out.rows if r.get("error")]
        if errors:
            bad.append(f"{len(errors)} error rows, first {errors[0]['error']}")
        elif len(out.rows) != expected:
            bad.append(f"{len(out.rows)} rows, expected {expected}")
        for r in out.rows:
            vals = [r.get(k) for k in ("nmi", "er", "final_objective")]
            if any(v is None or not math.isfinite(v) for v in vals):
                bad.append("row with a missing or non-finite score")
                break
        return bad

    def fingerprint(self, out):
        return out.summary_csv

    def quality(self, i, out):
        units = {(r["point"], r["model_rep"]): r["final_objective"]
                 for r in out.rows}
        scale = self.instances[i].scale
        return {"final_objective": float(np.mean(list(units.values()))) / scale,
                "nmi": float(np.mean([r["nmi"] for r in out.rows]))}

    def post_checks(self):
        """summary.csv of a reduced sweep must not depend on the worker count."""
        tiny = SweepWorkload(SHAPES["reduced"]["sweep_score"],
                             substream(self.seed, 7), self.workdir / "threads")
        saved = os.environ.get("DEEPNMF_THREADS")
        outputs = []
        try:
            for threads in ("1", "2"):
                os.environ["DEEPNMF_THREADS"] = threads
                outdir = tiny.workdir / f"t{threads}"
                experiment.run_experiment(tiny.config(0, outdir))
                outputs.append((outdir / "summary.csv").read_bytes())
        finally:
            if saved is None:
                os.environ.pop("DEEPNMF_THREADS", None)
            else:
                os.environ["DEEPNMF_THREADS"] = saved
        if outputs[0] != outputs[1]:
            return [["summary.csv differs between DEEPNMF_THREADS=1 and 2"]]
        return [[]]


def build(name, seed, size, workdir):
    shape = SHAPES[size][name]
    if name == "sweep_score":
        return SweepWorkload(shape, seed, workdir)
    return FitWorkload(shape, seed)
