"""Experiment configuration, sweep expansion, and the run/score/export loop.

A config file is flat ``key = value`` text with dotted keys (see the README
for the full key list). One experiment is a cross-product of sweep axes over
a base model, each point built by :func:`deepnmf.models.make_spec` from
the base's settings and the point's values. Every (sweep point, model
repetition) trains a model, and :func:`score_partitions` clusters the final
representation several times and scores each partition against the
bundle's labels. Results land in ``records.csv`` (one row per k-means
repetition, with wall time), ``summary.csv`` (per-point aggregates, no
timing, byte-reproducible for a fixed seed), and ``summary.json``.

The worker pool size is capped by the ``DEEPNMF_THREADS`` environment
variable; outputs are ordered by (point, repetition) regardless of the pool
size or completion order, so parallelism never changes the files.
"""

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .activations import ACTIVATIONS
from .apg import StopRule
from .dataio import (MODEL_KEYS, load_bundle, nonneg_float, one_of, parse_bool,
                     parse_entry, parse_sizes, positive_float, positive_int,
                     read_flat_config, read_spec, save_factors)
from .errors import DataFormatError, InvalidInputError
from .metrics import error_rate, kmeans, naive_precision, nmi
from .models import ModelSpec, make_spec, penalized_factors
from .synth import KINDS, synth_generate
from .train import TrainConfig, fit

RECORD_FIELDS = (
    "point", "model_rep", "kmeans_rep", "variant", "layer_sizes", "mu",
    "lambda", "activation", "nmi", "er", "np",
    "final_objective", "sweeps_used", "wall_ms", "error",
)
_STAT_NAMES = ("mean", "std", "min", "max")
# The dataset settings of ``data.*`` config keys and ``synth`` flags, and their
# parsers; all but ``path``, ``kind`` and ``seed`` are synth_generate keywords.
DATA_KEYS = {"path": str, "kind": one_of(KINDS), "seed": int, "rows": positive_int,
             "cols": positive_int, "classes": positive_int,
             "layer_sizes": parse_sizes, "noise": nonneg_float,
             "separation": nonneg_float, "activation": one_of(tuple(ACTIVATIONS))}


@dataclass(frozen=True)
class EvalConfig:
    kmeans_restarts: int = 5
    model_reps: int = 3
    kmeans_reps: int = 5
    seed: int = 0
    k: Optional[int] = None

    def __post_init__(self):
        for name in ("kmeans_restarts", "model_reps", "kmeans_reps"):
            if getattr(self, name) < 1:
                raise InvalidInputError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.k is not None and self.k < 1:
            raise InvalidInputError(f"k must be None or >= 1, got {self.k}")


@dataclass(frozen=True)
class SweepAxes:
    """Optional value lists; absent axes keep the base model's setting."""

    layer_sizes: Optional[tuple] = None
    mu: Optional[tuple] = None
    lam: Optional[tuple] = None
    activation: Optional[tuple] = None
    cap: int = 512


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    train: TrainConfig
    eval: EvalConfig
    data: dict
    output_dir: str
    sweep: SweepAxes = field(default_factory=SweepAxes)
    dump_factors: bool = False


def worker_count():
    """Worker pool size, capped by the DEEPNMF_THREADS environment variable."""
    raw = os.environ.get("DEEPNMF_THREADS", "1")
    try:
        return positive_int(raw)
    except ValueError:
        raise InvalidInputError(
            f"DEEPNMF_THREADS = {raw!r}: must be a positive integer") from None


def draw_layer_structures(seed, draws, depth, last_size, lo=50, hi=600, p=0.02):
    """Randomized-ranked layer-size draws for structure search.

    Hidden sizes come from a truncated geometric distribution on [lo, hi]
    and are sorted descending so lower layers stay at least as wide as
    higher ones; the final size is fixed.
    """
    if depth < 1:
        raise InvalidInputError(f"depth must be >= 1, got {depth}")
    if draws < 0:
        raise InvalidInputError(f"draws must be >= 0, got {draws}")
    if lo > hi:
        raise InvalidInputError(f"need lo <= hi, got lo={lo}, hi={hi}")
    if not 0 < p <= 1:
        raise InvalidInputError(f"p must be in (0, 1], got {p}")
    rng = np.random.default_rng([abs(int(seed)), 0x57EB])
    out = []
    for _ in range(draws):
        hidden = [min(lo + int(rng.geometric(p)) - 1, hi) for _ in range(depth - 1)]
        hidden.sort(reverse=True)
        out.append(tuple(max(h, last_size) for h in hidden) + (last_size,))
    return out


def resolve_bundle(data):
    """Load or generate the dataset named by the ``data.*`` config keys
    (values as ``DATA_KEYS`` parses them)."""
    if data.get("path"):
        return load_bundle(data["path"])
    kind = data.get("kind")
    if not kind:
        raise InvalidInputError("config needs either data.path or data.kind")
    kwargs = {key: value for key, value in data.items()
              if key not in ("path", "kind", "seed")}
    return synth_generate(kind, data.get("seed", 0), **kwargs)


def sweep_points(cfg):
    """Expand the sweep axes into a list of ModelSpec overrides dicts."""
    axes = []
    for name in ("layer_sizes", "mu", "lam", "activation"):
        values = getattr(cfg.sweep, name)
        axes.append([(name, v) for v in values] if values else [(name, None)])
    points = []
    for combo in product(*axes):
        points.append({name: value for name, value in combo if value is not None})
    if len(points) > cfg.sweep.cap:
        raise InvalidInputError(
            f"sweep cross-product has {len(points)} points, cap is {cfg.sweep.cap}")
    return points


def _spec_for_point(base, overrides):
    """The base model with one sweep point's overrides. A point of another
    depth takes, for each weight it does not set, the one weight the base
    puts on every factor its variant penalizes, and fails when those differ.
    """
    layer_sizes = overrides.get("layer_sizes", base.layer_sizes)
    masks = dict(zip(("mu", "lam"), penalized_factors(base.variant, base.depth)))
    weights = {name: overrides.get(name, getattr(base, name)) for name in masks}
    for name, on in masks.items():
        if name in overrides or len(layer_sizes) == base.depth:
            continue
        single = {v for v, a in zip(weights[name], on) if a}
        if len(single) > 1:
            raise InvalidInputError(
                f"base {name} {weights[name]} differs across layers; a point "
                f"of depth {len(layer_sizes)} has no single weight to inherit")
        weights[name] = single.pop() if single else None
    return make_spec(base.variant, layer_sizes,
                     activation=overrides.get("activation", base.activation),
                     **weights)


def _point_meta(base, overrides, spec):
    """Displayable config fields for one sweep point: its spec's, or for a
    point whose spec could not be built, the base's with its overrides."""
    if isinstance(spec, Exception):
        spec = SimpleNamespace(**{**vars(base), **overrides})
    return {
        "variant": spec.variant,
        "layer_sizes": "x".join(str(k) for k in spec.layer_sizes),
        "mu": ",".join(repr(float(v)) for v in np.atleast_1d(spec.mu)),
        "lambda": ",".join(repr(float(v)) for v in np.atleast_1d(spec.lam)),
        "activation": spec.activation,
    }


def _derived_seed(*parts):
    return int(np.random.SeedSequence([abs(int(p)) for p in parts]).generate_state(1)[0])


def score_partitions(h, labels, k, reps, restarts, *seed):
    """Cluster the columns of ``h`` into ``k`` groups (None: the label
    count) ``reps`` times and score each partition against ``labels``. Run
    ``rep`` seeds k-means from the parts ``seed`` followed by ``rep``.
    Returns one dict of ``nmi``, ``er`` and ``np`` per run; with ``labels``
    None, ``reps`` empty dicts and no clustering."""
    if labels is None:
        return [{} for _ in range(reps)]
    parts = [kmeans(h, k or labels.n_clusters, restarts=restarts,
                    seed=_derived_seed(*seed, rep)) for rep in range(reps)]
    return [{"nmi": nmi(part, labels), "er": error_rate(part, labels),
             "np": naive_precision(part, labels)} for part in parts]


def _run_unit(cfg, bundle, spec, meta, point_idx, rep):
    """Train once, cluster kmeans_reps times, emit one row per clustering."""
    base = dict(meta, point=point_idx, model_rep=rep)
    if isinstance(spec, Exception):
        return [dict(base, kmeans_rep=-1, error=type(spec).__name__)]
    t0 = time.perf_counter()
    try:
        stack, report = fit(spec, bundle.x, cfg.train)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        scores = score_partitions(stack.h[-1], bundle.labels, cfg.eval.k,
                                  cfg.eval.kmeans_reps,
                                  cfg.eval.kmeans_restarts, cfg.eval.seed,
                                  point_idx, rep)
        rows = [dict(base, kmeans_rep=krep, final_objective=report.final_objective,
                     sweeps_used=report.sweeps_used, wall_ms=wall_ms, error="",
                     **row_scores)
                for krep, row_scores in enumerate(scores)]
        if cfg.dump_factors:
            save_factors(Path(cfg.output_dir) / "factors" / f"p{point_idx}_r{rep}",
                         spec, stack, labels=bundle.labels)
        return rows
    except Exception as exc:  # record the failure, keep sweeping
        wall_ms = (time.perf_counter() - t0) * 1000.0
        return [dict(base, kmeans_rep=-1, wall_ms=wall_ms,
                     error=type(exc).__name__)]


def _fmt(value):
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def _summarize(points_meta, rows):
    summary = []
    for idx, meta in enumerate(points_meta):
        point_rows = [r for r in rows if r["point"] == idx and not r["error"]]
        entry = dict(point=idx, **meta, n_rows=len(point_rows),
                     n_errors=sum(1 for r in rows
                                  if r["point"] == idx and r["error"]))
        for metric in ("nmi", "er", "np", "final_objective", "sweeps_used"):
            vals = [r[metric] for r in point_rows if r.get(metric) is not None]
            if vals:
                arr = np.array(vals, dtype=np.float64)
                stats = (float(arr.mean()), float(arr.std()),
                         float(arr.min()), float(arr.max()))
            else:
                stats = (None, None, None, None)
            for stat_name, stat in zip(_STAT_NAMES, stats):
                entry[f"{metric}_{stat_name}"] = stat
        summary.append(entry)
    return summary


def run_experiment(cfg):
    """Execute the full sweep; returns (records, summary) after writing
    records.csv, summary.csv and summary.json under ``cfg.output_dir``."""
    bundle = resolve_bundle(cfg.data)
    samples = bundle.x.shape[1]
    if bundle.labels is not None and cfg.eval.k and cfg.eval.k > samples:
        raise InvalidInputError(
            f"eval.k = {cfg.eval.k} exceeds the {samples} samples of the data")
    points = sweep_points(cfg)
    specs = []
    for overrides in points:
        try:
            specs.append(_spec_for_point(cfg.model, overrides))
        except Exception as exc:  # recorded per point, the sweep continues
            specs.append(exc)
    points_meta = [_point_meta(cfg.model, p, s) for p, s in zip(points, specs)]
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        futures = [pool.submit(_run_unit, cfg, bundle, specs[idx],
                               points_meta[idx], idx, rep)
                   for idx in range(len(points))
                   for rep in range(cfg.eval.model_reps)]
        rows = [row for fut in futures for row in fut.result()]
    _write_csv(outdir / "records.csv", RECORD_FIELDS, rows)

    summary = _summarize(points_meta, rows)
    _write_csv(outdir / "summary.csv", list(summary[0]), summary)
    with open(outdir / "summary.json", "w") as fh:
        json.dump({"name": bundle.name, "points": summary}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return rows, summary


def _split_list(raw):
    return [part.strip() for part in raw.split(";") if part.strip()]


def _structure_args(raw):
    """The integer counts draws,depth,last[,lo,hi] and the optional float p
    of a ``sweep.structure`` value; ValueError when malformed."""
    parts = raw.split(",")
    if not 3 <= len(parts) <= 6:
        raise ValueError("needs draws,depth,last[,lo,hi,p]")
    return [int(e) for e in parts[:5]] + [float(e) for e in parts[5:]]


def parse_config(path):
    """Build an ExperimentConfig from a flat dotted-key config file."""
    raw = read_flat_config(path)

    def pop(key, default=None, parse=None):
        if key not in raw:
            return default
        value = raw.pop(key)
        return value if parse is None else parse_entry(path, key, value, parse)

    # An unknown data key stays in ``raw`` and is reported below.
    data = {name: pop(f"data.{name}", parse=parse)
            for name, parse in DATA_KEYS.items() if f"data.{name}" in raw}
    if "path" in data and len(data) > 1:
        other = next(name for name in data if name != "path")
        raise DataFormatError(f"{path}: give data.path or data.{other}, not both")
    model = read_spec(path, raw, "model.")

    train_cfg = TrainConfig(
        inner_stop=StopRule(
            max_iters=pop("train.inner_iters", StopRule.max_iters, positive_int),
            grad_tol=pop("train.inner_tol", StopRule.grad_tol, positive_float)),
        max_sweeps=pop("train.max_sweeps", TrainConfig.max_sweeps, positive_int),
        rel_obj_tol=pop("train.rel_obj_tol", TrainConfig.rel_obj_tol,
                        positive_float),
    )
    eval_cfg = EvalConfig(
        kmeans_restarts=pop("eval.kmeans_restarts", EvalConfig.kmeans_restarts,
                            positive_int),
        model_reps=pop("eval.model_reps", EvalConfig.model_reps, positive_int),
        kmeans_reps=pop("eval.kmeans_reps", EvalConfig.kmeans_reps, positive_int),
        seed=pop("eval.seed", EvalConfig.seed, int),
        k=pop("eval.k", parse=lambda v: positive_int(v) if v else None),
    )

    sweep_kwargs = {"cap": pop("sweep.cap", SweepAxes.cap, positive_int)}
    # draw_layer_structures raises InvalidInputError, a ValueError, so
    # parse_entry reports an out-of-range draw count, lo/hi or p too.
    structure = pop("sweep.structure", parse=lambda v: tuple(
        draw_layer_structures(eval_cfg.seed, *_structure_args(v))) if v else None)
    if structure is not None:
        sweep_kwargs["layer_sizes"] = structure
        if raw.get("sweep.layer_sizes"):
            raise DataFormatError(
                f"{path}: give sweep.layer_sizes or sweep.structure, not both")
    for name in ("layer_sizes", "mu", "lambda", "activation"):
        value = pop(f"sweep.{name}", parse=lambda v, p=MODEL_KEYS[name]: tuple(
            p(e) for e in _split_list(v)))
        if value is not None:
            sweep_kwargs["lam" if name == "lambda" else name] = value

    output_dir = pop("output_dir", "results")
    dump = pop("dump_factors", ExperimentConfig.dump_factors, parse_bool)
    if raw:
        raise DataFormatError(f"{path}: unknown config keys {sorted(raw)}")
    if not (data.get("path") or data.get("kind")):
        raise DataFormatError(f"{path}: config needs either data.path or data.kind")
    return ExperimentConfig(model=model, train=train_cfg, eval=eval_cfg,
                            data=data, output_dir=output_dir,
                            sweep=SweepAxes(**sweep_kwargs), dump_factors=dump)
