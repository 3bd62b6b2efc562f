"""Experiment configuration, sweep expansion, and the run/score/export loop.

A config file is flat ``key = value`` text with dotted keys (see the README
for the full key list). One experiment is a cross-product of sweep axes over
a base model; every (sweep point, model repetition) trains a model, clusters
the final representation several times, and scores each partition against
the bundle's labels. Results land in ``records.csv`` (one row per k-means
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
from typing import Optional

import numpy as np

from .apg import StopRule
from .dataio import (load_bundle, parse_entry, parse_sizes, parse_weights,
                     read_flat_config, save_factors)
from .errors import DataFormatError, InvalidInputError
from .metrics import error_rate, kmeans, naive_precision, nmi
from .models import ModelSpec, make_spec
from .synth import synth_generate
from .train import TrainConfig, fit

RECORD_FIELDS = (
    "point", "model_rep", "kmeans_rep", "variant", "layer_sizes", "mu",
    "lambda", "activation", "projection_mode", "nmi", "er", "np",
    "final_objective", "sweeps_used", "wall_ms", "error",
)
_STAT_NAMES = ("mean", "std", "min", "max")


@dataclass(frozen=True)
class EvalConfig:
    kmeans_restarts: int = 5
    model_reps: int = 3
    kmeans_reps: int = 5
    seed: int = 0
    k: Optional[int] = None


@dataclass(frozen=True)
class SweepAxes:
    """Optional value lists; absent axes keep the base model's setting."""

    layer_sizes: Optional[tuple] = None
    mu: Optional[tuple] = None
    lam: Optional[tuple] = None
    activation: Optional[tuple] = None
    projection_mode: Optional[tuple] = None
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
        return max(1, int(raw))
    except ValueError:
        raise InvalidInputError(f"DEEPNMF_THREADS must be an integer, got {raw!r}")


def draw_layer_structures(seed, draws, depth, last_size, lo=50, hi=600, p=0.02):
    """Randomized-ranked layer-size draws for structure search.

    Hidden sizes come from a truncated geometric distribution on [lo, hi]
    and are sorted descending so lower layers stay at least as wide as
    higher ones; the final size is fixed.
    """
    if depth < 1:
        raise InvalidInputError(f"depth must be >= 1, got {depth}")
    rng = np.random.default_rng([abs(int(seed)), 0x57EB])
    out = []
    for _ in range(draws):
        hidden = [min(lo + int(rng.geometric(p)) - 1, hi) for _ in range(depth - 1)]
        hidden.sort(reverse=True)
        out.append(tuple(max(h, last_size) for h in hidden) + (last_size,))
    return out


def resolve_bundle(data):
    """Load or generate the dataset named by the ``data.*`` config keys."""
    if data.get("path"):
        return load_bundle(data["path"])
    kind = data.get("kind")
    if not kind:
        raise InvalidInputError("config needs either data.path or data.kind")
    kwargs = {}
    for key in ("rows", "cols", "classes"):
        if key in data:
            kwargs[key] = int(data[key])
    if "layer_sizes" in data:
        kwargs["layer_sizes"] = parse_sizes(str(data["layer_sizes"]))
    for key in ("noise", "separation"):
        if key in data:
            kwargs[key] = float(data[key])
    if "activation" in data:
        kwargs["activation"] = data["activation"]
    return synth_generate(kind, int(data.get("seed", 0)), **kwargs)


def sweep_points(cfg):
    """Expand the sweep axes into a list of ModelSpec overrides dicts."""
    axes = []
    for name in ("layer_sizes", "mu", "lam", "activation", "projection_mode"):
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
    if not overrides:
        return base
    layer_sizes = overrides.get("layer_sizes", base.layer_sizes)
    activation = overrides.get("activation", base.activation)
    projection = overrides.get("projection_mode")
    if projection is None:
        same_act = activation == base.activation
        projection = base.projection_mode if same_act else None
    return make_spec(base.variant, layer_sizes,
                     mu=overrides.get("mu", base.mu if len(base.mu) == len(layer_sizes) else None),
                     lam=overrides.get("lam", base.lam if len(base.lam) == len(layer_sizes) else None),
                     activation=activation, projection_mode=projection)


def _point_meta(base, overrides, spec):
    """Displayable config fields for one sweep point; falls back to the raw
    override values when the spec itself could not be built."""
    if not isinstance(spec, Exception):
        return {
            "variant": spec.variant,
            "layer_sizes": "x".join(str(k) for k in spec.layer_sizes),
            "mu": ",".join(repr(v) for v in spec.mu),
            "lambda": ",".join(repr(v) for v in spec.lam),
            "activation": spec.activation,
            "projection_mode": spec.projection_mode,
        }

    def show(name, default):
        value = overrides.get(name, default)
        if isinstance(value, tuple):
            return "x".join(str(v) for v in value)
        return str(value)

    return {
        "variant": base.variant,
        "layer_sizes": show("layer_sizes", base.layer_sizes),
        "mu": show("mu", ",".join(repr(v) for v in base.mu)),
        "lambda": show("lam", ",".join(repr(v) for v in base.lam)),
        "activation": show("activation", base.activation),
        "projection_mode": show("projection_mode", base.projection_mode),
    }


def _derived_seed(*parts):
    return int(np.random.SeedSequence([abs(int(p)) for p in parts]).generate_state(1)[0])


def _run_unit(cfg, bundle, spec, meta, point_idx, rep):
    """Train once, cluster kmeans_reps times, emit one row per clustering."""
    base = dict(meta, point=point_idx, model_rep=rep)
    if isinstance(spec, Exception):
        return [dict(base, kmeans_rep=-1, error=type(spec).__name__)]
    t0 = time.perf_counter()
    try:
        stack, report = fit(spec, bundle.x, cfg.train)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        k = cfg.eval.k or (bundle.labels.n_clusters if bundle.labels
                           else spec.layer_sizes[-1])
        rows = []
        for krep in range(cfg.eval.kmeans_reps):
            part = kmeans(stack.h[-1], k, restarts=cfg.eval.kmeans_restarts,
                          seed=_derived_seed(cfg.eval.seed, point_idx, rep, krep))
            row = dict(base, kmeans_rep=krep, final_objective=report.final_objective,
                       sweeps_used=report.sweeps_used, wall_ms=wall_ms, error="")
            if bundle.labels is not None:
                row["nmi"] = nmi(part, bundle.labels)
                row["er"] = error_rate(part, bundle.labels)
                row["np"] = naive_precision(part, bundle.labels)
            rows.append(row)
        if cfg.dump_factors:
            save_factors(Path(cfg.output_dir) / "factors" / f"p{point_idx}_r{rep}",
                         spec, stack)
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
        entry = dict(meta, point=idx, n_rows=len(point_rows),
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

    tasks = [(idx, rep) for idx in range(len(points))
             for rep in range(cfg.eval.model_reps)]
    results = {}
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        futures = {(idx, rep): pool.submit(_run_unit, cfg, bundle, specs[idx],
                                           points_meta[idx], idx, rep)
                   for idx, rep in tasks}
        for key, fut in futures.items():
            results[key] = fut.result()

    rows = []
    for idx, rep in sorted(results):
        rows.extend(results[(idx, rep)])
    _write_csv(outdir / "records.csv", RECORD_FIELDS, rows)

    summary = _summarize(points_meta, rows)
    summary_fields = ["point"] + list(points_meta[0]) + ["n_rows", "n_errors"]
    for metric in ("nmi", "er", "np", "final_objective", "sweeps_used"):
        summary_fields += [f"{metric}_{s}" for s in _STAT_NAMES]
    _write_csv(outdir / "summary.csv", summary_fields, summary)
    with open(outdir / "summary.json", "w") as fh:
        json.dump({"name": bundle.name, "points": summary}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return rows, summary


def _split_list(raw):
    return [part.strip() for part in raw.split(";") if part.strip()]


def parse_config(path):
    """Build an ExperimentConfig from a flat dotted-key config file."""
    raw = read_flat_config(path)

    def pop(key, default=None, parse=None):
        value = raw.pop(key, default)
        if parse is None or value is None:
            return value
        return parse_entry(path, key, value, parse)

    data = {k.split(".", 1)[1]: v for k, v in list(raw.items())
            if k.startswith("data.")}
    for k in list(raw):
        if k.startswith("data."):
            raw.pop(k)

    layer_sizes = pop("model.layer_sizes", parse=parse_sizes)
    if layer_sizes is None:
        raise DataFormatError(f"{path}: missing model.layer_sizes")

    model = make_spec(pop("model.variant", "dnmf"), layer_sizes,
                      mu=pop("model.mu", parse=parse_weights),
                      lam=pop("model.lambda", parse=parse_weights),
                      activation=pop("model.activation", "linear"),
                      projection_mode=pop("model.projection_mode"))

    train_cfg = TrainConfig(
        inner_stop=StopRule(max_iters=pop("train.inner_iters", 500, int),
                            grad_tol=pop("train.inner_tol", 1e-4, float)),
        max_sweeps=pop("train.max_sweeps", 200, int),
        rel_obj_tol=pop("train.rel_obj_tol", 1e-6, float),
    )
    eval_cfg = EvalConfig(
        kmeans_restarts=pop("eval.kmeans_restarts", 5, int),
        model_reps=pop("eval.model_reps", 3, int),
        kmeans_reps=pop("eval.kmeans_reps", 5, int),
        seed=pop("eval.seed", 0, int),
        k=pop("eval.k", parse=lambda v: int(v) if v else None),
    )

    sweep_kwargs = {"cap": pop("sweep.cap", 512, int)}
    parts = pop("sweep.structure",
                parse=lambda v: [float(e) for e in v.split(",")] if v else None)
    if parts:
        if len(parts) < 3:
            raise DataFormatError(
                f"{path}: sweep.structure needs draws,depth,last[,lo,hi,p]")
        draws, depth, last = (int(parts[0]), int(parts[1]), int(parts[2]))
        lo = int(parts[3]) if len(parts) > 3 else 50
        hi = int(parts[4]) if len(parts) > 4 else 600
        p = float(parts[5]) if len(parts) > 5 else 0.02
        sweep_kwargs["layer_sizes"] = tuple(
            draw_layer_structures(eval_cfg.seed, draws, depth, last, lo, hi, p))
        if raw.get("sweep.layer_sizes"):
            raise DataFormatError(
                f"{path}: give sweep.layer_sizes or sweep.structure, not both")
    for key, name, parse in (("sweep.layer_sizes", "layer_sizes", parse_sizes),
                             ("sweep.mu", "mu", parse_weights),
                             ("sweep.lambda", "lam", parse_weights),
                             ("sweep.activation", "activation", str),
                             ("sweep.projection_mode", "projection_mode", str)):
        value = pop(key, parse=lambda v, p=parse: tuple(
            p(e) for e in _split_list(v)))
        if value is not None:
            sweep_kwargs[name] = value

    output_dir = pop("output_dir", "results")
    dump = str(pop("dump_factors", "false")).lower() in ("1", "true", "yes")
    if raw:
        raise DataFormatError(f"{path}: unknown config keys {sorted(raw)}")
    return ExperimentConfig(model=model, train=train_cfg, eval=eval_cfg,
                            data=data, output_dir=output_dir,
                            sweep=SweepAxes(**sweep_kwargs), dump_factors=dump)
