"""Command-line interface.

Subcommands: ``synth`` (write a dataset), ``train`` (single fit),
``evaluate`` (score saved factors against labels), ``sweep`` (run an
experiment config), ``inspect`` (factor stats and the per-class feature
drill-down). Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .apg import StopRule
from .dataio import (load_bundle, load_factors, load_labels, parse_sizes,
                     parse_weights, save_bundle, save_factors, save_labels)
from .errors import DataFormatError, InvalidInputError, NumericalError
from .experiment import _derived_seed, parse_config, run_experiment
from .metrics import error_rate, kmeans, naive_precision, nmi
from .models import make_spec
from .synth import KINDS, synth_generate
from .train import TrainConfig, fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser():
    parser = _Parser(prog="deepnmf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset bundle")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--rows", type=int, default=30)
    p.add_argument("--cols", type=int, default=100)
    p.add_argument("--sizes", type=parse_sizes, default=(10, 5),
                   help="planted layer sizes, comma-separated")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--activation", default="root")
    p.add_argument("--separation", type=float, default=10.0)

    p = sub.add_parser("train", help="fit one model and write its factors")
    p.add_argument("--data", required=True)
    p.add_argument("--layers", type=parse_sizes, required=True,
                   help="layer sizes, comma-separated")
    p.add_argument("--variant", default="dnmf")
    p.add_argument("--mu", type=parse_weights, default=None)
    p.add_argument("--lambda", dest="lam", type=parse_weights, default=None)
    p.add_argument("--activation", default="linear")
    p.add_argument("--projection", default=None)
    p.add_argument("--sweeps", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--inner-iters", type=int, default=500)
    p.add_argument("--inner-tol", type=float, default=1e-4)
    p.add_argument("--out", default=None, help="factor directory (default: run_<data stem>)")

    p = sub.add_parser("evaluate", help="cluster saved factors and score them")
    p.add_argument("--factors", required=True)
    p.add_argument("--labels", default=None,
                   help="label file (default: labels.csv inside --factors)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--reps", type=int, default=5)

    p = sub.add_parser("sweep", help="run an experiment config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("inspect", help="factor stats and feature drill-down")
    p.add_argument("--factors", required=True)
    p.add_argument("--class", dest="class_id", type=int, default=None)
    p.add_argument("--top", type=int, default=5)
    return parser


def _cmd_synth(args):
    bundle = synth_generate(
        args.kind, args.seed, rows=args.rows, cols=args.cols,
        layer_sizes=args.sizes,
        classes=args.classes, noise=args.noise, activation=args.activation,
        separation=args.separation)
    save_bundle(args.out, bundle)
    print(f"wrote {bundle.name}: {bundle.x.shape[0]}x{bundle.x.shape[1]} -> {args.out}")
    return EXIT_OK


def _cmd_train(args):
    bundle = load_bundle(args.data)
    spec = make_spec(args.variant, args.layers, mu=args.mu, lam=args.lam,
                     activation=args.activation, projection_mode=args.projection)
    cfg = TrainConfig(inner_stop=StopRule(args.inner_iters, args.inner_tol),
                      max_sweeps=args.sweeps, rel_obj_tol=args.tol)
    stack, report = fit(spec, bundle.x, cfg)
    for layer, obj in enumerate(report.per_layer_pretrain_objectives, start=1):
        print(f"pretrain layer {layer}: objective {obj:.6g}")
    for sweep, obj in enumerate(report.objective_trace):
        print(f"finetune sweep {sweep}: objective {obj:.6g}")
    if report.stalled:
        print("note: fine-tuning stalled before the sweep budget")
    outdir = args.out or f"run_{Path(args.data).stem}"
    save_factors(outdir, spec, stack,
                 extra={"final_objective": repr(report.final_objective),
                        "sweeps_used": report.sweeps_used,
                        "data": args.data})
    if bundle.labels is not None:
        save_labels(Path(outdir) / "labels.csv", bundle.labels)
    print(f"factors written to {outdir}")
    return EXIT_OK


def _cmd_evaluate(args):
    spec, stack, _ = load_factors(args.factors)
    label_path = args.labels or Path(args.factors) / "labels.csv"
    labels = load_labels(label_path)
    k = args.k or labels.n_clusters
    scores = {"nmi": [], "er": [], "np": []}
    for rep in range(args.reps):
        part = kmeans(stack.h[-1], k, restarts=args.restarts,
                      seed=_derived_seed(args.seed, rep))
        scores["nmi"].append(nmi(part, labels))
        scores["er"].append(error_rate(part, labels))
        scores["np"].append(naive_precision(part, labels))
    for name, vals in scores.items():
        print(f"{name}: mean {np.mean(vals):.6f} std {np.std(vals):.6f} "
              f"min {np.min(vals):.6f} max {np.max(vals):.6f}")
    return EXIT_OK


def _cmd_sweep(args):
    cfg = parse_config(args.config)
    rows, summary = run_experiment(cfg)
    errors = sum(1 for r in rows if r["error"])
    print(f"{len(summary)} sweep points, {len(rows)} records, {errors} failures "
          f"-> {cfg.output_dir}")
    return EXIT_OK


def _print_factor_stats(spec, stack):
    print(f"variant {spec.variant}, activation {spec.activation}, "
          f"projection {spec.projection_mode}")
    for i, (w, h) in enumerate(zip(stack.w, stack.h), start=1):
        wz = float(np.mean(np.abs(w) < 1e-6))
        hz = float(np.mean(np.abs(h) < 1e-6))
        col_l1 = np.abs(w).sum(axis=0)
        print(f"layer {i}: W {w.shape[0]}x{w.shape[1]} near-zero {wz:.3f} "
              f"column-L1 [{col_l1.min():.4g}, {col_l1.max():.4g}] | "
              f"H {h.shape[0]}x{h.shape[1]} near-zero {hz:.3f}")


def _cmd_inspect(args):
    spec, stack, _ = load_factors(args.factors)
    _print_factor_stats(spec, stack)
    if args.class_id is None:
        return EXIT_OK

    label_path = Path(args.factors) / "labels.csv"
    if not label_path.exists():
        raise DataFormatError(
            f"{args.factors}: no labels.csv stored; class drill-down needs the "
            "training labels")
    labels = load_labels(label_path)
    members = np.flatnonzero(labels.labels == args.class_id)
    if members.size == 0:
        raise InvalidInputError(f"class {args.class_id} has no samples")

    # Rank the class's mean coefficients, then walk down the basis chain,
    # reporting the strongest contributing columns per layer.
    coeff = stack.h[-1][:, members].mean(axis=1)
    order = np.argsort(-coeff)[:args.top]
    print(f"class {args.class_id}: {members.size} samples")
    print(f"layer {spec.depth} representation: top components "
          + ", ".join(f"{i} ({coeff[i]:.4g})" for i in order))
    pick = int(order[0])
    for layer in range(spec.depth, 1, -1):
        column = stack.w[layer - 1][:, pick]
        order = np.argsort(-column)[:args.top]
        print(f"layer {layer} basis column {pick}: top layer-{layer - 1} columns "
              + ", ".join(f"{i} ({column[i]:.4g})" for i in order))
        pick = int(order[0])
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "inspect": _cmd_inspect,
}


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvalidInputError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main():
    sys.exit(cli_main())
