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

from .activations import ACTIVATIONS
from .apg import StopRule
from .dataio import (LABELS_FILE, load_bundle, load_factor_labels,
                     load_factors, parse_sizes, parse_weights, positive_float,
                     positive_int, save_bundle, save_factors)
from .errors import DataFormatError, InvalidInputError, NumericalError
from .experiment import (DATA_KEYS, EvalConfig, parse_config, resolve_bundle,
                         run_experiment, score_partitions)
from .models import ACTIVATION_TAGS, VARIANTS, make_spec
from .synth import KINDS
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

    # An omitted synth flag takes synth_generate's default.
    p = sub.add_parser("synth", help="generate a synthetic dataset bundle",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--out", required=True)
    for name in ("seed", "rows", "cols", "classes", "noise", "separation"):
        p.add_argument(f"--{name}", type=DATA_KEYS[name])
    p.add_argument("--sizes", dest="layer_sizes", type=DATA_KEYS["layer_sizes"],
                   help="planted layer sizes, comma-separated")
    p.add_argument("--activation", choices=ACTIVATIONS)

    p = sub.add_parser("train", help="fit one model and write its factors")
    p.add_argument("--data", required=True)
    p.add_argument("--layers", type=parse_sizes, required=True,
                   help="layer sizes, comma-separated")
    p.add_argument("--variant", type=str.lower, choices=VARIANTS, default="dnmf")
    p.add_argument("--mu", type=parse_weights, default=None)
    p.add_argument("--lambda", dest="lam", type=parse_weights, default=None)
    p.add_argument("--activation", choices=ACTIVATION_TAGS, default="linear")
    p.add_argument("--sweeps", type=positive_int, default=TrainConfig.max_sweeps)
    p.add_argument("--tol", type=positive_float, default=TrainConfig.rel_obj_tol)
    p.add_argument("--inner-iters", type=positive_int, default=StopRule.max_iters)
    p.add_argument("--inner-tol", type=positive_float, default=StopRule.grad_tol)
    p.add_argument("--out", default=None, help="factor directory (default: run_<data stem>)")

    p = sub.add_parser("evaluate", help="cluster saved factors and score them")
    p.add_argument("--factors", required=True)
    p.add_argument("--labels", default=None,
                   help=f"label file (default: {LABELS_FILE} inside --factors)")
    p.add_argument("--k", type=positive_int, default=None)
    p.add_argument("--seed", type=int, default=EvalConfig.seed)
    p.add_argument("--restarts", type=positive_int,
                   default=EvalConfig.kmeans_restarts)
    p.add_argument("--reps", type=positive_int, default=EvalConfig.kmeans_reps)

    p = sub.add_parser("sweep", help="run an experiment config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("inspect", help="factor stats and feature drill-down")
    p.add_argument("--factors", required=True)
    p.add_argument("--class", dest="class_id", type=int, default=None)
    p.add_argument("--top", type=positive_int, default=5)
    return parser


def _cmd_synth(args):
    bundle = resolve_bundle({name: value for name, value in vars(args).items()
                             if name in DATA_KEYS})
    save_bundle(args.out, bundle)
    print(f"wrote {bundle.name}: {bundle.x.shape[0]}x{bundle.x.shape[1]} -> {args.out}")
    return EXIT_OK


def _cmd_train(args):
    outdir = args.out or f"run_{Path(args.data).stem}"
    if Path(outdir).exists() and not Path(outdir).is_dir():
        raise InvalidInputError(f"--out {outdir} exists and is not a directory")
    spec = make_spec(args.variant, args.layers, mu=args.mu, lam=args.lam,
                     activation=args.activation)
    cfg = TrainConfig(inner_stop=StopRule(args.inner_iters, args.inner_tol),
                      max_sweeps=args.sweeps, rel_obj_tol=args.tol)
    bundle = load_bundle(args.data)
    stack, report = fit(spec, bundle.x, cfg)
    for layer, obj in enumerate(report.per_layer_pretrain_objectives, start=1):
        print(f"pretrain layer {layer}: objective {obj:.6g}")
    for sweep, obj in enumerate(report.objective_trace):
        print(f"finetune sweep {sweep}: objective {obj:.6g}")
    if report.stalled:
        print("note: fine-tuning stalled before the sweep budget")
    save_factors(outdir, spec, stack,
                 extra={"final_objective": repr(report.final_objective),
                        "sweeps_used": report.sweeps_used,
                        "data": args.data},
                 labels=bundle.labels)
    print(f"factors written to {outdir}")
    return EXIT_OK


def _cmd_evaluate(args):
    spec, stack, _ = load_factors(args.factors)
    samples = stack.h[-1].shape[1]
    if args.k is not None and args.k > samples:
        raise InvalidInputError(
            f"--k {args.k} exceeds the {samples} samples of {args.factors}")
    labels = load_factor_labels(args.factors, stack, args.labels)
    scores = score_partitions(stack.h[-1], labels, args.k, args.reps,
                              args.restarts, args.seed)
    for name in ("nmi", "er", "np"):
        vals = [s[name] for s in scores]
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
    print(f"variant {spec.variant}, activation {spec.activation}")
    for i, (w, h) in enumerate(zip(stack.w, stack.h), start=1):
        wz, hz = (float(np.mean(m <= 1e-6 * m.max())) for m in (w, h))
        col_l1 = np.abs(w).sum(axis=0)
        print(f"layer {i}: W {w.shape[0]}x{w.shape[1]} near-zero {wz:.3f} "
              f"column-L1 [{col_l1.min():.4g}, {col_l1.max():.4g}] | "
              f"H {h.shape[0]}x{h.shape[1]} near-zero {hz:.3f}")


def _cmd_inspect(args):
    spec, stack, _ = load_factors(args.factors)
    _print_factor_stats(spec, stack)
    if args.class_id is None:
        return EXIT_OK

    labels = load_factor_labels(args.factors, stack)
    members = np.flatnonzero(labels.ids[labels.labels] == args.class_id)
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
    except (DataFormatError, InvalidInputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main():
    sys.exit(cli_main())
