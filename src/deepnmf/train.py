"""Training orchestration: layer-wise pretraining and fine-tuning sweeps.

Pretraining walks the layers once, seeding each (W_l, H_l) with NNSVD on the
previous representation and alternating block solves (H first, then W)
until the layer objective stalls; a nonlinear model's activation maps each
solved representation before it feeds the next layer. Fine-tuning,
:func:`finetune`, then sweeps the chain X ~ W_1 ... W_L H_L for every
activation, on :func:`deepnmf.models.chain_objective`. A block solve is not
exact: it stops when the projected-gradient norm, tested on every 8th
accepted iterate, falls below ``inner_stop.grad_tol`` times its starting
value, or at ``inner_stop.max_iters`` iterations, and many fine-tune solves
stop at that cap. Block solves and backtracked steps never raise their
objective, so the recorded objective trace never increases.

Both phases alternate in one outer loop, :func:`_sweeps`. Its trace starts
at the objective of the starting factors, and it raises NumericalError on
a rise beyond roundoff.
"""

from dataclasses import dataclass, field

import numpy as np

from .activations import get_activation
from . import kernels
from .apg import StopRule, apg_solve
from .errors import InvalidInputError, NumericalError
from .linalg import as_matrix, check_nonneg, frobenius_sq
from .models import (FactorStack, add_layer_penalty, finetune_objective,
                     finetune_problem, misfit, pretrain_problem, unroll)
from .nnsvd import nnsvd_init


@dataclass(frozen=True)
class TrainConfig:
    """Stopping knobs for both phases.

    ``inner_stop`` governs each block solve; ``max_sweeps``/``rel_obj_tol``
    stop the outer alternation (pretraining) and the fine-tuning sweeps.
    Training is deterministic: the same inputs give the same factors at a
    fixed BLAS build and BLAS thread count.
    """

    inner_stop: StopRule = field(default_factory=StopRule)
    max_sweeps: int = 200
    rel_obj_tol: float = 1e-6

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise InvalidInputError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if not 0 < self.rel_obj_tol < np.inf:
            raise InvalidInputError(
                f"rel_obj_tol must be finite and > 0, got {self.rel_obj_tol}")


@dataclass
class TrainReport:
    """Objective bookkeeping for one training run."""

    objective_trace: list
    final_objective: float
    sweeps_used: int
    per_layer_pretrain_objectives: list = field(default_factory=list)
    stalled: bool = False


def _noise_floor(x):
    """Absolute objective level indistinguishable from float64 roundoff of a
    squared-error sum over ``x``-sized data; values below it count as zero
    for stopping. ``x`` is nonnegative, so its largest entry is its scale."""
    scale = np.finfo(np.float64).eps * float(x.max())
    return 100.0 * x.size * scale * scale


def layer_objective(spec, layer, h_prev, w, h):
    """Pretraining objective of one layer: half squared fit of the previous
    representation plus this layer's penalties."""
    return add_layer_penalty(misfit(h_prev, w, h), spec, layer, w=w, h=h)


def _pretrain_layer(spec, layer, h_input, cfg):
    """NNSVD seed plus H-then-W block solves (to ``cfg.inner_stop``) for one
    layer, alternated by :func:`_sweeps`. Returns (w, h, trace); the trace
    starts at the seed's objective."""
    w, h = nnsvd_init(h_input, spec.layer_sizes[layer - 1])

    def sweep():
        nonlocal w, h
        hp = pretrain_problem(spec, layer, "h", h_input, w, h)
        h = apg_solve(h, hp, cfg.inner_stop)
        wp = pretrain_problem(spec, layer, "w", h_input, w, h)
        w = apg_solve(w, wp, cfg.inner_stop)
        return layer_objective(spec, layer, h_input, w, h)

    report = _sweeps(h_input, cfg, layer_objective(spec, layer, h_input, w, h),
                     sweep)
    return w, h, report.objective_trace


def pretrain(spec, x, cfg=TrainConfig()):
    """Greedy layer-wise initialization of the whole stack.

    For a nonlinear ``spec`` each solved hidden representation H_1..H_{L-1}
    passes through the activation before it becomes the next layer's input;
    the stack keeps every solved factor, and H_L is never mapped.

    Returns (stack, traces): the per-layer objective traces each start at
    the layer objective of its NNSVD seed. A layer wider than either side
    of its input is rejected before any layer is trained.
    """
    x = as_matrix(x, "x")
    check_nonneg(x, "x")
    n = x.shape[1]
    rows = (x.shape[0],) + spec.layer_sizes
    for layer, k in enumerate(spec.layer_sizes, start=1):
        if k > min(rows[layer - 1], n):
            raise InvalidInputError(f"layer {layer} has size {k}, above the "
                                    f"smaller side of its {rows[layer - 1]}x{n} input")
    act = None if spec.activation == "linear" else get_activation(spec.activation)
    ws, hs, traces = [], [], []
    h_input = x
    for layer in range(1, spec.depth + 1):
        w, h, trace = _pretrain_layer(spec, layer, h_input, cfg)
        ws.append(w)
        hs.append(h)
        traces.append(trace)
        h_input = h if act is None or layer == spec.depth else act.g(h)
    return FactorStack(ws, hs), traces


def _sweeps(x, cfg, obj0, sweep):
    """The outer loop of every training phase, fitting ``x``.

    ``obj0`` is the objective of the starting factors; ``sweep()`` updates
    the factors once and returns the new objective, or None when a step
    could not make progress, which ends the run with ``stalled`` set and
    leaves that incomplete sweep out of ``sweeps_used``. Stops when the
    relative change drops below ``cfg.rel_obj_tol``, the objective reaches
    the noise floor of ``x``, or at ``cfg.max_sweeps``.

    A rise raises NumericalError, but only beyond the roundoff of the block
    objectives that the solves decrease: each carries the constant
    0.5*||x||^2, so its monotonicity holds up to
    :func:`deepnmf.kernels.roundoff_slack` of that constant.
    """
    floor = _noise_floor(x)
    slack = kernels.roundoff_slack(0.5 * frobenius_sq(x))
    trace = [obj0]
    stalled = False
    for _ in range(cfg.max_sweeps):
        cur = sweep()
        if cur is None:
            stalled = True
            break
        trace.append(cur)
        if cur > trace[-2] * (1.0 + 1e-10) + slack:
            raise NumericalError(
                f"objective rose from {trace[-2]} to {cur}; a gradient or "
                "Lipschitz constant is wrong")
        if abs(trace[-2] - cur) < cfg.rel_obj_tol * abs(trace[-2]) or cur <= floor:
            break
    return TrainReport(objective_trace=trace, final_objective=trace[-1],
                       sweeps_used=len(trace) - 1, stalled=stalled)


def finetune(spec, x, stack, cfg=TrainConfig()):
    """Whole-system sweeps over the pretrained stack, for every activation.

    Each sweep visits the chain blocks W_1..W_L and H_L, every subproblem
    built from the current factors: W_1..W_L bottom-up, then H_L, on a
    linear chain; H_L, W_2..W_L, then W_1 behind an activation. A block
    whose subproblem is quadratic (every block of a linear chain, and W_1
    of any chain) gets a block solve to ``cfg.inner_stop``; every other
    block gets one backtracked step,
    :func:`deepnmf.nonlinear.gradient_step`. A step that cannot make
    progress undoes its sweep and ends the run with ``stalled`` set. Stops
    as :func:`_sweeps` describes. No sweep reads the hidden H_1..H_{L-1}:
    after the last complete one, each is the chain's representation unrolled
    from W_{l+1} .. W_L H_L, clipped at zero, and on a linear chain then
    one H block solve against the final bases from that start.
    """
    from .nonlinear import gradient_step  # nonlinear imports this module

    x = as_matrix(x, "x")
    check_nonneg(x, "x")
    stack = stack.copy()
    L = spec.depth
    linear = spec.activation == "linear"
    if linear:
        blocks = [("w", l) for l in range(1, L + 1)] + [("h", L)]
    else:
        blocks = [("h", L)] + [("w", l) for l in range(2, L + 1)] + [("w", 1)]
    steps = {}  # each stepped block's next trial step
    obj = finetune_objective(spec, x, stack)

    def sweep():
        nonlocal obj
        # Blocks are replaced, never written in place: a stall restores these.
        start = list(stack.w), list(stack.h)
        for role, layer in blocks:
            factors = stack.w if role == "w" else stack.h
            if linear or (role, layer) == ("w", 1):
                problem = finetune_problem(spec, layer, role, x, stack)
                factors[layer - 1] = apg_solve(factors[layer - 1], problem,
                                               cfg.inner_stop)
                continue
            # No block solve precedes a step within a sweep, so ``obj`` is
            # the objective at the stack the step starts from.
            out = gradient_step(spec, x, stack, role, layer, obj,
                                steps.get((role, layer)))
            if out is None:
                stack.w[:], stack.h[:] = start
                return None
            factors[layer - 1], obj, steps[(role, layer)] = out
        obj = finetune_objective(spec, x, stack)
        return obj

    report = _sweeps(x, cfg, obj, sweep)
    # A linear chain is a product of nonnegative factors; an inverse
    # activation goes negative (sigmoid below 1/2, softplus below log 2)
    # only where the clip engages.
    fresh = unroll(spec.activation, stack.w, stack.h[-1], stop=1)[1]
    for layer in range(1, L):
        stack.h[layer - 1] = np.maximum(fresh[layer - 1], 0.0,
                                        out=fresh[layer - 1])
        if linear:
            hp = finetune_problem(spec, layer, "h", x, stack)
            stack.h[layer - 1] = apg_solve(stack.h[layer - 1], hp, cfg.inner_stop)
    return stack, report


def fit(spec, x, cfg=TrainConfig()):
    """Pretrain then fine-tune, dispatching on the model's activation.

    Returns (stack, report); the report carries the final pretraining
    objective of every layer alongside the fine-tuning trace.
    """
    stack, layer_traces = pretrain(spec, x, cfg)
    if spec.activation == "linear":
        stack, report = finetune(spec, x, stack, cfg)
    else:
        from .nonlinear import nonlinear_finetune

        stack, report = nonlinear_finetune(spec, x, stack, cfg)
    report.per_layer_pretrain_objectives = [t[-1] for t in layer_traces]
    return stack, report
