"""Training orchestration: layer-wise pretraining and fine-tuning sweeps.

Pretraining walks the layers once, seeding each (W_l, H_l) with NNSVD on the
previous representation and alternating block solves (H first, then W)
until the layer objective stalls; a nonlinear model's activation maps each
solved representation before it feeds the next layer. Fine-tuning then
sweeps the whole system, layer by layer from the bottom, updating W_l and
H_l on the block subproblems from :mod:`deepnmf.models`. A block solve is not exact: it stops
when the projected-gradient norm, tested on every 8th accepted iterate,
falls below ``inner_stop.grad_tol`` times its starting value, or at
``inner_stop.max_iters`` iterations, and many fine-tune solves stop at that
cap. Every block solve is monotone (it discards momentum steps that raise
its objective), so the recorded objective trace never increases.

Every training phase alternates in one outer loop, :func:`_sweeps`: each
pretraining layer on :func:`layer_objective`, and both fine-tuning paths,
:func:`finetune` and :func:`deepnmf.nonlinear.nonlinear_finetune`, on
:func:`deepnmf.models.chain_objective`. Its trace starts at the objective
of the starting factors, and it treats a rise beyond roundoff as an
internal error.
"""

from dataclasses import dataclass, field

import numpy as np

from .activations import get_activation
from . import kernels
from .apg import StopRule, apg_solve
from .errors import InternalError, InvalidInputError
from .linalg import as_matrix, check_nonneg, frobenius_sq
from .models import (FactorStack, add_layer_penalty, finetune_objective,
                     finetune_problem, pretrain_problem)
from .nnsvd import nnsvd_init

_TINY = 1e-300


@dataclass(frozen=True)
class TrainConfig:
    """Stopping knobs for both phases.

    ``inner_stop`` governs each block solve; ``max_sweeps``/``rel_obj_tol``
    stop the outer alternation (pretraining) and the fine-tuning sweeps.
    Training is deterministic: the same inputs give the same factors.
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


def _rel_change(prev, cur):
    return abs(prev - cur) / max(abs(prev), _TINY)


def _noise_floor(x):
    """Absolute objective level indistinguishable from float64 roundoff of a
    squared-error sum over ``x``-sized data; values below it count as zero
    for stopping."""
    scale = np.finfo(np.float64).eps * max(1.0, float(np.abs(x).max()))
    return 100.0 * x.size * scale * scale


def layer_objective(spec, layer, h_prev, w, h):
    """Pretraining objective of one layer: half squared fit of the previous
    representation plus this layer's penalties."""
    return add_layer_penalty(0.5 * frobenius_sq(h_prev - w @ h), spec, layer,
                             w=w, h=h)


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


def pretrain(spec, x, cfg=TrainConfig(), full_output=False):
    """Greedy layer-wise initialization of the whole stack.

    For a nonlinear ``spec`` each solved hidden representation H_1..H_{L-1}
    passes through the activation before it becomes the next layer's input;
    the stack keeps every solved factor, and H_L is never mapped.

    With ``full_output=True`` also returns the per-layer objective traces;
    each starts at the layer objective of its NNSVD seed.
    """
    x = as_matrix(x, "x")
    check_nonneg(x, "x")
    act = None if spec.activation == "linear" else get_activation(spec.activation)
    ws, hs, traces = [], [], []
    h_input = x
    for layer in range(1, spec.depth + 1):
        w, h, trace = _pretrain_layer(spec, layer, h_input, cfg)
        ws.append(w)
        hs.append(h)
        traces.append(trace)
        h_input = h if act is None or layer == spec.depth else act.g(h)
    stack = FactorStack(ws, hs)
    if full_output:
        return stack, traces
    return stack


def _sweeps(x, cfg, obj0, sweep):
    """The outer loop of every training phase, fitting ``x``.

    ``obj0`` is the objective of the starting factors; ``sweep()`` updates
    the factors once and returns the new objective, or None when a step
    could not make progress, which ends the run with ``stalled`` set and
    leaves that incomplete sweep out of ``sweeps_used``. Stops when the
    relative change drops below ``cfg.rel_obj_tol``, the objective reaches
    the noise floor of ``x``, or at ``cfg.max_sweeps``.

    A rise counts as an error only beyond the roundoff of the block
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
            raise InternalError(
                f"objective rose from {trace[-2]} to {cur}; a gradient or "
                "Lipschitz constant is wrong")
        if _rel_change(trace[-2], cur) < cfg.rel_obj_tol or cur <= floor:
            break
    return TrainReport(objective_trace=trace, final_objective=trace[-1],
                       sweeps_used=len(trace) - 1, stalled=stalled)


def finetune(spec, x, stack, cfg=TrainConfig()):
    """Whole-system sweeps over the pretrained stack (linear models).

    Each sweep visits layers bottom-up, updating W_l then H_l with block
    solves that stop at ``cfg.inner_stop`` (its relative tolerance or, for
    most fine-tune blocks, its iteration cap); every subproblem is built
    from the current factors. A linear sweep never stalls. Stops as
    :func:`_sweeps` describes.
    """
    x = as_matrix(x, "x")
    check_nonneg(x, "x")
    stack = stack.copy()

    def sweep():
        for layer in range(1, spec.depth + 1):
            wp = finetune_problem(spec, layer, "w", x, stack)
            stack.w[layer - 1] = apg_solve(stack.w[layer - 1], wp, cfg.inner_stop)
            hp = finetune_problem(spec, layer, "h", x, stack)
            stack.h[layer - 1] = apg_solve(stack.h[layer - 1], hp, cfg.inner_stop)
        return finetune_objective(spec, x, stack)

    return stack, _sweeps(x, cfg, finetune_objective(spec, x, stack), sweep)


def fit(spec, x, cfg=TrainConfig()):
    """Pretrain then fine-tune, dispatching on the model's activation.

    Returns (stack, report); the report carries the final pretraining
    objective of every layer alongside the fine-tuning trace.
    """
    stack, layer_traces = pretrain(spec, x, cfg, full_output=True)
    if spec.activation == "linear":
        stack, report = finetune(spec, x, stack, cfg)
    else:
        from .nonlinear import nonlinear_finetune

        stack, report = nonlinear_finetune(spec, x, stack, cfg)
    report.per_layer_pretrain_objectives = [t[-1] for t in layer_traces]
    return stack, report
