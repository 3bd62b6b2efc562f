"""Training orchestration: layer-wise pretraining and fine-tuning sweeps.

Pretraining walks the layers once, seeding each (W_l, H_l) with NNSVD on the
previous representation and alternating block solves (H first, then W)
until the layer objective stalls; a nonlinear model's activation maps each
solved representation before it feeds the next layer. Fine-tuning then
sweeps the whole system, layer by layer from the bottom, updating W_l and
H_l on the block subproblems from :mod:`deepnmf.models`. A block solve is not exact: it stops
when the projected-gradient norm falls below ``inner_stop.grad_tol`` times
its starting value or at ``inner_stop.max_iters`` iterations, and most
fine-tune solves stop at that cap. Every block solve is monotone, so the
recorded objective trace never increases.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import get_activation
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
        if self.rel_obj_tol <= 0:
            raise InvalidInputError(f"rel_obj_tol must be > 0, got {self.rel_obj_tol}")


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
    for stopping and monotonicity purposes."""
    scale = np.finfo(np.float64).eps * max(1.0, float(np.abs(x).max()))
    return 100.0 * x.size * scale * scale


def layer_objective(spec, layer, h_prev, w, h):
    """Pretraining objective of one layer: half squared fit of the previous
    representation plus this layer's penalties."""
    return add_layer_penalty(0.5 * frobenius_sq(h_prev - w @ h), spec, layer,
                             w=w, h=h)


def _pretrain_layer(spec, layer, h_input, cfg):
    """NNSVD seed plus alternating block solves (to ``cfg.inner_stop``) for
    one layer."""
    w, h = nnsvd_init(h_input, spec.layer_sizes[layer - 1])
    floor = _noise_floor(h_input)
    trace = []
    prev = math.inf
    for _ in range(cfg.max_sweeps):
        hp = pretrain_problem(spec, layer, "h", h_input, w, h)
        h = apg_solve(h, hp, cfg.inner_stop)
        wp = pretrain_problem(spec, layer, "w", h_input, w, h)
        w = apg_solve(w, wp, cfg.inner_stop)
        cur = layer_objective(spec, layer, h_input, w, h)
        trace.append(cur)
        if _rel_change(prev, cur) < cfg.rel_obj_tol or cur <= floor:
            break
        prev = cur
    return w, h, trace


def pretrain(spec, x, cfg=TrainConfig(), full_output=False):
    """Greedy layer-wise initialization of the whole stack.

    For a nonlinear ``spec`` each solved hidden representation passes
    through the activation before it becomes the next layer's input (the
    stack keeps the solved factor), and projection mode ``all`` also passes
    the final representation through it.

    With ``full_output=True`` also returns the per-layer objective traces.
    """
    x = as_matrix(x, "x")
    check_nonneg(x, "x")
    act = None if spec.activation == "linear" else get_activation(spec.activation)
    ws, hs, traces = [], [], []
    h_input = x
    for layer in range(1, spec.depth + 1):
        w, h, trace = _pretrain_layer(spec, layer, h_input, cfg)
        last = layer == spec.depth
        project = act is not None and (not last or spec.projection_mode == "all")
        h_input = act.g(h) if project else h
        ws.append(w)
        hs.append(h_input if last else h)
        traces.append(trace)
    stack = FactorStack(ws, hs)
    if full_output:
        return stack, traces
    return stack


def finetune(spec, x, stack, cfg=TrainConfig()):
    """Whole-system sweeps over the pretrained stack (linear models).

    Each sweep visits layers bottom-up, updating W_l then H_l with block
    solves that stop at ``cfg.inner_stop`` (its relative tolerance or, for
    most fine-tune blocks, its iteration cap); the basis-product cache is
    refreshed as soon as a basis factor changes, so every subproblem sees
    current factors. Stops when the
    relative objective change drops below ``rel_obj_tol`` or at
    ``max_sweeps``.
    """
    x = as_matrix(x, "x")
    check_nonneg(x, "x")
    stack = stack.copy()
    floor = _noise_floor(x)
    obj0 = finetune_objective(spec, x, stack)
    trace = [obj0]
    sweeps = 0
    for _ in range(cfg.max_sweeps):
        for layer in range(1, spec.depth + 1):
            wp = finetune_problem(spec, layer, "w", x, stack)
            stack.set_w(layer, apg_solve(stack.w[layer - 1], wp, cfg.inner_stop))
            hp = finetune_problem(spec, layer, "h", x, stack)
            stack.set_h(layer, apg_solve(stack.h[layer - 1], hp, cfg.inner_stop))
        cur = finetune_objective(spec, x, stack)
        sweeps += 1
        trace.append(cur)
        if cur > trace[-2] * (1.0 + 1e-10) + floor:
            raise InternalError(
                f"objective rose from {trace[-2]} to {cur}; a gradient or "
                "Lipschitz constant is wrong")
        if _rel_change(trace[-2], cur) < cfg.rel_obj_tol or cur <= floor:
            break
    report = TrainReport(objective_trace=trace, final_objective=trace[-1],
                         sweeps_used=sweeps)
    return stack, report


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
    report.per_layer_pretrain_objectives = [t[-1] if t else math.nan
                                            for t in layer_traces]
    return stack, report
