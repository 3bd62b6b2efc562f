"""Training path for models with a nonlinear inter-layer activation.

Pretraining is :func:`deepnmf.train.pretrain`, which reads the activation
and projection mode from the spec: each solved representation is passed
through the activation before it feeds the next layer (projection mode
``all`` additionally projects the final representation after its last
solve).

Fine-tuning cannot use fixed 1/LC steps because no Lipschitz constant is
available for the unrolled nonlinear reconstruction, so the final
representation and every basis factor above the first are updated by
projected gradient descent with Armijo backtracking; hidden representations
are refreshed from the inverse-activation chain, and the first basis factor
keeps its convex block and is still solved by the accelerated method, to the
same stop rule as the linear path (relative tolerance or iteration cap).
"""

import numpy as np

from .activations import get_activation
from .apg import apg_solve
from .errors import InvalidInputError
from .linalg import as_matrix, check_nonneg, frobenius_sq
from .models import add_layer_penalty, pretrain_problem, _check_conformance
from .train import TrainConfig, TrainReport, _noise_floor, _rel_change
# Nothing here calls pretrain; perfbench/tracing.py patches nonlinear.pretrain.
from .train import pretrain

ARMIJO_C = 1e-4
MAX_HALVINGS = 50
_STEP_CAP = 1e12


def _forward_chain(spec, w, h_last):
    """Unroll the reconstruction from the top.

    Returns (pre, fresh) where ``pre[i]`` is the pre-activation product of
    layer i+1 (0-based) and ``fresh[i]`` the consistent representation of
    layer i+1; ``fresh[i] = g_inv(pre[i+1])`` below the top. ``pre[0]`` is
    the model's reconstruction of the data.
    """
    act = get_activation(spec.activation)
    L = len(w)
    pre = [None] * L
    fresh = [None] * L
    fresh[L - 1] = h_last
    pre[L - 1] = w[L - 1] @ h_last
    for i in range(L - 2, -1, -1):
        fresh[i] = act.inverse(pre[i + 1])
        pre[i] = w[i] @ fresh[i]
    return pre, fresh


def nonlinear_objective(spec, x, w, h_last):
    """Data misfit of the unrolled reconstruction plus the penalties that the
    nonlinear sweep actually optimizes (basis penalties and the
    final-representation penalty)."""
    pre, _ = _forward_chain(spec, w, h_last)
    val = 0.5 * frobenius_sq(x - pre[0])
    for l, w_l in enumerate(w, start=1):
        val = add_layer_penalty(val, spec, l, w=w_l)
    return add_layer_penalty(val, spec, len(w), h=h_last)


def _backward_chain(spec, x, w, pre, fresh):
    """Residual chain: returns (per-layer upstream gradients, per-layer
    elementwise factors). ``up[i]`` is the objective gradient with respect to
    layer (i+1)'s representation slot before penalties."""
    act = get_activation(spec.activation)
    L = len(w)
    up = [None] * L
    elem = [None] * L
    resid = pre[0] - x
    elem[0] = resid
    up[0] = w[0].T @ resid
    for i in range(1, L):
        elem[i] = up[i - 1] * act.inverse_deriv(pre[i])
        up[i] = w[i].T @ elem[i]
    return up, elem


def representation_gradient(spec, x, stack):
    """Gradient of the unrolled objective with respect to the final
    representation, including its penalty term.

    The chain is evaluated on representations refreshed from the current
    factors, so the result is the exact gradient of
    :func:`nonlinear_objective` at the stack's basis factors and H_L.
    """
    x = as_matrix(x, "x")
    _check_conformance(spec, x, stack)
    pre, fresh = _forward_chain(spec, stack.w, stack.h[-1])
    up, _ = _backward_chain(spec, x, stack.w, pre, fresh)
    g = up[-1]
    colsum, ridge = spec.h_weights(spec.depth)
    if colsum:
        g = g + colsum * stack.h[-1].sum(axis=0)
    if ridge:
        g = g + ridge * stack.h[-1]
    return g


def basis_gradient(spec, x, stack, layer):
    """Gradient of the unrolled objective with respect to basis factor
    ``layer`` (>= 2; the first basis factor keeps its convex block)."""
    if layer < 2 or layer > spec.depth:
        raise InvalidInputError(
            f"basis gradients cover layers 2..{spec.depth}, got {layer}")
    x = as_matrix(x, "x")
    _check_conformance(spec, x, stack)
    pre, fresh = _forward_chain(spec, stack.w, stack.h[-1])
    _, elem = _backward_chain(spec, x, stack.w, pre, fresh)
    g = elem[layer - 1] @ fresh[layer - 1].T
    mu = spec.w_weight(layer)
    if mu:
        g = g + mu * stack.w[layer - 1].sum(axis=0)
    return g


def _armijo_step(value, f0, grad, f_of, step0):
    """Projected gradient step with Armijo backtracking from ``value``, where
    the objective is ``f0``.

    Returns (new_value, new_f, accepted_step) or (value, f0, None) when 50
    halvings fail to produce sufficient decrease.
    """
    step = step0
    for _ in range(MAX_HALVINGS):
        cand = np.maximum(value - step * grad, 0.0)
        diff = cand - value
        if not diff.any():
            return value, f0, step
        f_cand = f_of(cand)
        if f_cand <= f0 + ARMIJO_C * float(np.sum(grad * diff)):
            return cand, f_cand, step
        step *= 0.5
    return value, f0, None


def nonlinear_finetune(spec, x, stack, cfg=TrainConfig()):
    """Whole-system sweeps for nonlinear models.

    Each sweep: one backtracked projected-gradient step on the final
    representation, one on every basis factor above the first (bottom-up),
    a refresh of the hidden representations from the inverse-activation
    chain, then an accelerated solve of the first basis factor's convex
    block, stopped by ``cfg.inner_stop``. Accepted steps never increase the
    objective; a block whose backtracking stalls ends the run with the
    ``stalled`` flag set. Each step starts from the objective the previous
    one returned, so no step re-evaluates it at its starting point.
    """
    if spec.activation == "linear":
        raise InvalidInputError("nonlinear_finetune requires a nonlinear activation")
    x = as_matrix(x, "x")
    check_nonneg(x, "x")
    stack = stack.copy()
    L = spec.depth

    steps = {"h": 1.0}
    steps.update({("w", l): 1.0 for l in range(2, L + 1)})
    floor = _noise_floor(x)
    obj = nonlinear_objective(spec, x, stack.w, stack.h[-1])
    trace = [obj]
    stalled = False
    sweeps = 0
    for _ in range(cfg.max_sweeps):
        g = representation_gradient(spec, x, stack)
        new_h, obj, used = _armijo_step(
            stack.h[-1], obj, g,
            lambda v: nonlinear_objective(spec, x, stack.w, v),
            steps["h"])
        if used is None:
            stalled = True
            break
        steps["h"] = min(2.0 * used, _STEP_CAP)
        stack.set_h(L, new_h)

        for l in range(2, L + 1):
            g = basis_gradient(spec, x, stack, l)

            def f_of(v, _l=l):
                w_try = list(stack.w)
                w_try[_l - 1] = v
                return nonlinear_objective(spec, x, w_try, stack.h[-1])

            new_w, obj, used = _armijo_step(stack.w[l - 1], obj, g, f_of,
                                            steps[("w", l)])
            if used is None:
                stalled = True
                break
            steps[("w", l)] = min(2.0 * used, _STEP_CAP)
            stack.set_w(l, new_w)
        if stalled:
            break

        # The max(., 0) only engages for activations whose inverse can go
        # negative (softplus below log 2); root and identity are unaffected.
        _, fresh = _forward_chain(spec, stack.w, stack.h[-1])
        for l in range(1, L):
            stack.set_h(l, np.maximum(fresh[l - 1], 0.0))

        problem = pretrain_problem(spec, 1, "w", x, stack.w[0], stack.h[0])
        stack.set_w(1, apg_solve(stack.w[0], problem, cfg.inner_stop))

        obj = nonlinear_objective(spec, x, stack.w, stack.h[-1])
        sweeps += 1
        trace.append(obj)
        if _rel_change(trace[-2], obj) < cfg.rel_obj_tol or obj <= floor:
            break

    report = TrainReport(objective_trace=trace, final_objective=trace[-1],
                         sweeps_used=sweeps, stalled=stalled)
    return stack, report
