"""Training path for models with a nonlinear inter-layer activation.

Pretraining is :func:`deepnmf.train.pretrain`, which reads the activation
from the spec: each solved hidden representation H_1..H_{L-1} is passed
through the activation before it feeds the next layer; H_L is never mapped.

Fine-tuning decreases the same objective as the linear path,
:func:`deepnmf.models.chain_objective` on the chain unrolled through the
inverse activation (:func:`deepnmf.models.unroll`), in the same outer loop
(:func:`deepnmf.train._sweeps`). It cannot use fixed 1/LC steps because no
Lipschitz constant is available for the unrolled nonlinear reconstruction,
so the final representation and every basis factor above the first are
updated by projected gradient descent with Armijo backtracking. Their exact
gradients share one back-propagation of the chain's misfit, which stops at
the layer asked for; where the inverse activation's clamp holds a chain
entry, its derivative is 0. Each block's backtracking starts from twice its
last accepted step. The first basis factor keeps its convex block, a fit
of the data against the chain's first representation, and is still solved
by the accelerated method, to the same stop rule as the linear path
(relative tolerance or iteration cap). No step reads the stored hidden
representations, so they are set once, after the last sweep: the final
chain's, clipped at zero.
"""

import numpy as np

from .activations import get_activation
from .apg import apg_solve
from .errors import InvalidInputError
from .linalg import as_matrix, check_nonneg
from .models import _check_conformance, chain_objective, pretrain_problem, unroll
from .train import TrainConfig, _sweeps
# Nothing here calls pretrain; perfbench/tracing.py patches nonlinear.pretrain.
from .train import pretrain

ARMIJO_C = 1e-4
MAX_HALVINGS = 50
_STEP_CAP = 1e12


# The fine-tune objective under its nonlinear-path name: the nonlinear sweep
# calls it through this module, where perfbench/tracing.py counts the calls.
nonlinear_objective = chain_objective


def _backprop(spec, x, stack, layer):
    """The chain rule of the unrolled misfit, from the data down to 1-based
    ``layer``, after checking the stack against ``spec`` and ``x``.

    Returns (resid, fresh): ``resid`` is the misfit's gradient with respect
    to ``pre[layer-1] = W_layer @ fresh[layer-1]`` of :func:`unroll`,
    carried from ``pre[0] - x`` back through W_1 .. W_{layer-1} and the
    derivative of the inverse activation; ``fresh`` is the chain's
    representations. Nothing above ``layer`` is back-propagated.
    """
    x = as_matrix(x, "x")
    _check_conformance(spec, x, stack)
    act = get_activation(spec.activation)
    pre, fresh = unroll(spec.activation, stack.w, stack.h[-1])
    resid = pre[0] - x
    for i in range(1, layer):
        resid = (stack.w[i - 1].T @ resid) * act.inverse_deriv(pre[i])
    return resid, fresh


def representation_gradient(spec, x, stack):
    """Gradient of the unrolled objective with respect to the final
    representation, including its penalty term.

    The chain is evaluated on representations refreshed from the current
    factors, so the result is the exact gradient of
    :func:`nonlinear_objective` at the stack's basis factors and H_L.
    """
    resid, _ = _backprop(spec, x, stack, spec.depth)
    g = stack.w[-1].T @ resid
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
    resid, fresh = _backprop(spec, x, stack, layer)
    g = resid @ fresh[layer - 1].T
    mu = spec.w_weight(layer)
    if mu:
        g = g + mu * stack.w[layer - 1].sum(axis=0)
    return g


def _armijo_step(value, f0, grad, f_of, steps, block):
    """Projected gradient step with Armijo backtracking from ``value``, where
    the objective is ``f0``, starting from the block's step ``steps[block]``.

    Returns (new_value, new_f) and doubles the block's step (up to a cap)
    for the next sweep, or returns None when ``MAX_HALVINGS`` halvings fail
    to produce sufficient decrease. A long trial step can overflow the
    inverse activation; that trial's objective is non-finite and rejected
    without a warning.
    """
    step = steps[block]
    for _ in range(MAX_HALVINGS):
        cand = np.maximum(value - step * grad, 0.0)
        diff = cand - value
        moved = diff.any()
        with np.errstate(over="ignore", invalid="ignore"):
            f_cand = f_of(cand) if moved else f0
        if not moved or (np.isfinite(f_cand) and
                         f_cand <= f0 + ARMIJO_C * float(np.sum(grad * diff))):
            steps[block] = min(2.0 * step, _STEP_CAP)
            return (cand if moved else value), f_cand
        step *= 0.5
    return None


def nonlinear_finetune(spec, x, stack, cfg=TrainConfig()):
    """Whole-system sweeps for nonlinear models.

    Each sweep: one backtracked projected-gradient step on the final
    representation, one on every basis factor above the first (bottom-up),
    then an accelerated solve of the first basis factor's convex block,
    stopped by ``cfg.inner_stop``. Accepted steps never increase the
    objective; a block whose backtracking stalls ends the run with the
    ``stalled`` flag set. Each step starts from the objective the previous
    one returned, so no step re-evaluates it at its starting point. Stops
    as :func:`deepnmf.train._sweeps` describes. The hidden representations
    are then set from the final chain, also after a stall.
    """
    if spec.activation == "linear":
        raise InvalidInputError("nonlinear_finetune requires a nonlinear activation")
    x = as_matrix(x, "x")
    check_nonneg(x, "x")
    stack = stack.copy()
    L = spec.depth
    # Each block's next starting step: index 0 is H_L, index l-1 is W_l.
    steps = [1.0] * L
    obj = nonlinear_objective(spec, x, stack.w, stack.h[-1])

    def sweep():
        nonlocal obj
        out = _armijo_step(
            stack.h[-1], obj, representation_gradient(spec, x, stack),
            lambda v: nonlinear_objective(spec, x, stack.w, v), steps, 0)
        if out is None:
            return None
        stack.h[-1], obj = out
        for l in range(2, L + 1):
            w = stack.w
            out = _armijo_step(
                w[l - 1], obj, basis_gradient(spec, x, stack, l),
                lambda v: nonlinear_objective(spec, x, w[:l - 1] + [v] + w[l:],
                                              stack.h[-1]), steps, l - 1)
            if out is None:
                return None
            stack.w[l - 1], obj = out

        # W_1's block fits the chain's own first representation, which the
        # objective reconstructs through, unclipped.
        fresh = unroll(spec.activation, stack.w, stack.h[-1], stop=1)[1]
        problem = pretrain_problem(spec, 1, "w", x, stack.w[0], fresh[0])
        stack.w[0] = apg_solve(stack.w[0], problem, cfg.inner_stop)
        obj = nonlinear_objective(spec, x, stack.w, stack.h[-1])
        return obj

    report = _sweeps(x, cfg, obj, sweep)
    # The stored hidden factors are the final chain clipped at zero; the clip
    # engages only where the inverse goes negative (sigmoid below 1/2,
    # softplus below log 2). The chain does not involve W_1.
    fresh = unroll(spec.activation, stack.w, stack.h[-1], stop=1)[1]
    stack.h[:-1] = [np.maximum(f, 0.0) for f in fresh[:-1]]
    return stack, report
