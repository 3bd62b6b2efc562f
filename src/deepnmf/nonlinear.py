"""Gradients and backtracked steps for models with a nonlinear inter-layer
activation.

Fine-tuning (:func:`deepnmf.train.finetune`) decreases the chain objective
unrolled through the inverse activation (:func:`deepnmf.models.unroll`),
for which no Lipschitz constant is available, so every block but W_1 takes
a projected-gradient step with Armijo backtracking, :func:`gradient_step`.
The exact gradients share one back-propagation of the chain's misfit,
which stops at the layer asked for; where the inverse activation's clamp
holds a chain entry, its derivative is 0. A block's first backtracking
starts from f / ||g||^2 (Polyak's step for an objective bounded below by
0), each later one from twice its last accepted step.
"""

import numpy as np

from .activations import get_activation
from .errors import InvalidInputError
from .linalg import as_matrix, frobenius_sq
from .models import (_check_conformance, chain_objective, h_penalty_gram,
                     unroll)
# Fine-tuning is one loop for every activation; fit reaches it under this
# name for a nonlinear model, where perfbench/tracing.py times it.
from .train import finetune as nonlinear_finetune
# Nothing here calls these; perfbench/tracing.py patches them on this module.
from .apg import apg_solve
from .models import pretrain_problem
from .train import pretrain

ARMIJO_C = 1e-4
MAX_HALVINGS = 50


# The fine-tune objective under its nonlinear-path name: every Armijo trial
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
    penalty = h_penalty_gram(spec, spec.depth, g.shape[0])
    return g if penalty is None else g + penalty @ stack.h[-1]


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


def _armijo_step(value, f0, grad, f_of, step=None):
    """Projected gradient step with Armijo backtracking from ``value``, where
    the objective is ``f0``, starting from ``step``, or f0 / ||grad||^2 if None.

    Returns (new_value, new_f, next_step), or None when ``MAX_HALVINGS``
    halvings fail to produce sufficient decrease. ``next_step`` is twice the
    accepted step, or None when no trial moved ``value``. A long trial step
    can overflow the inverse activation; that trial's objective is
    non-finite and rejected without a warning.
    """
    if step is None:
        gg = frobenius_sq(grad)
        step = f0 / gg if gg else 0.0
    for _ in range(MAX_HALVINGS):
        cand = np.maximum(value - step * grad, 0.0)
        diff = cand - value
        if not diff.any():
            return value, f0, None
        with np.errstate(over="ignore", invalid="ignore"):
            f_cand = f_of(cand)
        if (np.isfinite(f_cand) and
                f_cand <= f0 + ARMIJO_C * float(np.sum(grad * diff))):
            return cand, f_cand, 2.0 * step
        step *= 0.5
    return None


def gradient_step(spec, x, stack, role, layer, obj, step=None):
    """One Armijo-backtracked projected-gradient step on the chain block
    (``role``, ``layer``) of a nonlinear model: H_L (role "h") or a basis
    factor W_l, l >= 2 (role "w"), at the stack's objective ``obj``.

    Returns (new_block, new_objective, next_step) as :func:`_armijo_step`
    does, without changing ``stack``, or None when the backtracking stalls.
    ``step`` is the block's trial step returned by its previous call.
    """
    w, h_last = stack.w, stack.h[-1]
    if role == "h":
        return _armijo_step(h_last, obj, representation_gradient(spec, x, stack),
                            lambda v: nonlinear_objective(spec, x, w, v), step)
    return _armijo_step(
        w[layer - 1], obj, basis_gradient(spec, x, stack, layer),
        lambda v: nonlinear_objective(spec, x, w[:layer - 1] + [v] + w[layer:],
                                      h_last), step)
