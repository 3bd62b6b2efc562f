"""Model variants and their block subproblems.

Five variants of the deep factorization X ~ W_1 ... W_L H_L are supported,
differing only in which factors carry a sparsity penalty. :data:`PENALTIES`
defines that, and a nonzero weight on any other factor is rejected:

* ``dnmf``      - no penalties.
* ``sdnmf_l``   - squared column L1 penalty on every basis factor W_l,
                  weight mu_l. Drives basis columns toward few active rows.
* ``sdnmf_r``   - squared column L1 penalty on every representation H_l,
                  weight lambda_l (sparse coding flavor).
* ``sdnmf_rl1`` - W penalties on every layer plus the H penalty on the final
                  representation H_L only.
* ``sdnmf_rl2`` - W penalties on every layer plus a plain squared Frobenius
                  (ridge) penalty on H_L, smoothing the final representation.

For nonnegative factors the squared column L1 norm equals the all-ones gram
quadratic form, so every block subproblem stays quadratic, with an exact
gradient and Lipschitz constant. A spec states each layer's penalties as two
numbers per factor role: the basis weight (:meth:`ModelSpec.w_weight`) and
the representation's (colsum, ridge) weights (:meth:`ModelSpec.h_weights`),
which an H block adds to its gram.

The model is one chain, X ~ W_1 ... W_L H_L, unrolled from the top through
the inverse activation of a nonlinear model by :func:`unroll`.
Fine-tuning decreases :func:`chain_objective` for every activation: the
chain's misfit plus the basis penalties and the H_L penalty.

One assembler builds the block subproblems of both training phases. A
fine-tune W block fits the data between the cumulative basis product below
the layer and the top-down reconstruction of its representation; an H block
fits the data against the basis product through the layer. A layer-wise
pretraining block (factor H_{l-1} ~ W_l H_l in isolation) is the same
problem with no basis prefix.
"""

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .activations import ACTIVATIONS, get_activation
from .apg import ApgProblem
from .errors import InvalidInputError
from .linalg import as_matrix, check_nonneg, frobenius_sq, sym_spectral_norm

# What each variant penalizes: whether every basis factor W_l carries the
# squared column-L1 weight mu_l; which representations carry the weight
# lambda_l ("all" H_l, "last" for H_L only, or "none"); and whether that
# representation penalty is the squared column L1 ("colsum") or the squared
# Frobenius ("ridge") norm.
PENALTIES = {
    "dnmf": (False, "none", None),
    "sdnmf_l": (True, "none", None),
    "sdnmf_r": (False, "all", "colsum"),
    "sdnmf_rl1": (True, "last", "colsum"),
    "sdnmf_rl2": (True, "last", "ridge"),
}
VARIANTS = tuple(PENALTIES)
# A spec's activation: "linear" (none) or one of the activations.
ACTIVATION_TAGS = ("linear",) + tuple(ACTIVATIONS)


def penalized_factors(variant, depth):
    """Per-layer flags (W_1..W_L, H_1..H_L) of the factors ``variant``
    penalizes in a model of ``depth`` layers, read from :data:`PENALTIES`."""
    if variant not in PENALTIES:
        raise InvalidInputError(
            f"unknown variant {variant!r}; choose from {VARIANTS}")
    every_w, h_layers, _ = PENALTIES[variant]
    return ((every_w,) * depth,
            tuple(h_layers == "all" or (h_layers == "last" and l == depth)
                  for l in range(1, depth + 1)))


@dataclass(frozen=True)
class ModelSpec:
    """Variant tag, layer sizes, penalty weights, and the activation.

    A nonlinear ``activation`` maps each hidden representation H_1..H_{L-1}
    before it feeds the next layer; the final representation H_L is never
    mapped.
    """

    variant: str
    layer_sizes: tuple
    mu: tuple
    lam: tuple
    activation: str = "linear"

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(k) for k in self.layer_sizes))
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        L = len(self.layer_sizes)
        w_on, h_on = penalized_factors(self.variant, L)
        if L == 0:
            raise InvalidInputError("layer_sizes must be nonempty")
        if any(k < 1 for k in self.layer_sizes):
            raise InvalidInputError(f"layer sizes must be positive: {self.layer_sizes}")
        if any(a < b for a, b in zip(self.layer_sizes, self.layer_sizes[1:])):
            warnings.warn(
                f"layer sizes {self.layer_sizes} are not non-increasing; deeper "
                "layers conventionally shrink", UserWarning, stacklevel=3)
        if len(self.mu) != L or len(self.lam) != L:
            raise InvalidInputError(
                f"mu and lam must each have {L} entries, got {len(self.mu)} and {len(self.lam)}")
        if not all(0 <= v < np.inf for v in self.mu + self.lam):
            raise InvalidInputError(
                f"penalty weights must be finite and >= 0, got mu {self.mu} "
                f"and lam {self.lam}")
        for name, factor, weights, on in (("mu", "W", self.mu, w_on),
                                          ("lam", "H", self.lam, h_on)):
            for l, (v, penalized) in enumerate(zip(weights, on), start=1):
                if v and not penalized:
                    raise InvalidInputError(
                        f"{self.variant} does not penalize {factor}_{l}; "
                        f"{name} must be 0 there, got {v}")
        if self.activation != "linear":
            get_activation(self.activation)

    @property
    def depth(self):
        return len(self.layer_sizes)

    def w_weight(self, layer):
        """Basis-penalty weight for 1-based ``layer`` (0 when the variant has none)."""
        return self.mu[layer - 1]

    def h_weights(self, layer):
        """(colsum, ridge) weights of the representation penalty at 1-based
        ``layer``: the variant's form carries lambda, the other is 0."""
        w = self.lam[layer - 1]
        return (0.0, w) if PENALTIES[self.variant][2] == "ridge" else (w, 0.0)


def make_spec(variant, layer_sizes, mu=None, lam=None, activation="linear"):
    """Build a ModelSpec with variant-appropriate defaults.

    A scalar weight lands on every factor the variant penalizes and 0 on the
    others; a nonzero scalar for a role the variant leaves unpenalized is
    rejected like a nonzero list entry there. Omitted weights default to
    0.1 on the penalized factors (a toy-scale placeholder meant to be swept)
    and to 0 elsewhere.
    """
    variant = str(variant).lower()
    layer_sizes = tuple(int(k) for k in layer_sizes)

    def broadcast(value, on):
        if value is None:
            return tuple(0.1 if a else 0.0 for a in on)
        if not np.isscalar(value):
            return value
        # With no penalized factor to land on, the scalar stays on every
        # layer, where ModelSpec rejects it unless it is 0.
        return tuple(float(value) if a or not any(on) else 0.0 for a in on)

    w_on, h_on = penalized_factors(variant, len(layer_sizes))
    return ModelSpec(variant, layer_sizes, broadcast(mu, w_on),
                     broadcast(lam, h_on), activation)


class FactorStack:
    """The learned factors W_1..W_L and H_1..H_L; W_l is ``w[l-1]`` and H_l
    is ``h[l-1]``. Trainers replace factors by assigning list entries."""

    def __init__(self, w, h):
        self.w = [as_matrix(m, f"w[{i}]") for i, m in enumerate(w)]
        self.h = [as_matrix(m, f"h[{i}]") for i, m in enumerate(h)]
        if len(self.w) != len(self.h) or not self.w:
            raise InvalidInputError("need one (w, h) pair per layer")
        for i, (wi, hi) in enumerate(zip(self.w, self.h)):
            if wi.shape[1] != hi.shape[0]:
                raise InvalidInputError(
                    f"layer {i + 1}: w has {wi.shape[1]} columns but h has "
                    f"{hi.shape[0]} rows")
            if i > 0 and self.w[i - 1].shape[1] != wi.shape[0]:
                raise InvalidInputError(
                    f"layer {i + 1}: basis rows {wi.shape[0]} do not chain from "
                    f"layer {i} columns {self.w[i - 1].shape[1]}")
            check_nonneg(wi, f"w[{i}]")
            check_nonneg(hi, f"h[{i}]")

    @property
    def depth(self):
        return len(self.w)

    def copy(self):
        return FactorStack([m.copy() for m in self.w], [m.copy() for m in self.h])


def unroll(activation, w, h_last, stop=0):
    """Unroll the chain from H_L down to 1-based layer ``stop`` (0: down to
    the data), through the inverse of the ``activation`` tag.

    Returns (pre, fresh): ``fresh[i]`` is layer i+1's representation, H_L at
    the top and g_inv(pre[i+1]) below it (pre[i+1] itself for ``linear``),
    and ``pre[i] = w[i] @ fresh[i]``, so ``pre[0]`` reconstructs the data.
    Entries below ``stop`` stay None and are never computed.
    """
    act = None if activation == "linear" else get_activation(activation)
    L = len(w)
    pre = [None] * L
    fresh = [None] * L
    fresh[L - 1] = h_last
    for i in range(L - 1, stop - 1, -1):
        pre[i] = w[i] @ fresh[i]
        if i > 0:
            fresh[i - 1] = pre[i] if act is None else act.inverse(pre[i])
    return pre, fresh


def add_layer_penalty(val, spec, layer, w=None, h=None):
    """``val`` plus the penalties of 1-based ``layer``: the basis penalty on
    ``w`` and the representation penalty on ``h``, each skipped when its
    factor is None.

    The terms are added to ``val`` one at a time, W first, so every
    objective built from this function sums in the same order.
    """
    mu = spec.w_weight(layer)
    if w is not None and mu:
        val += 0.5 * mu * frobenius_sq(w.sum(axis=0))
    if h is not None:
        colsum, ridge = spec.h_weights(layer)
        if colsum:
            val += 0.5 * colsum * frobenius_sq(h.sum(axis=0))
        if ridge:
            val += 0.5 * ridge * frobenius_sq(h)
    return val


def chain_objective(spec, x, w, h_last):
    """Misfit of the chain unrolled from basis factors ``w`` and ``h_last``,
    plus every basis penalty and the final-representation penalty: the
    objective fine-tuning decreases."""
    val = 0.5 * frobenius_sq(x - unroll(spec.activation, w, h_last)[0][0])
    for l, w_l in enumerate(w, start=1):
        val = add_layer_penalty(val, spec, l, w=w_l)
    return add_layer_penalty(val, spec, len(w), h=h_last)


def finetune_objective(spec, x, stack):
    """The quantity the fine-tuning sweep jointly decreases:
    :func:`chain_objective` of the stack, after checking that it conforms
    to ``spec`` and ``x``.

    Hidden-representation penalties are absent: the hidden H_l are not
    part of the reconstruction chain, and no fine-tuning sweep reads them.
    Linear fine-tuning pays their penalties only in the one block solve of
    each that follows its last sweep. For every variant except ``sdnmf_r``
    with L >= 2 this equals :func:`objective`.
    """
    _check_conformance(spec, x, stack)
    return chain_objective(spec, x, stack.w, stack.h[-1])


def objective(spec, x, stack):
    """Full model objective: :func:`finetune_objective` plus the penalties
    on the stored hidden representations H_1..H_{L-1}, added after the
    chain's terms. Fine-tuning sets those factors after its last sweep, so
    no sweep decreases this sum; the fine-tuning trace records
    :func:`finetune_objective`."""
    val = finetune_objective(spec, x, stack)
    for l in range(1, spec.depth):
        val = add_layer_penalty(val, spec, l, h=stack.h[l - 1])
    return val


def _check_conformance(spec, x, stack):
    """InvalidInputError unless ``stack`` has the depth and layer widths of
    ``spec`` and, when ``x`` is not None, reconstructs a matrix of its shape."""
    if stack.depth != spec.depth:
        raise InvalidInputError(
            f"stack has {stack.depth} layers, spec expects {spec.depth}")
    for l, k in enumerate(spec.layer_sizes, start=1):
        if stack.w[l - 1].shape[1] != k:
            raise InvalidInputError(
                f"layer {l}: spec size {k} but stack w has {stack.w[l - 1].shape[1]} columns")
    if x is not None and x.shape != (stack.w[0].shape[0], stack.h[-1].shape[1]):
        raise InvalidInputError(
            f"data shape {x.shape} does not match stack "
            f"({stack.w[0].shape[0]}, {stack.h[-1].shape[1]})")


def h_penalty_gram(spec, layer, rows):
    """The H penalty of 1-based ``layer``, lambda 1 1' or lambda I, as the
    ``rows``-square gram P of its gradient P @ H; None where lambda is 0."""
    colsum, ridge = spec.h_weights(layer)
    return (np.full((rows, rows), colsum) + ridge * np.eye(rows)
            if colsum or ridge else None)


def _problem(lin, left, right, colsum, target):
    """The block problem with gradient left @ V @ right + colsum * 1 1' V
    + lin for a fit of ``target``. Its Lipschitz constant is the product of
    the gram norms plus the all-ones gram norm (the block's row count) times
    ``colsum``."""
    lc = 1.0
    for gram in (right, left):
        if gram is not None:
            lc *= sym_spectral_norm(gram)
    lc += colsum * lin.shape[0]
    # A zero constant comes only from a zero gram, whose factor zeroes
    # ``lin`` too: the gradient is zero and any step leaves the block as it is.
    return ApgProblem(lin, lc or 1.0, left=left, right=right, colsum=colsum,
                      const=0.5 * frobenius_sq(target))


def _h_problem(spec, layer, target, basis):
    """H block of fitting ``target`` ~ basis @ H, its gram holding the
    layer's H penalty."""
    gram = basis.T @ basis
    penalty = h_penalty_gram(spec, layer, gram.shape[0])
    gram = gram if penalty is None else gram + penalty
    return _problem(-(basis.T @ target), gram, None, 0.0, target)


def _w_problem(spec, layer, target, prefix, rep):
    """W block of fitting ``target`` ~ prefix @ W @ rep (a ``prefix`` of None
    is the identity), plus the layer's basis penalty."""
    right = rep @ rep.T
    if prefix is None:
        left, lin = None, -(target @ rep.T)
    else:
        left, lin = prefix.T @ prefix, -(prefix.T @ target @ rep.T)
    return _problem(lin, left, right, spec.w_weight(layer), target)


def pretrain_problem(spec, layer, role, h_prev, w_cur, h_cur):
    """Block subproblem for layer-wise pretraining on input ``h_prev``.

    Pretraining factorizes h_prev ~ W H in isolation: the fine-tune blocks
    below with no basis prefix, ``w_cur`` as the H block's basis and
    ``h_cur`` as the W block's representation.
    """
    if not 1 <= layer <= spec.depth:
        raise InvalidInputError(f"layer {layer} out of range 1..{spec.depth}")
    h_prev = as_matrix(h_prev, "h_prev")
    w_cur = as_matrix(w_cur, "w_cur")
    h_cur = as_matrix(h_cur, "h_cur")
    if w_cur.shape[0] != h_prev.shape[0] or h_cur.shape[1] != h_prev.shape[1]:
        raise InvalidInputError("pretrain block shapes do not conform")
    if role == "h":
        return _h_problem(spec, layer, h_prev, w_cur)
    if role == "w":
        return _w_problem(spec, layer, h_prev, None, h_cur)
    raise InvalidInputError(f"role must be 'w' or 'h', got {role!r}")


def finetune_problem(spec, layer, role, x, stack):
    """Block subproblem for whole-system fine-tuning: every block of a
    linear model, and W_1 of a nonlinear one.

    W blocks minimize the full reconstruction error with every other factor
    fixed, between the basis product W_1 ... W_{layer-1} (multiplied left to
    right, none at layer 1) and this layer's representation unrolled from
    the top (:func:`unroll` stopped at the layer); H blocks fit the data
    against the basis product W_1 ... W_layer. Behind an activation only
    W_1's block, a fit of the data against the chain's first representation
    (unclipped, as the objective reconstructs through it), is quadratic.
    """
    if spec.activation != "linear" and (role, layer) != ("w", 1):
        raise InvalidInputError(
            "a nonlinear model's only quadratic fine-tune block is W_1; its "
            "other blocks take projected-gradient steps")
    if not 1 <= layer <= spec.depth:
        raise InvalidInputError(f"layer {layer} out of range 1..{spec.depth}")
    x = as_matrix(x, "x")
    _check_conformance(spec, x, stack)
    if role == "w":
        prefix = reduce(np.matmul, stack.w[:layer - 1]) if layer > 1 else None
        fresh = unroll(spec.activation, stack.w, stack.h[-1], stop=layer)[1]
        return _w_problem(spec, layer, x, prefix, fresh[layer - 1])
    if role == "h":
        return _h_problem(spec, layer, x, reduce(np.matmul, stack.w[:layer]))
    raise InvalidInputError(f"role must be 'w' or 'h', got {role!r}")
