"""Model variants and their block subproblems.

Five variants of the deep factorization X ~ W_1 ... W_L H_L are supported,
differing only in which factors carry a sparsity penalty:

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
the representation's (colsum, ridge) weights (:meth:`ModelSpec.h_weights`).

One assembler builds the block subproblems of both training phases. A
fine-tune W block fits the data between the cumulative basis product below
the layer and the top-down reconstruction of its representation; an H block
fits the data against the basis product through the layer. A layer-wise
pretraining block (factor H_{l-1} ~ W_l H_l in isolation) is the same
problem with no basis prefix.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .activations import get_activation
from .apg import ApgProblem
from .errors import InternalError, InvalidInputError
from .linalg import as_matrix, check_nonneg, frobenius_sq, sym_spectral_norm

VARIANTS = ("dnmf", "sdnmf_l", "sdnmf_r", "sdnmf_rl1", "sdnmf_rl2")
PROJECTION_MODES = ("none", "hidden", "all")

_W_PENALIZED = {"sdnmf_l", "sdnmf_rl1", "sdnmf_rl2"}
_LC_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    """Variant tag, layer sizes, penalty weights, and the nonlinear options.

    ``projection_mode`` controls where the activation is applied: ``hidden``
    projects H_1..H_{L-1} (the inter-layer inputs) only, ``all`` additionally
    projects the final representation H_L.
    """

    variant: str
    layer_sizes: tuple
    mu: tuple
    lam: tuple
    activation: str = "linear"
    projection_mode: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(k) for k in self.layer_sizes))
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        if self.variant not in VARIANTS:
            raise InvalidInputError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        L = len(self.layer_sizes)
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
        if any(v < 0 for v in self.mu) or any(v < 0 for v in self.lam):
            raise InvalidInputError("penalty weights must be >= 0")
        if self.variant == "dnmf" and (any(self.mu) or any(self.lam)):
            raise InvalidInputError("dnmf takes no penalties; use another variant")
        if self.variant == "sdnmf_l" and any(self.lam):
            raise InvalidInputError("sdnmf_l penalizes only W factors; lam must be 0")
        if self.variant == "sdnmf_r" and any(self.mu):
            raise InvalidInputError("sdnmf_r penalizes only H factors; mu must be 0")
        if self.variant in ("sdnmf_rl1", "sdnmf_rl2") and any(self.lam[:-1]):
            raise InvalidInputError(
                f"{self.variant} applies its H penalty to the last layer only")
        if self.activation == "linear":
            if self.projection_mode != "none":
                raise InvalidInputError(
                    "projection_mode requires a nonlinear activation")
        else:
            get_activation(self.activation)
            if self.projection_mode not in ("hidden", "all"):
                raise InvalidInputError(
                    "nonlinear activation requires projection_mode 'hidden' or 'all'")
        if self.projection_mode not in PROJECTION_MODES:
            raise InvalidInputError(
                f"unknown projection_mode {self.projection_mode!r}")

    @property
    def depth(self):
        return len(self.layer_sizes)

    def w_weight(self, layer):
        """Basis-penalty weight for 1-based ``layer`` (0 when the variant has none)."""
        return self.mu[layer - 1] if self.variant in _W_PENALIZED else 0.0

    def h_weights(self, layer):
        """(colsum, ridge) weights of the representation penalty at 1-based
        ``layer``: the squared column L1 form, the Frobenius form, or both 0.
        """
        w = self.lam[layer - 1]
        if self.variant in ("sdnmf_r", "sdnmf_rl1"):
            return w, 0.0
        if self.variant == "sdnmf_rl2":
            return 0.0, w
        return 0.0, 0.0


def make_spec(variant, layer_sizes, mu=None, lam=None, activation="linear",
              projection_mode=None):
    """Build a ModelSpec with variant-appropriate defaults.

    Scalars broadcast over layers; omitted weights default to 0.1 on the
    factors the variant penalizes (a toy-scale placeholder meant to be swept)
    and to 0 elsewhere.
    """
    variant = str(variant).lower()
    if variant not in VARIANTS:
        raise InvalidInputError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    layer_sizes = tuple(int(k) for k in layer_sizes)
    L = len(layer_sizes)

    def broadcast(value, active):
        if value is None:
            value = 0.1
        if np.isscalar(value):
            return tuple(float(value) if a else 0.0 for a in active)
        vals = tuple(float(v) for v in value)
        if len(vals) != L:
            raise InvalidInputError(f"expected {L} weights, got {len(vals)}")
        return vals

    w_active = [variant in _W_PENALIZED] * L
    if variant in ("sdnmf_rl1", "sdnmf_rl2"):
        h_active = [False] * (L - 1) + [True]
    elif variant == "sdnmf_r":
        h_active = [True] * L
    else:
        h_active = [False] * L

    if projection_mode is None:
        projection_mode = "none" if activation == "linear" else "hidden"
    return ModelSpec(variant, layer_sizes, broadcast(mu, w_active),
                     broadcast(lam, h_active), activation, projection_mode)


class FactorStack:
    """The learned factors W_1..W_L and H_1..H_L plus a lazy cache of the
    cumulative basis products W_1 ... W_l.

    Mutate factors through :meth:`set_w` / :meth:`set_h` so the cache stays
    coherent; W_l is ``w[l-1]`` in the underlying lists.
    """

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
        self._products = {}

    @property
    def depth(self):
        return len(self.w)

    def set_w(self, layer, value):
        self.w[layer - 1] = np.ascontiguousarray(value, dtype=np.float64)
        self._products.clear()

    def set_h(self, layer, value):
        self.h[layer - 1] = np.ascontiguousarray(value, dtype=np.float64)

    def basis_product(self, upto):
        """W_1 @ ... @ W_upto; ``None`` for upto == 0 (an implicit identity)."""
        if upto == 0:
            return None
        if not 1 <= upto <= self.depth:
            raise InvalidInputError(f"layer index {upto} out of range")
        if upto not in self._products:
            prev = self.basis_product(upto - 1)
            self._products[upto] = (self.w[upto - 1] if prev is None
                                    else prev @ self.w[upto - 1])
        cached = self._products[upto]
        if cached.shape != (self.w[0].shape[0], self.w[upto - 1].shape[1]):
            raise InternalError(
                f"basis-product cache for layer {upto} has shape {cached.shape}; "
                "factors changed without set_w")
        return cached

    def copy(self):
        out = FactorStack([m.copy() for m in self.w], [m.copy() for m in self.h])
        return out

    def max_entry(self):
        return max(float(m.max()) for m in self.w + self.h)


def reconstruct_h(spec, stack, layer):
    """Top-down reconstruction of the layer's representation from the factors
    above it: H_L itself at the last layer, otherwise W_{l+1} times the
    reconstruction below (passed through the inverse activation when the
    model is nonlinear)."""
    L = stack.depth
    if not 1 <= layer <= L:
        raise InvalidInputError(f"layer {layer} out of range 1..{L}")
    cur = stack.h[L - 1]
    if spec.activation == "linear":
        for l in range(L - 1, layer - 1, -1):
            cur = stack.w[l] @ cur
        return cur
    act = get_activation(spec.activation)
    for l in range(L - 1, layer - 1, -1):
        cur = act.inverse(stack.w[l] @ cur)
    return cur


def reconstruct(spec, stack):
    """Model reconstruction of the data matrix from the stack."""
    return stack.w[0] @ reconstruct_h(spec, stack, 1)


def _colsum_sq(m):
    s = m.sum(axis=0)
    return float(np.dot(s, s))


def add_layer_penalty(val, spec, layer, w=None, h=None):
    """``val`` plus the penalties of 1-based ``layer``: the basis penalty on
    ``w`` and the representation penalty on ``h``, each skipped when its
    factor is None.

    The terms are added to ``val`` one at a time, W first, so every
    objective built from this function sums in the same order.
    """
    mu = spec.w_weight(layer)
    if w is not None and mu:
        val += 0.5 * mu * _colsum_sq(w)
    if h is not None:
        colsum, ridge = spec.h_weights(layer)
        if colsum:
            val += 0.5 * colsum * _colsum_sq(h)
        if ridge:
            val += 0.5 * ridge * frobenius_sq(h)
    return val


def objective(spec, x, stack):
    """Full model objective: half squared reconstruction error plus the
    variant's penalties, with every representation penalty evaluated on the
    stored factor."""
    _check_conformance(spec, x, stack)
    val = 0.5 * frobenius_sq(x - reconstruct(spec, stack))
    for l in range(1, spec.depth + 1):
        val = add_layer_penalty(val, spec, l, w=stack.w[l - 1], h=stack.h[l - 1])
    return val


def finetune_objective(spec, x, stack):
    """The quantity the fine-tuning sweep jointly decreases: reconstruction
    error, all basis penalties, and the final-representation penalty.

    Hidden-representation penalties are deliberately absent: during
    fine-tuning the hidden H_l are not part of the reconstruction chain, so
    their penalty terms are paid only inside their own block solves. For
    every variant except ``sdnmf_r`` with L >= 2 this equals
    :func:`objective`.
    """
    _check_conformance(spec, x, stack)
    val = 0.5 * frobenius_sq(x - reconstruct(spec, stack))
    L = spec.depth
    for l in range(1, L + 1):
        val = add_layer_penalty(val, spec, l, w=stack.w[l - 1])
    return add_layer_penalty(val, spec, L, h=stack.h[L - 1])


def _check_conformance(spec, x, stack):
    if stack.depth != spec.depth:
        raise InvalidInputError(
            f"stack has {stack.depth} layers, spec expects {spec.depth}")
    for l, k in enumerate(spec.layer_sizes, start=1):
        if stack.w[l - 1].shape[1] != k:
            raise InvalidInputError(
                f"layer {l}: spec size {k} but stack w has {stack.w[l - 1].shape[1]} columns")
    if x.shape != (stack.w[0].shape[0], stack.h[-1].shape[1]):
        raise InvalidInputError(
            f"data shape {x.shape} does not match stack "
            f"({stack.w[0].shape[0]}, {stack.h[-1].shape[1]})")


def _problem(lin, left, right, colsum, ridge, target):
    """The block problem with gradient left @ V @ right + colsum * 1 1' V
    + ridge * V + lin for a fit of ``target``. Its Lipschitz constant is
    the product of the gram norms plus the all-ones gram norm (the block's
    row count) times ``colsum`` plus ``ridge``."""
    lc = 1.0
    for gram in (right, left):
        if gram is not None:
            lc *= sym_spectral_norm(gram)
    lc += colsum * lin.shape[0] + ridge
    return ApgProblem(lin, max(lc, _LC_FLOOR), left=left, right=right,
                      colsum=colsum, ridge=ridge,
                      const=0.5 * frobenius_sq(target))


def _h_problem(spec, layer, target, basis):
    """H block of fitting ``target`` ~ basis @ H, plus the layer's H penalty."""
    colsum, ridge = spec.h_weights(layer)
    return _problem(-(basis.T @ target), basis.T @ basis, None, colsum,
                    ridge, target)


def _w_problem(spec, layer, target, prefix, rep):
    """W block of fitting ``target`` ~ prefix @ W @ rep (a ``prefix`` of None
    is the identity), plus the layer's basis penalty."""
    right = rep @ rep.T
    if prefix is None:
        left, lin = None, -(target @ rep.T)
    else:
        left, lin = prefix.T @ prefix, -(prefix.T @ target @ rep.T)
    return _problem(lin, left, right, spec.w_weight(layer), 0.0, target)


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
    """Block subproblem for whole-system fine-tuning (linear models).

    W blocks minimize the full reconstruction error with every other factor
    fixed, between the cumulative basis product up to layer-1 and the
    top-down reconstruction of this layer's representation; H blocks fit
    the data against the cumulative basis product through this layer.
    """
    if spec.activation != "linear":
        raise InvalidInputError(
            "finetune_problem covers linear models; nonlinear fine-tuning "
            "uses the projected-gradient path")
    if not 1 <= layer <= spec.depth:
        raise InvalidInputError(f"layer {layer} out of range 1..{spec.depth}")
    x = as_matrix(x, "x")
    _check_conformance(spec, x, stack)
    if role == "w":
        return _w_problem(spec, layer, x, stack.basis_product(layer - 1),
                          reconstruct_h(spec, stack, layer))
    if role == "h":
        return _h_problem(spec, layer, x, stack.basis_product(layer))
    raise InvalidInputError(f"role must be 'w' or 'h', got {role!r}")
