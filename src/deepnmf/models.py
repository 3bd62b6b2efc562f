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
quadratic form, so every block subproblem stays quadratic and each module
function below can hand the solver an exact gradient and Lipschitz constant.

This module builds those block subproblems for both training phases:
layer-wise pretraining (factor H_{l-1} ~ W_l H_l in isolation) and
whole-system fine-tuning (blocks of the full product, using the cumulative
basis products and the top-down reconstruction of each representation).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .activations import get_activation
from .apg import ApgProblem, QuadGradient
from .errors import InternalError, InvalidInputError
from .linalg import as_matrix, check_nonneg, frobenius_sq, ones_gram_norm, sym_spectral_norm

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

    def h_penalty(self, layer):
        """(weight, kind) of the representation penalty at 1-based ``layer``.

        kind is ``"ones"`` for the squared column L1 form, ``"ridge"`` for
        the Frobenius form, ``"none"`` otherwise.
        """
        w = self.lam[layer - 1]
        if self.variant in ("sdnmf_r", "sdnmf_rl1"):
            return (w, "ones") if w else (0.0, "none")
        if self.variant == "sdnmf_rl2":
            return (w, "ridge") if w else (0.0, "none")
        return (0.0, "none")


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
        lam, kind = spec.h_penalty(layer)
        if kind == "ones":
            val += 0.5 * lam * _colsum_sq(h)
        elif kind == "ridge":
            val += 0.5 * lam * frobenius_sq(h)
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


def _h_block_problem(gram, lin, n_rows, lam, kind, const):
    """Assemble the H-role problem: grad = gram @ H + lin (+ penalty term)."""
    lc = sym_spectral_norm(gram)
    colsum = ridge = 0.0
    if kind == "ones" and lam:
        colsum = lam
        lc += lam * ones_gram_norm(n_rows)
    elif kind == "ridge" and lam:
        ridge = lam
        lc += lam
    quad = QuadGradient(lin=lin, left=gram, colsum=colsum, ridge=ridge, const=const)
    return ApgProblem.from_quad(quad, max(lc, _LC_FLOOR))


def _w_block_problem(left, right, lin, n_rows, mu, const):
    """Assemble the W-role problem: grad = left @ W @ right + lin (+ penalty)."""
    lc = sym_spectral_norm(right)
    if left is not None:
        lc *= sym_spectral_norm(left)
    if mu:
        lc += mu * ones_gram_norm(n_rows)
    quad = QuadGradient(lin=lin, left=left, right=right,
                        colsum=mu if mu else 0.0, const=const)
    return ApgProblem.from_quad(quad, max(lc, _LC_FLOOR))


def pretrain_problem(spec, layer, role, h_prev, w_cur, h_cur):
    """Block subproblem for layer-wise pretraining on input ``h_prev``.

    Pretraining factorizes h_prev ~ W H in isolation. For role "h" the
    gradient is W'(W H - h_prev) plus the variant's H penalty; for role "w"
    it is (W H - h_prev) H' plus the basis penalty. Lipschitz constants are
    the spectral norms of the corresponding gram matrices plus the penalty
    contributions (the all-ones gram norm is the block-row dimension).
    """
    if not 1 <= layer <= spec.depth:
        raise InvalidInputError(f"layer {layer} out of range 1..{spec.depth}")
    h_prev = as_matrix(h_prev, "h_prev")
    w_cur = as_matrix(w_cur, "w_cur")
    h_cur = as_matrix(h_cur, "h_cur")
    if w_cur.shape[0] != h_prev.shape[0] or h_cur.shape[1] != h_prev.shape[1]:
        raise InvalidInputError("pretrain block shapes do not conform")
    const = 0.5 * frobenius_sq(h_prev)

    if role == "h":
        gram = w_cur.T @ w_cur
        lin = -(w_cur.T @ h_prev)
        lam, kind = spec.h_penalty(layer)
        return _h_block_problem(gram, lin, h_cur.shape[0], lam, kind, const)
    if role == "w":
        right = h_cur @ h_cur.T
        lin = -(h_prev @ h_cur.T)
        return _w_block_problem(None, right, lin, w_cur.shape[0],
                                spec.w_weight(layer), const)
    raise InvalidInputError(f"role must be 'w' or 'h', got {role!r}")


def finetune_problem(spec, layer, role, x, stack):
    """Block subproblem for whole-system fine-tuning (linear models).

    W blocks minimize the full reconstruction error with every other factor
    fixed, substituting the cumulative basis product up to layer-1 and the
    top-down reconstruction of this layer's representation; H blocks fit the
    data against the cumulative basis product through this layer. Penalties
    and Lipschitz constants follow the same pattern as in pretraining, with
    the W-block constant picking up the basis-product gram norm as a factor.
    """
    if spec.activation != "linear":
        raise InvalidInputError(
            "finetune_problem covers linear models; nonlinear fine-tuning "
            "uses the projected-gradient path")
    if not 1 <= layer <= spec.depth:
        raise InvalidInputError(f"layer {layer} out of range 1..{spec.depth}")
    x = as_matrix(x, "x")
    _check_conformance(spec, x, stack)
    const = 0.5 * frobenius_sq(x)

    if role == "w":
        prefix = stack.basis_product(layer - 1)
        h_rec = reconstruct_h(spec, stack, layer)
        right = h_rec @ h_rec.T
        if prefix is None:
            return _w_block_problem(None, right, -(x @ h_rec.T),
                                    stack.w[layer - 1].shape[0],
                                    spec.w_weight(layer), const)
        left = prefix.T @ prefix
        lin = -(prefix.T @ x @ h_rec.T)
        return _w_block_problem(left, right, lin, stack.w[layer - 1].shape[0],
                                spec.w_weight(layer), const)
    if role == "h":
        basis = stack.basis_product(layer)
        gram = basis.T @ basis
        lin = -(basis.T @ x)
        lam, kind = spec.h_penalty(layer)
        return _h_block_problem(gram, lin, stack.h[layer - 1].shape[0],
                                lam, kind, const)
    raise InvalidInputError(f"role must be 'w' or 'h', got {role!r}")
