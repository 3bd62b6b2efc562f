"""Elementwise activations and their inverse projections.

Each activation provides the forward map ``g`` (applied to hidden
representations before they feed the next layer), the reconstruction map
``g_inv`` used when unrolling the factorization, and the elementwise
derivative of ``g_inv`` needed by the chain-rule gradients. ``g`` maps
nonnegative inputs to nonnegative outputs so factors stay feasible.

``root`` is the supported default; tanh/sigmoid/softplus are provided for
completeness and clamp their inverse inputs into [``inv_lo``, ``inv_hi``],
away from the domain boundary (root clamps negative inputs to 0). The
clamped inverse is constant outside that interval, so its derivative is 0
there, and the gradients through a chain that leaves the interval stay
exact. ``identity`` exists so the nonlinear code path can be checked
against the linear one.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError

EPS = 1e-7


@dataclass(frozen=True)
class Activation:
    tag: str
    g: Callable[[np.ndarray], np.ndarray]
    g_inv: Callable[[np.ndarray], np.ndarray]
    g_inv_deriv: Callable[[np.ndarray], np.ndarray]
    # Clamp bounds applied to g_inv inputs before inversion.
    inv_lo: float = -np.inf
    inv_hi: float = np.inf

    def clamp(self, y):
        if self.inv_lo == -np.inf and self.inv_hi == np.inf:
            return y
        return np.clip(y, self.inv_lo, self.inv_hi)

    def inverse(self, y):
        return self.g_inv(self.clamp(y))

    def inverse_deriv(self, y):
        """Derivative of :meth:`inverse`: 0 where the clamp holds ``y``
        strictly outside [inv_lo, inv_hi], since the clamped inverse is
        constant there."""
        outside = (y < self.inv_lo) | (y > self.inv_hi)
        return np.where(outside, 0.0, self.g_inv_deriv(self.clamp(y)))


def _root_g(x):
    return np.sqrt(np.maximum(x, 0.0))


# Above log(float64 max), exp overflows, while log1p(exp(x)) = x and
# log(expm1(y)) = y hold exactly in float64.
_EXP_MAX = np.log(np.finfo(np.float64).max)


def _identity_above_exp_max(f):
    def exact(x):
        big = x > _EXP_MAX
        return np.where(big, x, f(np.where(big, 1.0, x)))
    return exact


ACTIVATIONS = {
    "identity": Activation(
        "identity",
        g=lambda x: np.array(x, dtype=np.float64),
        g_inv=lambda y: np.array(y, dtype=np.float64),
        g_inv_deriv=lambda y: np.ones_like(y),
    ),
    "root": Activation(
        "root",
        g=_root_g,
        g_inv=lambda y: y * y,
        g_inv_deriv=lambda y: 2.0 * y,
        inv_lo=0.0,
    ),
    "tanh": Activation(
        "tanh",
        g=np.tanh,
        g_inv=np.arctanh,
        g_inv_deriv=lambda y: 1.0 / (1.0 - y * y),
        inv_lo=0.0,
        inv_hi=1.0 - EPS,
    ),
    "sigmoid": Activation(
        "sigmoid",
        g=lambda x: 1.0 / (1.0 + np.exp(-x)),
        g_inv=lambda y: np.log(y / (1.0 - y)),
        g_inv_deriv=lambda y: 1.0 / (y * (1.0 - y)),
        inv_lo=EPS,
        inv_hi=1.0 - EPS,
    ),
    "softplus": Activation(
        "softplus",
        g=_identity_above_exp_max(lambda x: np.log1p(np.exp(x))),
        g_inv=_identity_above_exp_max(lambda y: np.log(np.expm1(y))),
        g_inv_deriv=lambda y: 1.0 / (-np.expm1(-y)),
        inv_lo=EPS,
    ),
}


def get_activation(tag):
    try:
        return ACTIVATIONS[tag]
    except KeyError:
        raise InvalidInputError(
            f"unknown activation {tag!r}; choose from {sorted(ACTIVATIONS)}"
        ) from None
