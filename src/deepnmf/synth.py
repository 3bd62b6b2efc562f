"""Synthetic dataset generators with planted structure.

Three kinds, all deterministic for a fixed seed:

* ``planted_linear`` - sparse nonnegative basis factors, a block-structured
  final representation encoding the classes, data = full product plus
  absolute Gaussian noise.
* ``planted_nonlinear`` - same factors, but the product is unrolled through
  the inverse activation between layers.
* ``blobs`` - Gaussian clusters around well-separated nonnegative centers,
  clipped to the nonnegative orthant.

Both planted kinds form their noise-free data with the model's own chain,
:func:`deepnmf.models.unroll`.
"""

import numpy as np

from .activations import get_activation
from .dataio import DatasetBundle
from .errors import InvalidInputError
from .metrics import Partition
from .models import unroll

KINDS = ("planted_linear", "planted_nonlinear", "blobs")


def _planted_factors(rng, rows, layer_sizes, classes, cols):
    """Sparse nonneg basis chain plus a class-block final representation."""
    sizes = (rows,) + tuple(layer_sizes)
    ws = []
    for a, b in zip(sizes, sizes[1:]):
        w = rng.uniform(0.0, 1.0, size=(a, b))
        w *= rng.random(size=(a, b)) < 0.6
        w /= np.maximum(np.linalg.norm(w, axis=0, keepdims=True), 1e-12)
        ws.append(w)
    k_last = layer_sizes[-1]
    labels = np.arange(cols) * classes // cols
    lo = labels * k_last // classes
    hi = np.maximum((labels + 1) * k_last // classes, lo + 1)
    rows_k = np.arange(k_last)[:, None]
    block = (rows_k >= lo) & (rows_k < hi)
    h_last = np.zeros((k_last, cols))
    # One draw fills the class blocks column by column, top-down in each.
    h_last.T[block.T] = rng.uniform(0.5, 1.5, size=int(block.sum()))
    return ws, h_last, labels


def synth_generate(kind, seed, *, rows=30, cols=100, layer_sizes=(10, 5),
                   classes=5, noise=0.0, activation="root", separation=10.0):
    """Build a DatasetBundle of the requested kind.

    Args:
        kind: one of ``planted_linear``, ``planted_nonlinear``, ``blobs``.
        seed: generator seed; identical seeds give bit-identical bundles.
        rows/cols: data matrix shape (columns are samples).
        layer_sizes: planted factor widths (planted kinds only).
        classes: number of planted clusters.
        noise: Gaussian noise scale, folded to its absolute value.
        activation: inverse projection used by ``planted_nonlinear``.
        separation: center spread relative to unit cluster noise (blobs).
    """
    if kind not in KINDS:
        raise InvalidInputError(f"unknown kind {kind!r}; choose from {KINDS}")
    rows, cols, classes = int(rows), int(cols), int(classes)
    if rows < 1 or cols < 1:
        raise InvalidInputError(f"need positive dims, got {rows}x{cols}")
    if not 1 <= classes <= cols:
        raise InvalidInputError(f"classes must be in [1, {cols}], got {classes}")
    for name, value in (("noise", noise), ("separation", separation)):
        if not 0 <= value < np.inf:
            raise InvalidInputError(
                f"{name} must be a finite number >= 0, got {value}")
    rng = np.random.default_rng(abs(int(seed)))

    if kind == "blobs":
        labels = np.arange(cols) * classes // cols
        centers = rng.uniform(0.5, 1.5, size=(rows, classes)) * float(separation)
        x = centers[:, labels]
        x += rng.standard_normal((rows, cols))
        np.maximum(x, 0.0, out=x)
        return DatasetBundle(x=x, labels=Partition(labels, classes),
                             name=f"blobs-{seed}")

    layer_sizes = tuple(int(k) for k in layer_sizes)
    if any(k < 1 for k in layer_sizes):
        raise InvalidInputError(f"layer sizes must be positive: {layer_sizes}")
    if layer_sizes[-1] < classes:
        raise InvalidInputError(
            f"final layer size {layer_sizes[-1]} cannot encode {classes} classes")
    if layer_sizes[0] > rows:
        raise InvalidInputError(
            f"layer sizes {layer_sizes} do not fit under {rows} rows")
    ws, h_last, labels = _planted_factors(rng, rows, layer_sizes, classes, cols)
    # get_activation rejects "linear" for the nonlinear kind.
    tag = "linear" if kind == "planted_linear" else get_activation(activation).tag
    x = unroll(tag, ws, h_last)[0][0]
    if noise > 0:
        # Folded and clipped in place: one X-sized temporary, the draw.
        draw = rng.normal(0.0, noise, size=x.shape)
        x += np.abs(draw, out=draw)
    np.maximum(x, 0.0, out=x)
    return DatasetBundle(x=x, labels=Partition(labels, classes),
                         name=f"{kind}-{seed}")
