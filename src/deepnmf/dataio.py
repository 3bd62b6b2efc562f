"""On-disk formats: matrices, label files, dataset bundles, factor dumps.

Matrix CSV: comma-separated rows, one matrix row per line, no header.

Matrix BIN: bytes 0-5 are the magic ``SDNMF1``; then rows and cols as
unsigned 32-bit little-endian integers; then rows*cols float64 little-endian
values in column-major order.

A dataset bundle is a matrix file (columns are samples) with an optional
``<path>.labels`` sidecar holding one integer class id per line.

A factor directory holds ``W1.bin .. WL.bin``, ``H1.bin .. HL.bin``, a flat
``meta.cfg`` describing the model, and optionally the dataset's labels.
"""

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError, InvalidInputError
from .metrics import Partition, from_labels
from .models import FactorStack, ModelSpec

MAGIC = b"SDNMF1"
_HEADER = len(MAGIC) + 8  # magic + two uint32 dims


def save_matrix(path, m, format=None):
    """Write a matrix as CSV or BIN (format inferred from the suffix)."""
    path = Path(path)
    fmt = format or ("csv" if path.suffix.lower() == ".csv" else "bin")
    m = np.ascontiguousarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"need a 2-d matrix, got ndim={m.ndim}")
    if fmt == "csv":
        with open(path, "w") as fh:
            for row in m:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
    elif fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", m.shape[0], m.shape[1]))
            fh.write(m.astype("<f8").tobytes(order="F"))
    else:
        raise InvalidInputError(f"unknown format {fmt!r}")
    return path


def _load_csv(path):
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataFormatError(
                    f"{path}: line {lineno} has {len(cells)} cells, expected {width}")
            row = []
            for col, cell in enumerate(cells, start=1):
                try:
                    row.append(float(cell))
                except ValueError:
                    raise DataFormatError(
                        f"{path}: non-numeric cell {cell!r} at line {lineno}, "
                        f"column {col}") from None
            rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no rows found")
    return np.array(rows, dtype=np.float64)


def _load_bin(path):
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) or blob[:len(MAGIC)] != MAGIC:
        raise DataFormatError(
            f"{path}: bad magic {blob[:len(MAGIC)]!r} at byte 0, expected {MAGIC!r}")
    if len(blob) < _HEADER:
        raise DataFormatError(
            f"{path}: truncated header, {len(blob)} bytes < {_HEADER}")
    rows, cols = struct.unpack_from("<II", blob, len(MAGIC))
    expected = rows * cols * 8
    found = len(blob) - _HEADER
    if found != expected:
        raise DataFormatError(
            f"{path}: expected {expected} payload bytes for {rows}x{cols} "
            f"matrix, found {found} (payload starts at byte {_HEADER})")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER)
    return np.ascontiguousarray(flat.reshape((rows, cols), order="F"))


def load_matrix(path, format=None, require_nonneg=False):
    """Read a matrix back; ``format`` is csv/bin or inferred from the suffix."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: file not found")
    fmt = format or ("csv" if path.suffix.lower() == ".csv" else "bin")
    if fmt == "csv":
        m = _load_csv(path)
    elif fmt == "bin":
        m = _load_bin(path)
    else:
        raise InvalidInputError(f"unknown format {fmt!r}")
    if not np.all(np.isfinite(m)):
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise DataFormatError(f"{path}: non-finite value at row {i}, column {j}")
    if require_nonneg and m.min() < 0:
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        raise DataFormatError(
            f"{path}: negative entry {m[i, j]} at row {i}, column {j} where a "
            "nonnegative matrix is required")
    return m


def save_labels(path, partition):
    with open(path, "w") as fh:
        for v in partition.labels:
            fh.write(f"{int(v)}\n")


def load_labels(path):
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: file not found")
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                vals.append(int(line))
            except ValueError:
                raise DataFormatError(
                    f"{path}: non-integer label {line!r} at line {lineno}") from None
    if not vals:
        raise DataFormatError(f"{path}: no labels found")
    return from_labels(vals)


@dataclass
class DatasetBundle:
    """A data matrix (columns are samples) with optional ground-truth labels."""

    x: np.ndarray
    labels: Optional[Partition]
    name: str

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != self.x.shape[1]:
            raise InvalidInputError(
                f"{len(self.labels)} labels for {self.x.shape[1]} samples")
        if self.x.min() < 0:
            raise InvalidInputError("bundle matrix must be nonnegative")


def save_bundle(path, bundle):
    path = Path(path)
    save_matrix(path, bundle.x)
    if bundle.labels is not None:
        save_labels(path.with_name(path.name + ".labels"), bundle.labels)
    return path


def load_bundle(path):
    path = Path(path)
    x = load_matrix(path, require_nonneg=True)
    sidecar = path.with_name(path.name + ".labels")
    labels = load_labels(sidecar) if sidecar.exists() else None
    return DatasetBundle(x=x, labels=labels, name=path.stem)


def _write_flat_config(path, items):
    with open(path, "w") as fh:
        for key, value in items:
            fh.write(f"{key} = {value}\n")


def read_flat_config(path):
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: file not found")
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(
                    f"{path}: line {lineno} is not a 'key = value' pair: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def parse_sizes(raw):
    """Comma-separated layer sizes as a tuple of ints; ValueError when an
    entry is not an integer."""
    return tuple(int(v) for v in raw.split(","))


def parse_weights(raw):
    """Comma-separated penalty weights: one number as a float (broadcast
    over the layers by :func:`deepnmf.models.make_spec`), several as a
    tuple; None stays None. ValueError when an entry is not a number."""
    if raw is None:
        return None
    parts = [float(v) for v in raw.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


def parse_entry(path, key, raw, parse):
    """``parse(raw)`` for entry ``key`` of the file ``path``, raising a
    DataFormatError that names both when the value is malformed."""
    try:
        return parse(raw)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {key} = {raw!r}: {exc}") from None


def save_factors(outdir, spec, stack, extra=None):
    """Dump a trained stack into a directory of BIN files plus meta.cfg."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, (w, h) in enumerate(zip(stack.w, stack.h), start=1):
        save_matrix(outdir / f"W{i}.bin", w)
        save_matrix(outdir / f"H{i}.bin", h)
    items = [
        ("variant", spec.variant),
        ("layer_sizes", ",".join(str(k) for k in spec.layer_sizes)),
        ("mu", ",".join(repr(v) for v in spec.mu)),
        ("lambda", ",".join(repr(v) for v in spec.lam)),
        ("activation", spec.activation),
        ("projection_mode", spec.projection_mode),
    ]
    for key, value in (extra or {}).items():
        items.append((key, value))
    _write_flat_config(outdir / "meta.cfg", items)
    return outdir


def load_factors(factors_dir):
    """Read back a factor directory; returns (spec, stack, meta dict)."""
    factors_dir = Path(factors_dir)
    meta_path = factors_dir / "meta.cfg"
    if not meta_path.exists():
        raise DataFormatError(f"{factors_dir}: missing meta.cfg")
    meta = read_flat_config(meta_path)

    def entry(key, parse=str):
        if key not in meta:
            raise DataFormatError(f"{meta_path}: missing {key}")
        return parse_entry(meta_path, key, meta[key], parse)

    sizes = entry("layer_sizes", parse_sizes)
    spec = ModelSpec(
        variant=entry("variant"),
        layer_sizes=sizes,
        mu=np.atleast_1d(entry("mu", parse_weights)),
        lam=np.atleast_1d(entry("lambda", parse_weights)),
        activation=meta.get("activation", "linear"),
        projection_mode=meta.get("projection_mode", "none"),
    )
    ws, hs = [], []
    for i in range(1, len(sizes) + 1):
        ws.append(load_matrix(factors_dir / f"W{i}.bin", require_nonneg=True))
        hs.append(load_matrix(factors_dir / f"H{i}.bin", require_nonneg=True))
    return spec, FactorStack(ws, hs), meta
