"""On-disk formats: matrices, label files, dataset bundles, factor dumps.

Matrix CSV: comma-separated rows, one matrix row per line, no header.

Matrix BIN: bytes 0-5 are the magic ``SDNMF1``; then rows and cols as
unsigned 32-bit little-endian integers; then rows*cols float64 little-endian
values in column-major order.

A dataset bundle is a matrix file (columns are samples) with an optional
``<path>.labels`` sidecar holding one integer class id per line.

A factor directory holds ``W1.bin .. WL.bin``, ``H1.bin .. HL.bin``, a flat
``meta.cfg`` describing the model, and optionally the dataset's labels, with
their class ids as given, as ``labels.csv``.
"""

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError, InvalidInputError
from .linalg import as_matrix, check_nonneg
from .metrics import Partition, from_labels
from .models import (ACTIVATION_TAGS, VARIANTS, FactorStack, _check_conformance,
                     make_spec)

MAGIC = b"SDNMF1"
_HEADER = len(MAGIC) + 8  # magic + two uint32 dims
LABELS_FILE = "labels.csv"  # a factor directory's training labels


def _is_csv(path):
    return path.suffix.lower() == ".csv"


def save_matrix(path, m):
    """Write a matrix as CSV (a ``.csv`` suffix) or BIN (any other)."""
    path = Path(path)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"need a 2-d matrix, got ndim={m.ndim}")
    if _is_csv(path):
        with open(path, "w") as fh:
            for row in m:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
    else:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", m.shape[0], m.shape[1]))
            # The C-ordered bytes of m.T are m's column-major bytes; this is
            # the one copy the write makes, and none for an F-ordered m.
            fh.write(np.ascontiguousarray(m.T, dtype="<f8").data)
    return path


def _existing(path):
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: file not found")
    return path


def _lines(path, comment=None):
    """(line number, text) of each non-blank line of the text file
    ``path``, stripped and, with a ``comment`` marker, cut at it."""
    with open(_existing(path)) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = (line if comment is None else line.split(comment, 1)[0]).strip()
            if line:
                yield lineno, line


def _load_csv(path):
    rows = []
    for lineno, line in _lines(path):
        cells = line.split(",")
        if rows and len(cells) != len(rows[0]):
            raise DataFormatError(
                f"{path}: line {lineno} has {len(cells)} cells, expected {len(rows[0])}")
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
    blob = _existing(path).read_bytes()
    if len(blob) < len(MAGIC) or blob[:len(MAGIC)] != MAGIC:
        raise DataFormatError(
            f"{path}: bad magic {blob[:len(MAGIC)]!r} at byte 0, expected {MAGIC!r}")
    if len(blob) < _HEADER:
        raise DataFormatError(
            f"{path}: truncated header, {len(blob)} bytes < {_HEADER}")
    rows, cols = struct.unpack_from("<II", blob, len(MAGIC))
    if not rows or not cols:
        raise DataFormatError(f"{path}: header gives an empty {rows}x{cols} matrix")
    expected = rows * cols * 8
    found = len(blob) - _HEADER
    if found != expected:
        raise DataFormatError(
            f"{path}: expected {expected} payload bytes for {rows}x{cols} "
            f"matrix, found {found} (payload starts at byte {_HEADER})")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER)
    return np.ascontiguousarray(flat.reshape((rows, cols), order="F"))


def load_matrix(path):
    """Read a nonnegative matrix back, as CSV for a ``.csv`` suffix and BIN
    otherwise."""
    path = Path(path)
    m = _load_csv(path) if _is_csv(path) else _load_bin(path)
    if not np.all(np.isfinite(m)):
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise DataFormatError(f"{path}: non-finite value at row {i}, column {j}")
    if m.min() < 0:
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        raise DataFormatError(
            f"{path}: negative entry {m[i, j]} at row {i}, column {j} where a "
            "nonnegative matrix is required")
    return m


def save_labels(path, partition):
    with open(path, "w") as fh:
        fh.write("".join(f"{int(v)}\n" for v in partition.ids[partition.labels]))


def load_labels(path):
    vals = []
    for lineno, line in _lines(path):
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
        self.x = check_nonneg(as_matrix(self.x, "bundle matrix"), "bundle matrix")
        if self.labels is not None and len(self.labels) != self.x.shape[1]:
            raise InvalidInputError(
                f"{len(self.labels)} labels for {self.x.shape[1]} samples")


def save_bundle(path, bundle):
    path = Path(path)
    save_matrix(path, bundle.x)
    if bundle.labels is not None:
        save_labels(path.with_name(path.name + ".labels"), bundle.labels)
    return path


def load_bundle(path):
    path = Path(path)
    x = load_matrix(path)
    sidecar = path.with_name(path.name + ".labels")
    labels = load_labels(sidecar) if sidecar.exists() else None
    return DatasetBundle(x=x, labels=labels, name=path.stem)


def _write_flat_config(path, items):
    with open(path, "w") as fh:
        for key, value in items:
            fh.write(f"{key} = {value}\n")


def read_flat_config(path):
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped,
    and a key given twice is a DataFormatError."""
    out, first_line = {}, {}
    for lineno, line in _lines(path, comment="#"):
        if "=" not in line:
            raise DataFormatError(
                f"{path}: line {lineno} is not a 'key = value' pair: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise DataFormatError(f"{path}: {key} is given on line "
                                  f"{first_line[key]} and again on line {lineno}")
        first_line[key] = lineno
        out[key] = value
    return out


def parse_sizes(raw):
    """Comma-separated layer sizes as a tuple of ints; ValueError when an
    entry is not a positive integer."""
    return tuple(positive_int(v) for v in raw.split(","))


def positive_int(raw):
    """A count that must be a positive integer; ValueError otherwise."""
    value = int(raw)
    if value < 1:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def positive_float(raw):
    """A tolerance that must be a finite number > 0; ValueError otherwise."""
    value = float(raw)
    if not 0 < value < np.inf:
        raise ValueError(f"must be a finite number > 0, got {value}")
    return value


def nonneg_float(raw):
    """A scale or weight that must be a finite number >= 0; ValueError
    otherwise."""
    value = float(raw)
    if not 0 <= value < np.inf:
        raise ValueError(f"must be a finite number >= 0, got {value}")
    return value


def one_of(options, convert=str):
    """A parser of names: ``convert(raw)`` when it is one of ``options``,
    ValueError otherwise."""
    def parse(raw):
        value = convert(raw)
        if value not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return value
    return parse


def parse_bool(raw):
    """true/false, yes/no or 1/0, in any case, as a bool; ValueError otherwise."""
    value = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}.get(raw.lower())
    if value is None:
        raise ValueError("must be true/false, yes/no or 1/0")
    return value


def parse_weights(raw):
    """Comma-separated penalty weights: one number as a float (placed on
    the factors the variant penalizes by :func:`deepnmf.models.make_spec`),
    several as a tuple. ValueError when an entry is not a finite number
    >= 0."""
    parts = [nonneg_float(v) for v in raw.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


def parse_entry(path, key, raw, parse):
    """``parse(raw)`` for entry ``key`` of the file ``path``, raising a
    DataFormatError that names both when the value is malformed."""
    try:
        return parse(raw)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {key} = {raw!r}: {exc}") from None


# The model settings of ``model.*`` config keys and meta.cfg, and their parsers;
# a ``sweep.<name>`` axis parses each of its values with the same one.
MODEL_KEYS = {"variant": one_of(VARIANTS, str.lower), "layer_sizes": parse_sizes,
              "mu": parse_weights, "lambda": parse_weights,
              "activation": one_of(ACTIVATION_TAGS)}


def read_spec(path, raw, prefix="", required=("layer_sizes",)):
    """The ModelSpec of the ``prefix + name`` entries of ``raw`` (read from
    ``path``), each popped and parsed by ``MODEL_KEYS[name]``; absent ones
    take make_spec's defaults (variant ``dnmf``)."""
    for name in required:
        if prefix + name not in raw:
            raise DataFormatError(f"{path}: missing {prefix}{name}")
    settings = {name: parse_entry(path, prefix + name, raw.pop(prefix + name), parse)
                for name, parse in MODEL_KEYS.items() if prefix + name in raw}
    settings["lam"] = settings.pop("lambda", None)
    try:
        return make_spec(settings.pop("variant", "dnmf"), **settings)
    except InvalidInputError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_factors(outdir, spec, stack, extra=None, labels=None):
    """Dump a trained stack into a directory of BIN files plus meta.cfg,
    with ``extra`` entries appended to meta.cfg and, when given, the
    ``labels`` partition as labels.csv. Without ``labels``, a labels.csv
    left in the directory by an earlier dump is removed, so the factors are
    never scored against another dataset's labels."""
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
    ]
    for key, value in (extra or {}).items():
        if key in dict(items):
            raise InvalidInputError(f"extra meta.cfg key {key!r} would replace "
                                    "the model's own entry")
        items.append((key, value))
    _write_flat_config(outdir / "meta.cfg", items)
    if labels is not None:
        save_labels(outdir / LABELS_FILE, labels)
    else:
        (outdir / LABELS_FILE).unlink(missing_ok=True)
    return outdir


def load_factors(factors_dir):
    """Read back a factor directory; returns (spec, stack, meta dict)."""
    factors_dir = Path(factors_dir)
    meta_path = factors_dir / "meta.cfg"
    if not meta_path.exists():
        raise DataFormatError(f"{factors_dir}: missing meta.cfg")
    meta = read_flat_config(meta_path)
    spec = read_spec(meta_path, dict(meta),
                     required=("variant", "layer_sizes", "mu", "lambda"))
    ws, hs = [], []
    for i in range(1, spec.depth + 1):
        ws.append(load_matrix(factors_dir / f"W{i}.bin"))
        hs.append(load_matrix(factors_dir / f"H{i}.bin"))
    try:
        stack = FactorStack(ws, hs)
        _check_conformance(spec, None, stack)
    except InvalidInputError as exc:
        raise DataFormatError(f"{meta_path}: {exc}") from None
    return spec, stack, meta


def load_factor_labels(factors_dir, stack, path=None):
    """The labels of a factor directory's samples, read from ``path`` or
    else from the directory's stored labels; a DataFormatError unless there
    is one label per column of H_L."""
    if path is None:
        path = Path(factors_dir) / LABELS_FILE
        if not path.exists():
            raise DataFormatError(
                f"{factors_dir}: no {LABELS_FILE} stored; scoring and class "
                "drill-down need the training labels")
    labels = load_labels(path)
    if len(labels) != stack.h[-1].shape[1]:
        raise DataFormatError(f"{path}: {len(labels)} labels for "
                              f"{stack.h[-1].shape[1]} samples")
    return labels
