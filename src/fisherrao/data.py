"""Datasets: synthetic Gaussian clusters, IDX (MNIST-style) loading, CSV persistence.

The synthetic generator places K class centers on distinct vertices of the
hypercube {-class_sep, +class_sep}^m and draws samples by picking a class
uniformly and adding unit-variance isotropic Gaussian noise to its center.
Train and test sets use disjoint PRNG streams, so resizing one never
perturbs the other.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .rng import STREAM_TEST, STREAM_TRAIN, STREAM_VERTICES, make_rng
from .simplex import check_labels, check_num_classes

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


class DataFormatError(ValueError):
    """Malformed data file; carries the path and a byte offset or line number."""

    def __init__(self, message: str, *, path=None, offset: int | None = None, line: int | None = None):
        where = []
        if path is not None:
            where.append(str(path))
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"byte offset {offset}")
        super().__init__(f"{': '.join(where)}: {message}" if where else message)
        self.path = path
        self.offset = offset
        self.line = line


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # numpy 2's repr would write np.float64(...)
    return str(value)


def write_rows(path, columns, rows) -> None:
    """Write the package's CSV format: ascii, '\n' line ends, a header row.

    A row is a sequence of cells in column order, or a dict keyed by column
    name.  Floats are written with repr (exact round trip), None as ''.
    """
    tmp = f"{path}.tmp"  # all or nothing: a write that raises leaves path as it was
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as f:
            f.write(",".join(columns) + "\n")
            for row in rows:
                cells = [row[c] for c in columns] if isinstance(row, dict) else row
                f.write(",".join(map(_cell, cells)) + "\n")
        os.replace(tmp, path)
    except OSError as exc:  # named by the path asked for, not by the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _decoded(data: bytes, path, encoding: str = "ascii") -> str:
    """data as text, or DataFormatError naming path and the line of the first byte that does not decode."""
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"not {encoding} text: byte 0x{data[exc.start]:02x}", path=path, line=line) from None


def _csv_lines(path) -> list[str]:
    """The lines of an ascii CSV file, read once; DataFormatError on an empty file."""
    with open(path, "rb") as f:
        lines = _decoded(f.read(), path).splitlines()
    if not lines:
        raise DataFormatError("empty file", path=path, line=1)
    return lines


def read_rows(path, columns, parse, lines=None) -> list:
    """``parse(fields)`` of every data row of a CSV whose header is ``columns``.

    ``lines`` are the file's lines when the caller has read them already.
    Raises DataFormatError with the line number on a byte that is not ascii,
    a bad header, a wrong field count, or a ValueError from ``parse``.
    """
    columns = list(columns)
    lines = _csv_lines(path) if lines is None else lines
    header = lines[0].split(",")
    if header != columns:
        raise DataFormatError(f"bad header {header!r}", path=path, line=1)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(columns):
            raise DataFormatError(f"expected {len(columns)} fields, got {len(fields)}", path=path, line=lineno)
        try:
            rows.append(parse(fields))
        except ValueError as exc:
            raise DataFormatError(str(exc), path=path, line=lineno) from None
    return rows


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable feature matrix (N, m) with integer labels (N,) in [0, K)."""

    features: NDArray[np.float64]
    labels: NDArray[np.int64]
    num_classes: int

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels)
        if feats.ndim != 2 or 0 in feats.shape:
            raise ValueError(f"features must be a nonempty (N, m) matrix, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise ValueError(f"labels shape {labels.shape} does not match {feats.shape[0]} samples")
        if feats.size and not (np.isfinite(feats.min()) and np.isfinite(feats.max())):  # no N x m bool mask
            raise ValueError("features must be finite")
        check_num_classes(self.num_classes)
        labels = check_labels(labels, self.num_classes)
        # Freeze a view, never the caller's array; an array already frozen is
        # kept as is, so with_labels shares its features object.
        for name, arr in (("features", feats), ("labels", labels)):
            if arr.flags.writeable:
                arr = arr.view()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def with_labels(self, labels) -> "LabeledDataset":
        """Same features, new labels (used for noise injection)."""
        return LabeledDataset(self.features, np.asarray(labels), self.num_classes)

    def take(self, n: int) -> "LabeledDataset":
        """First n samples, in stored order."""
        if not 0 < n <= len(self):
            raise ValueError(f"cannot take {n} of {len(self)} samples")
        return LabeledDataset(self.features[:n], self.labels[:n], self.num_classes)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the hypercube-cluster generator."""

    n_train: int
    n_test: int
    num_features: int
    num_classes: int
    class_sep: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError("n_train and n_test must be positive")
        if self.num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {self.num_features}")
        check_num_classes(self.num_classes)
        if self.num_classes > 2 ** min(self.num_features, 20):
            raise ValueError(
                f"num_classes {self.num_classes} exceeds the {2 ** min(self.num_features, 20)} "
                f"available hypercube vertices"
            )
        if not np.isfinite(self.class_sep) or self.class_sep <= 0:
            raise ValueError(f"class_sep must be positive and finite, got {self.class_sep}")


def _class_vertices(spec: SyntheticSpec) -> NDArray[np.float64]:
    """K distinct vertices of {-sep, +sep}^m, chosen uniformly (seeded)."""
    rng = make_rng(spec.seed, STREAM_VERTICES)
    m, k = spec.num_features, spec.num_classes
    if m <= 20:
        codes = rng.choice(2**m, size=k, replace=False)
        bits = (codes[:, None] >> np.arange(m)[None, :]) & 1
    else:
        # 2^m vertices is astronomically more than K; rejection keeps the
        # draw exactly uniform over distinct K-subsets.
        seen: set[bytes] = set()
        rows = []
        while len(rows) < k:
            row = rng.integers(0, 2, size=m, dtype=np.int64)
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(row)
        bits = np.stack(rows)
    return spec.class_sep * (2.0 * bits - 1.0)


def _sample_cluster(vertices: NDArray[np.float64], n: int, rng: "np.random.Generator", num_classes: int) -> LabeledDataset:
    labels = rng.integers(0, num_classes, size=n, dtype=np.int64)
    feats = rng.standard_normal((n, vertices.shape[1]))
    for start in range(0, n, 256):  # centers added in row blocks, so the set holds one (n, m) array, not two
        feats[start : start + 256] += vertices[labels[start : start + 256]]
    return LabeledDataset(feats, labels, num_classes)


def generate_synthetic(spec: SyntheticSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic (train, test) pair from the hypercube-cluster law."""
    vertices = _class_vertices(spec)
    train = _sample_cluster(vertices, spec.n_train, make_rng(spec.seed, STREAM_TRAIN), spec.num_classes)
    test = _sample_cluster(vertices, spec.n_test, make_rng(spec.seed, STREAM_TEST), spec.num_classes)
    return train, test


def _read_idx(path, expected_magic: int, expected_dims: int):
    """Parse one IDX file in one pass; returns (dimension sizes, flat ubyte payload).

    The file must be the magic, expected_dims big-endian uint32 sizes, none of
    them 0, and exactly their product in data bytes.  A bad magic (checked
    whenever 4 bytes are present), a short file, trailing bytes or a zero size
    raise DataFormatError with the byte offset.  The payload is a read-only view
    of the bytes read, not a copy.
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) >= 4 and (magic := struct.unpack_from(">I", data)[0]) != expected_magic:
        kind = {IDX_MAGIC_IMAGES: "this is an image file", IDX_MAGIC_LABELS: "this is a label file"}
        detail = kind.get(magic, "not an IDX magic")
        raise DataFormatError(f"bad magic 0x{magic:08x} (expected 0x{expected_magic:08x}; {detail})", path=path, offset=0)
    header = 4 * (1 + expected_dims)
    dims = struct.unpack_from(f">{expected_dims}I", data, 4) if len(data) >= header else ()
    if 0 in dims:
        raise DataFormatError(f"dimension {dims.index(0)} is 0", path=path, offset=4 + 4 * dims.index(0))
    size = header + math.prod(dims) if dims else header  # Python ints: no product wraps
    if len(data) != size:
        problem = "truncated file" if len(data) < size else f"{len(data) - size} trailing bytes"
        raise DataFormatError(f"{problem}: expected {size} bytes, found {len(data)}", path=path,
                              offset=min(len(data), size))
    return dims, np.frombuffer(data, dtype=np.uint8, offset=header)


def load_mnist(images_path, labels_path, num_classes: int = 10) -> LabeledDataset:
    """Load an IDX image/label file pair; features flattened and scaled to [0, 1].

    A malformed file raises DataFormatError naming that file and a byte offset;
    a count mismatch names the image file, and a label out of [0, num_classes)
    the label file.
    """
    (n_img, rows, cols), pixels = _read_idx(images_path, IDX_MAGIC_IMAGES, 3)
    (n_lab,), raw_labels = _read_idx(labels_path, IDX_MAGIC_LABELS, 1)
    if n_img != n_lab:
        raise DataFormatError(f"image count {n_img} does not match label count {n_lab} in {labels_path}",
                              path=images_path, offset=4)
    feats = pixels.reshape(n_img, rows * cols).astype(np.float64)
    feats /= 255.0  # in place: one float64 copy of the pixels, not two
    try:
        return LabeledDataset(feats, raw_labels.astype(np.int64), num_classes)
    except ValueError as exc:
        raise DataFormatError(str(exc), path=labels_path) from None


def save_csv(ds: LabeledDataset, path) -> None:
    """Write 'f0,...,f{m-1},label' rows; floats via repr (exact round-trip)."""
    columns = [f"f{j}" for j in range(ds.num_features)] + ["label"]
    rows = (feats + [label] for feats, label in zip(ds.features.tolist(), ds.labels.tolist()))
    write_rows(path, columns, rows)


def load_csv(path, num_classes: int | None = None) -> LabeledDataset:
    """Read a dataset written by ``save_csv``.

    num_classes defaults to max(label) + 1 (at least 2).  Malformed headers
    or rows raise DataFormatError with the offending line number.
    """
    lines = _csv_lines(path)
    m = max(lines[0].count(","), 1)  # no feature column fails read_rows' header check
    columns = [f"f{j}" for j in range(m)] + ["label"]
    rows = read_rows(path, columns, lambda fields: ([float(v) for v in fields[:-1]], int(fields[-1])), lines)
    if not rows:
        raise DataFormatError("no data rows", path=path, line=1)
    feats, labels = zip(*rows)
    feats, labels = np.array(feats, dtype=np.float64), np.array(labels, dtype=np.int64)
    k = num_classes if num_classes is not None else max(int(labels.max()) + 1, 2)
    for message, bad in (("negative label", labels < 0), ("features must be finite", ~np.isfinite(feats).all(axis=1)),
                         (f"labels out of range [0, {k})", labels >= k)):
        if bad.any():  # the first bad row's line; the header is line 1
            raise DataFormatError(message, path=path, line=int(np.argmax(bad)) + 2)
    try:
        return LabeledDataset(feats, labels, k)
    except ValueError as exc:  # num_classes below 2
        raise DataFormatError(str(exc), path=path, line=1) from None
