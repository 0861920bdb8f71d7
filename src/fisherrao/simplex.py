"""Geometry of the probability simplex.

Distributions over K classes live on the simplex Delta^{K-1}.  The square-root
map z = 2 sqrt(p) embeds the simplex isometrically (for the Fisher information
metric) onto the positive orthant of the radius-2 sphere, which is what makes
the Fisher-Rao distance come out in closed form:

    d_FR(p, q) = 2 arccos( sum_i sqrt(p_i q_i) )        in [0, pi]
    d_H(p, q)  = sqrt( sum_i (sqrt(p_i) - sqrt(q_i))^2 ) in [0, sqrt(2)]

with the exact relation d_FR = 4 arcsin(d_H / 2).

Every bulk function here and in ``losses`` works row by row, so ``_by_rows``
runs it over the leading axis in blocks of ROW_BLOCK rows, whose row sums and
maxima ``_row_sum`` and ``_row_max`` take by column: the bits are the same for
any block size and either form of a reduction.
"""

import numpy as np
from numpy.typing import NDArray

# Rows per block of a bulk call.  A block of 10 float64 columns is 328 KB, so a
# kernel's temporaries stay in the core's L2 cache instead of streaming whole
# arrays through memory (ROADMAP, "Measured and rejected").
ROW_BLOCK = 4096
# _row_max and _row_sum take a C-contiguous block of >= COLUMN_MIN_ROWS rows of 1 to 15 classes by column, the sum in
# numpy's own order, which beats numpy's reduction over such short rows (ROADMAP, "Measured and rejected").
COLUMN_MIN_ROWS = 512

# Tolerance on sum(p) == 1 for validated distributions; entries more negative
# than -NEG_EPS are rejected, anything in [-NEG_EPS, 0) is treated as 0.
SUM_TOL = 1e-9
NEG_EPS = 1e-12


def as_distribution(p, name: str = "p") -> NDArray[np.float64]:
    """Validate and return ``p`` as a probability vector (float64 copy).

    Accepts any 1-D array-like with at least two entries, all finite,
    non-negative up to -1e-12 (tiny negatives from upstream rounding are
    clamped to zero), summing to 1 within 1e-9.
    """
    arr = as_scores(p, name)
    if np.any(arr < -NEG_EPS):
        raise ValueError(f"{name} has negative entries (min {arr.min():.3e})")
    np.maximum(arr, 0.0, out=arr)
    s = arr.sum()
    if abs(s - 1.0) > SUM_TOL:
        raise ValueError(f"{name} must sum to 1 within {SUM_TOL:g}, got sum {s!r}")
    return arr


def as_scores(s, name: str = "scores") -> NDArray[np.float64]:
    """Validate and return ``s`` as a real score vector (float64 copy)."""
    arr = np.array(s, dtype=np.float64, copy=True)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} must be a 1-D vector with >= 2 entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def check_num_classes(num_classes: int) -> int:
    """Return K, or raise ValueError unless K >= 2: the class count of every simplex, loss, bound and noise law."""
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    return num_classes


def check_labels(labels, num_classes: int) -> NDArray[np.int64]:
    """Return labels as int64, or raise ValueError unless every one is a whole number in [0, num_classes)."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biu" and not np.all(np.floor(labels) == labels):  # NaN fails, +-inf is out of range
        raise ValueError("labels must be whole numbers")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range [0, {num_classes})")
    return labels.astype(np.int64, copy=False)


def check_label_shape(labels, rows: int) -> np.ndarray:
    """Return labels as an array, or raise ValueError unless it is one label per row, shape (rows,)."""
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise ValueError(f"labels must be {rows} class indices, got shape {labels.shape}")
    return labels


def one_hot(label: int, num_classes: int) -> NDArray[np.float64]:
    """Vertex of the simplex: e_label in Delta^{num_classes - 1}."""
    check_num_classes(num_classes)
    e = np.zeros(num_classes, dtype=np.float64)
    e[int(check_labels(label, num_classes))] = 1.0
    return e


def softmax(scores) -> NDArray[np.float64]:
    """Numerically stable softmax over the last axis; rejects non-finite scores and an empty or missing last axis."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim == 0 or s.shape[-1] == 0:
        raise ValueError(f"softmax requires scores with a non-empty last axis, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("softmax requires finite scores")
    with np.errstate(over="ignore"):  # a score range past the float maximum shifts to -inf, and exp(-inf) is 0
        return _by_rows(_softmax, np.empty(s.shape), s)


def _softmax(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """softmax of float64 scores already known to be finite, into out (which may be s)."""
    e = np.subtract(s, _row_max(s)[..., None], out=out)
    np.exp(e, out=e)
    return np.divide(e, _row_sum(e)[..., None], out=e)


def _column_block(x: np.ndarray) -> bool:
    """Whether _row_max and _row_sum take x by column: a C-contiguous block of >= COLUMN_MIN_ROWS rows of 1-15 classes."""
    return 0 < x.shape[-1] <= 15 and x.size >= COLUMN_MIN_ROWS * x.shape[-1] and x.flags.c_contiguous


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1); by column, only a zero max's sign can differ, which moves no exp(s - max)."""
    if not _column_block(x):
        return x.max(axis=-1)
    top = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j], out=top)
    return top


def _row_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1) bit for bit (NaN payloads aside), by column on a _column_block.

    numpy adds a contiguous row of fewer than 8 in order, and a row of 8 to 15 as the lanes
    ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7)) and then its tail in order, onto +0.0.
    """
    if not _column_block(x):
        return x.sum(axis=-1)
    k = x.shape[-1]
    if k < 8:
        total = x[..., 0].copy()
    else:
        total = (x[..., 0] + x[..., 1]) + (x[..., 2] + x[..., 3])
        total += (x[..., 4] + x[..., 5]) + (x[..., 6] + x[..., 7])
    for j in range(1 if k < 8 else 8, k):
        total += x[..., j]
    total += 0.0  # the +0.0 start: a row of -0.0 sums to +0.0, and any other sum keeps its bits
    return total


def sphere_embed(p) -> NDArray[np.float64]:
    """Map p to z = 2 sqrt(p), a point on the radius-2 sphere (||z|| = 2)."""
    return 2.0 * np.sqrt(np.asarray(p, dtype=np.float64))


def _pair(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.shape[-1] < 2:
        raise ValueError(f"p and q must share a shape with last axis >= 2, got {p.shape} vs {q.shape}")
    return p, q


def fisher_rao_distance(p, q):
    """Fisher-Rao distance 2 arccos(sum_i sqrt(p_i q_i)), vectorized over leading axes.

    Inputs are assumed to be probability vectors along the last axis (see
    ``as_distribution``); the affinity is clipped to [-1, 1] before arccos so
    rounding at coincident points cannot produce NaN.
    """
    p, q = _pair(p, q)
    return _by_rows(_fisher_rao, np.empty(p.shape[:-1]), p, q)


def _fisher_rao(p: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    affinity = _row_sum(np.sqrt(p * q))
    return np.multiply(2.0, np.arccos(np.clip(affinity, -1.0, 1.0)), out=out)


def hellinger_distance(p, q):
    """Hellinger distance sqrt(sum_i (sqrt(p_i) - sqrt(q_i))^2), vectorized over leading axes."""
    p, q = _pair(p, q)
    return _by_rows(_hellinger, np.empty(p.shape[:-1]), p, q)


def _hellinger(p: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    diff = np.sqrt(p) - np.sqrt(q)
    return np.sqrt(_row_sum(diff * diff), out=out)


def fisher_rao_from_hellinger(d_h):
    """Exact conversion d_FR = 4 arcsin(d_H / 2)."""
    return 4.0 * np.arcsin(np.clip(np.asarray(d_h, dtype=np.float64) / 2.0, -1.0, 1.0))


def sample_simplex(rng: "np.random.Generator", num_classes: int, n: int | None = None) -> NDArray[np.float64]:
    """Draw uniform (flat-Dirichlet) points on Delta^{num_classes-1}.

    Returns shape (num_classes,) when n is None, else (n, num_classes).
    """
    shape = (num_classes,) if n is None else (n, num_classes)
    x = rng.standard_exponential(shape)
    return _by_rows(lambda block, out: np.divide(block, _row_sum(block)[..., None], out=out), x, x)


def _by_rows(kernel, out: np.ndarray, *arrays: np.ndarray):
    """Fill out with kernel(*arrays, out=out), ROW_BLOCK rows of the leading axis at a time.

    The arrays and out share a leading row axis, and kernel must compute each
    row from that row alone.  Arrays with one axis are a single row.  A 0-d
    result is returned as a numpy scalar, as a ufunc returns it.
    """
    if arrays[0].ndim < 2:
        kernel(*arrays, out=out)
    else:
        for i in range(0, len(out), ROW_BLOCK):
            block = slice(i, i + ROW_BLOCK)
            kernel(*(a[block] for a in arrays), out=out[block])
    return out if out.ndim else out[()]
