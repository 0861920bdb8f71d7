"""Geometry of the probability simplex.

Distributions over K classes live on the simplex Delta^{K-1}.  The square-root
map z = 2 sqrt(p) embeds the simplex isometrically (for the Fisher information
metric) onto the positive orthant of the radius-2 sphere, which is what makes
the Fisher-Rao distance come out in closed form:

    d_FR(p, q) = 2 arccos( sum_i sqrt(p_i q_i) )        in [0, pi]
    d_H(p, q)  = sqrt( sum_i (sqrt(p_i) - sqrt(q_i))^2 ) in [0, sqrt(2)]

with the exact relation d_FR = 4 arcsin(d_H / 2).
"""

import numpy as np
from numpy.typing import NDArray

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


def check_num_classes(num_classes: int) -> None:
    """Raise ValueError unless K >= 2: the class count of every simplex, loss, bound and noise law."""
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")


def check_labels(labels, num_classes: int) -> NDArray[np.int64]:
    """Return labels as int64, or raise ValueError unless every one is a whole number in [0, num_classes)."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biu" and not np.all(np.floor(labels) == labels):  # NaN fails, +-inf is out of range
        raise ValueError("labels must be whole numbers")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range [0, {num_classes})")
    return labels.astype(np.int64, copy=False)


def one_hot(label: int, num_classes: int) -> NDArray[np.float64]:
    """Vertex of the simplex: e_label in Delta^{num_classes - 1}."""
    check_num_classes(num_classes)
    e = np.zeros(num_classes, dtype=np.float64)
    e[int(check_labels(label, num_classes))] = 1.0
    return e


def softmax(scores) -> NDArray[np.float64]:
    """Numerically stable softmax over the last axis; rejects non-finite scores."""
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("softmax requires finite scores")
    return _softmax(s)


def _softmax(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """softmax of float64 scores already known to be finite, into out (which may be s)."""
    e = np.subtract(s, s.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)


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
    affinity = np.sqrt(p * q).sum(axis=-1)
    return 2.0 * np.arccos(np.clip(affinity, -1.0, 1.0))


def hellinger_distance(p, q):
    """Hellinger distance sqrt(sum_i (sqrt(p_i) - sqrt(q_i))^2), vectorized over leading axes."""
    p, q = _pair(p, q)
    diff = np.sqrt(p) - np.sqrt(q)
    return np.sqrt((diff * diff).sum(axis=-1))


def fisher_rao_from_hellinger(d_h):
    """Exact conversion d_FR = 4 arcsin(d_H / 2)."""
    return 4.0 * np.arcsin(np.clip(np.asarray(d_h, dtype=np.float64) / 2.0, -1.0, 1.0))


def sample_simplex(rng: np.random.Generator, num_classes: int, n: int | None = None) -> NDArray[np.float64]:
    """Draw uniform (flat-Dirichlet) points on Delta^{num_classes-1}.

    Returns shape (num_classes,) when n is None, else (n, num_classes).
    """
    shape = (num_classes,) if n is None else (n, num_classes)
    x = rng.standard_exponential(shape)
    return x / x.sum(axis=-1, keepdims=True)
