"""Classification losses as functions of the predicted distribution.

Every loss here compares the softmax output p to the one-hot target e_y.
Apart from MSE they all reduce to a scalar function of the true-class
probability t = p_y:

    MSE        ||p - e_y||^2            = ||p||^2 - 2 t + 1
    MAE        (1/2) ||p - e_y||_1      = 1 - t
    CE         -ln t
    q-CE       -log_q t                 = (1 - t^(1-q)) / (1 - q)
    FR         arccos(sqrt(t))^2        (squared Fisher-Rao distance / 4)
    Hellinger  2 (1 - sqrt(t))          (squared Hellinger distance)

q-CE interpolates the family: q = 0 is MAE, q = 1/2 is the Hellinger loss,
q -> 1 recovers CE.  For t on (0, 1] the pointwise ordering
MAE <= Hellinger <= FR <= CE holds.

Gradients with respect to scores use t clamped to [CLAMP_EPS, 1] in both the
derivative factor |h'(t)| and the multiplier t, so the CE gradient stays
exactly p - e_y and every factor stays finite.

Each kind is one row of ``_KIND_TABLE``: h, which turns a sample's loss
statistic into its loss, |h'(t)| and the width of the range of sum_y L(p, y)
over the simplex, which sets the robustness bounds.  The statistic is t, or
||p||^2 - 2 t for MSE, whose row has no |h'(t)|.  The loss-layer formulas live
in the stacked kernel alone (``_true_class``, ``_loss_stat``,
``_losses_from_stat`` and ``_score_gradients_into``), which takes one LossSpec
for the whole stack: the training step's ``_loss_layer`` runs it on the R
members of a lockstep group, which all train the same loss, and
``score_gradients`` and ``loss_values`` are its one-member case.  The step
stores one statistic per sample, from which ``_batch_mean_losses`` takes the
mean loss of each batch.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .simplex import (_by_rows, _softmax, as_distribution, as_scores, check_label_shape, check_labels, check_num_classes,
                      softmax)

# Probabilities are clamped to at least this before logs / negative powers.
CLAMP_EPS = 1e-12


def fr_critical_value(num_classes: int, j: int) -> float:
    """Critical value of the FR loss sum with j coordinates active.

    The stationary points of sum_y L_FR on the simplex place equal mass 1/j
    on j coordinates and zero elsewhere, giving
    F = (K - j) pi^2/4 + j arccos(1/sqrt(j))^2.  j = K gives the lower
    bound of ``fr_sum_bounds``, j = 1 the upper bound.
    """
    check_num_classes(num_classes)
    if not 1 <= j <= num_classes:
        raise IndexError(f"j must lie in [1, {num_classes}], got {j}")
    return (num_classes - j) * math.pi**2 / 4.0 + j * math.acos(1.0 / math.sqrt(j)) ** 2


def fr_sum_bounds(num_classes: int) -> tuple[float, float]:
    """Range of sum_y L_FR(p, y) over the simplex.

    Returns (K arccos(1/sqrt(K))^2, (pi^2/4)(K-1)); the minimum is attained
    at the uniform distribution, the maximum at the vertices.
    """
    return fr_critical_value(num_classes, num_classes), fr_critical_value(num_classes, 1)


def _clamp(t):
    return np.clip(t, CLAMP_EPS, 1.0)


def _fr_h(t, q):
    return np.arccos(np.sqrt(_clamp(t))) ** 2


def _fr_h_prime_abs(t, q):
    # |h'(t)| = arcsin(w) / (w sqrt(t)) with w = sqrt(1 - t).  On float64 t in [CLAMP_EPS, 1], w is 0 at t = 1,
    # the removable singularity with limit 1/sqrt(t), and otherwise at least sqrt(2^-53) = 1.05e-8.
    w = np.sqrt(1.0 - t)
    below_one = w > 0.0  # t < 1
    return np.where(below_one, np.arcsin(w) / np.where(below_one, w, 1.0), 1.0) / np.sqrt(t)


def _fr_width(k, q):
    lower, upper = fr_sum_bounds(int(k))
    return upper - lower


def _qce_width(k, q):
    if q == 0.0:
        return 0.0  # MAE row
    if q == 1.0:
        return None  # CE row
    return (k**q - 1.0) / (1.0 - q)


class _Kind(NamedTuple):
    # Every function also takes the q-CE exponent q (None for other kinds).
    h: Callable  # (stat, q) -> loss, stat _loss_stat's unclamped statistic
    h_prime_abs: Callable | None  # (t, q) -> |h'(t)|, t already clamped to [CLAMP_EPS, 1]; None for MSE
    sum_width: Callable  # (K, q) -> S_max - S_min of sum_y L(p, y); None if unbounded


_KIND_TABLE = {
    # MSE's sum K (||p||^2 + 1) - 2 ranges over [K - 1, 2 (K - 1)]
    "mse": _Kind(lambda stat, q: stat + 1.0, None, lambda k, q: k - 1.0),
    "mae": _Kind(lambda t, q: 1.0 - t, lambda t, q: np.ones_like(t), lambda k, q: 0.0),
    "ce": _Kind(lambda t, q: -np.log(_clamp(t)), lambda t, q: 1.0 / t, lambda k, q: None),
    # q = 0 is MAE exactly: the unclamped 1 - t, as _qce_width gives it MAE's width
    "qce": _Kind(lambda t, q: 1.0 - t if q == 0.0 else -q_logarithm(_clamp(t), q), lambda t, q: t ** (-q), _qce_width),
    "fr": _Kind(_fr_h, _fr_h_prime_abs, _fr_width),
    "hellinger": _Kind(
        lambda t, q: 2.0 * (1.0 - np.sqrt(_clamp(t))),
        lambda t, q: 1.0 / np.sqrt(t),
        lambda k, q: 2.0 * (math.sqrt(k) - 1.0),
    ),
}

KINDS = tuple(_KIND_TABLE)


def _exact_g(x: float) -> str:
    """x as ``:g`` formats it when that text reads back as x, else as its repr, so distinct values read distinct."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


@dataclass(frozen=True)
class LossSpec:
    """A loss selection: a kind plus, for q-CE, the exponent q in [0, 1]."""

    kind: str
    q: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "qce":
            if self.q is None:
                raise ValueError("qce requires q")
            if not 0.0 <= float(self.q) <= 1.0:
                raise ValueError(f"q must lie in [0, 1], got {self.q}")
            object.__setattr__(self, "q", float(self.q))
        elif self.q is not None:
            raise ValueError(f"q is only meaningful for qce, not {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "LossSpec":
        """Parse 'mse' | 'mae' | 'ce' | 'fr' | 'hellinger' | 'qce:<q>'."""
        text = text.strip().lower()
        if text.startswith("qce"):
            _, sep, qs = text.partition(":")
            if not sep:
                raise ValueError("qce needs an exponent, e.g. 'qce:0.7'")
            try:
                q = float(qs)
            except ValueError:
                raise ValueError(f"bad q value {qs!r} in {text!r}") from None
            return cls("qce", q)
        return cls(text)

    @property
    def label(self) -> str:
        return f"qce(q={self.q:g})" if self.kind == "qce" else self.kind

    def __str__(self) -> str:
        return f"qce:{_exact_g(self.q)}" if self.kind == "qce" else self.kind


MSE = LossSpec("mse")
MAE = LossSpec("mae")
CE = LossSpec("ce")
FR = LossSpec("fr")
HELLINGER = LossSpec("hellinger")


def qce(q: float) -> LossSpec:
    return LossSpec("qce", q)


def q_logarithm(x, q: float):
    """Tsallis q-logarithm log_q(x) = (x^(1-q) - 1) / (1 - q); log_1 = ln.

    Defined for x > 0 and continuous in q: |1 - q| < 1e-12 is routed to the
    ln branch.  Away from the endpoints the power is evaluated as
    expm1((1-q) ln x), which keeps the small numerator accurate as q -> 1;
    q = 0 short-circuits to x - 1 exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("q_logarithm requires x > 0")
    if abs(1.0 - q) < 1e-12:
        return np.log(x)
    if q == 0.0:
        return x - 1.0
    return np.expm1((1.0 - q) * np.log(x)) / (1.0 - q)


def _p_y_kind(spec: LossSpec) -> _Kind:
    """spec's row of _KIND_TABLE; MSE, which has no |h'(t)|, raises ValueError."""
    kind = _KIND_TABLE[spec.kind]
    if kind.h_prime_abs is None:
        raise ValueError(f"{spec.kind} is not a function of the true-class probability alone")
    return kind


def gradient_weight(spec: LossSpec, t) -> NDArray[np.float64]:
    """|h'(t)| t with t clamped to [CLAMP_EPS, 1]: the factor on p - e_y in the score gradient; not for MSE."""
    kind, t = _p_y_kind(spec), _clamp(np.asarray(t, dtype=np.float64))
    return kind.h_prime_abs(t, spec.q) * t


def _true_class(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p_y's flat index, t = p_y (R, n)) for probs (R, n, K) and labels (R, n), already through check_labels."""
    r, n, k = probs.shape
    at_y = np.arange(0, r * n * k, k) + labels.reshape(-1)
    return at_y, probs.reshape(-1)[at_y].reshape(r, n)


def _loss_stat(spec: LossSpec, probs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The one number per sample that its loss needs: t = p_y, or ||p||^2 - 2 t for MSE."""
    if spec.kind == "mse":
        return (probs * probs).sum(axis=-1) - 2.0 * t
    return t


def _losses_from_stat(spec: LossSpec, stat: np.ndarray) -> NDArray[np.float64]:
    """Per-sample losses from _loss_stat's statistic."""
    return _KIND_TABLE[spec.kind].h(stat, spec.q)


def _bulk_arguments(probs, labels) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
    """probs as float64 (n, K) and labels as checked int64 (n,), or raise ValueError."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError(f"probs must be n distributions of shape (n, K), got shape {probs.shape}")
    return probs, check_labels(check_label_shape(labels, probs.shape[0]), probs.shape[1])


def loss_values(spec: LossSpec, probs, labels) -> NDArray[np.float64]:
    """Per-sample losses for a batch: probs (n, K) distributions, labels (n,) ints."""
    probs, labels = _bulk_arguments(probs, labels)
    return _by_rows(partial(_loss_rows, spec), np.empty(labels.shape), probs, labels)


def _loss_rows(spec: LossSpec, probs: np.ndarray, labels: np.ndarray, out: np.ndarray) -> None:
    out[...] = _losses_from_stat(spec, _loss_stat(spec, probs[None], _true_class(probs[None], labels[None])[1]))[0]


def loss_value(spec: LossSpec, p, y: int) -> float:
    """Loss of a single predicted distribution p against true label y."""
    p = as_distribution(p)
    return float(loss_values(spec, p[None, :], np.array([y]))[0])


def h_prime_abs(spec: LossSpec, t) -> NDArray[np.float64]:
    """|h'(t)| where the loss is h(p_y); t is clamped to [CLAMP_EPS, 1].

    MAE -> 1, CE -> 1/t, q-CE -> t^(-q), Hellinger -> t^(-1/2), and
    FR -> arccos(sqrt(t)) / sqrt(t (1 - t)), whose t -> 1 singularity is
    removable with limit 1.  MSE is not a function of p_y alone.
    """
    return _p_y_kind(spec).h_prime_abs(_clamp(np.asarray(t, dtype=np.float64)), spec.q)


def loss_sum_range_width(spec: LossSpec, num_classes: int) -> float | None:
    """S_max - S_min for sum_y L(p, y) over the K-simplex; None means unbounded."""
    return _KIND_TABLE[spec.kind].sum_width(float(num_classes), spec.q)


def _score_gradients_into(probs: np.ndarray, at_y: np.ndarray, t: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Per-sample score gradients in place of the C-contiguous probs (R, n, K) = softmax(scores).

    at_y and t are _true_class's.  For the p_y-only losses the chain rule
    gives |h'(t)| * t * (p - e_y); the clamped t appears in both factors, so
    CE yields exactly p - e_y.  MSE's gradient is v - p * sum(v) with
    v = (2 p - 2 e_y) * p.
    """
    if spec.kind == "mse":
        v = 2.0 * probs
        v.reshape(-1)[at_y] -= 2.0
        v *= probs
        probs *= v.sum(axis=-1, keepdims=True)
        np.subtract(v, probs, out=probs)
    else:
        probs.reshape(-1)[at_y] = t.reshape(-1) - 1.0
        probs *= gradient_weight(spec, t)[..., None]
    return probs


def _loss_layer(scores: np.ndarray, labels: np.ndarray, spec: LossSpec, stat: np.ndarray) -> np.ndarray:
    """Score gradient of each member's mean batch loss, in place of the stacked scores (R, n, K).

    Per member this is score_gradients(spec, ...) / n, bit for bit, whatever the others' scores hold;
    stat (R, n) receives each sample's _loss_stat, taken before the gradient overwrites the probabilities.
    """
    probs = _softmax(scores, out=scores)
    at_y, t = _true_class(probs, labels)
    stat[...] = _loss_stat(spec, probs, t)
    return np.divide(_score_gradients_into(probs, at_y, t, spec), scores.shape[1], out=probs)


def _batch_mean_losses(stat: np.ndarray, spec: LossSpec, batch_size: int) -> np.ndarray:
    """Mean loss per member (row) and batch (column) from the statistics stored by _loss_layer.

    A batch is batch_size consecutive columns, the last one possibly fewer;
    each mean is loss_values(...).mean() of that batch, bit for bit.
    """
    losses = _losses_from_stat(spec, stat)
    r, n = stat.shape
    full = n - n % batch_size
    means = losses[:, :full].reshape(r, -1, batch_size).mean(axis=2)
    return np.concatenate([means, losses[:, full:].mean(axis=1, keepdims=True)], axis=1) if full < n else means


def score_gradients(spec: LossSpec, probs, labels) -> NDArray[np.float64]:
    """Per-sample gradients d loss / d scores, shape (n, K), given probs = softmax(scores)."""
    probs, labels = _bulk_arguments(probs, labels)
    return _by_rows(partial(_gradient_rows, spec), np.empty(probs.shape), probs, labels)


def _gradient_rows(spec: LossSpec, probs: np.ndarray, labels: np.ndarray, out: np.ndarray) -> None:
    out[...] = probs  # out is C-contiguous, as the in-place kernel needs
    _score_gradients_into(out[None], *_true_class(out[None], labels[None]), spec)


def loss_gradient_scores(spec: LossSpec, scores, y: int) -> NDArray[np.float64]:
    """Gradient of the loss with respect to a single raw score vector."""
    p = softmax(as_scores(scores))
    return score_gradients(spec, p[None, :], np.array([y]))[0]


def loss_sum_over_classes(spec: LossSpec, p) -> float:
    """Sum of the loss over all possible true labels, sum_y L(p, y).

    Closed forms: MAE gives K - 1 identically; MSE gives K (||p||^2 + 1) - 2,
    which ranges over [K - 1, 2 (K - 1)]; FR ranges over
    [K arccos(1/sqrt(K))^2, (pi^2/4) (K - 1)] (see ``fr_sum_bounds``).
    """
    p = as_distribution(p)
    k = p.size
    return float(loss_values(spec, np.broadcast_to(p, (k, k)), np.arange(k)).sum())
