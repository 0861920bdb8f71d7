"""Uniform (symmetric) label noise.

Each label is independently kept with probability 1 - eta and otherwise
replaced by a uniform draw over the K - 1 *other* classes, so eta is exactly
the probability that a label changes.  The convenient reparametrization
eta = alpha (1 - 1/K) with alpha in [0, 1) keeps eta inside the regime
eta < (K - 1)/K where the robustness bounds hold.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .rng import STREAM_NOISE, check_seed, make_rng
from .simplex import check_labels, check_num_classes


def check_regime(num_classes: int, eta: float) -> None:
    """Raise ValueError unless K >= 2 and 0 <= eta < (K-1)/K, the regime of the noise law and the bounds."""
    check_num_classes(num_classes)
    limit = (num_classes - 1) / num_classes
    if not 0.0 <= eta < limit:
        raise ValueError(f"eta must lie in [0, (K-1)/K) = [0, {limit}) for K = {num_classes}, got {eta}")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise rate eta, corruption seed, and class count K."""

    eta: float
    seed: int
    num_classes: int

    def __post_init__(self):
        check_regime(self.num_classes, self.eta)
        check_seed(self.seed)


def corrupt_labels(labels, spec: NoiseSpec) -> NDArray[np.int64]:
    """Return a corrupted copy of ``labels`` under the uniform noise law.

    Deterministic given ``spec``; the input array is not modified.  The
    replacement class is sampled by drawing r uniform on [0, K-1) and skipping
    the true class (r + 1 if r >= label), which is exactly uniform over the
    K - 1 wrong classes.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    k = spec.num_classes
    labels = check_labels(labels, k)
    rng = make_rng(spec.seed, STREAM_NOISE)
    # Both arrays are drawn unconditionally so the flip pattern for a given
    # seed does not depend on eta-dependent branching.
    flip = rng.random(labels.size) < spec.eta
    r = rng.integers(0, k - 1, size=labels.size, dtype=np.int64)
    wrong = r + (r >= labels)
    return np.where(flip, wrong, labels)


def alpha_to_eta(alpha: float, num_classes: int) -> float:
    """eta = alpha (1 - 1/K); maps [0, 1) onto [0, (K-1)/K), rounding down where alpha near 1 would reach the limit."""
    check_num_classes(num_classes)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    return min(alpha * (1.0 - 1.0 / num_classes), float(np.nextafter((num_classes - 1) / num_classes, 0.0)))


def eta_to_alpha(eta: float, num_classes: int) -> float:
    """Inverse of ``alpha_to_eta``; the largest eta of the regime can round to alpha = 1.0."""
    check_regime(num_classes, eta)
    return eta * num_classes / (num_classes - 1)
