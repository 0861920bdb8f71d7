"""Closed-form robustness bounds under uniform label noise.

For noise rate eta < (K-1)/K the excess risks of minimizing a loss on noisy
labels are controlled by two constants: R^eta(f*) - R^eta(f-hat) <= A(K, eta)
and R(f*) - R(f-hat) >= B(K, eta).  Both derive from how far the loss summed
over all possible true labels, sum_y L(p, y), can move as p varies: a loss
whose sum is constant (MAE) gets A = B = 0, an unbounded sum (CE) gives
A = +inf, B = -inf, and in between

    A = eta * (S_max - S_min) / (K - 1)
    B = -eta * (S_max - S_min) / (K - 1 - eta K)

with (S_min, S_max) the range of the loss sum.  For the Fisher-Rao loss that
range is (K arccos(1/sqrt(K))^2, (pi^2/4)(K-1)); for MSE it is (K-1, 2(K-1));
for q-CE with q in (0, 1) the difference S_max - S_min equals (K^q - 1)/(1-q),
whose q = 1/2 case is the Hellinger row 2(sqrt(K) - 1).
"""

import math
from dataclasses import dataclass

from .losses import KINDS, LossSpec, fr_critical_value, fr_sum_bounds, loss_sum_range_width
from .noise import alpha_to_eta, check_regime

SWEEP_COLUMNS = ("loss", "q", "K", "alpha", "eta", "A", "B")


def bound_A(spec: LossSpec, num_classes: int, eta: float) -> float:
    """Upper bound A(K, eta) on the noisy-risk gap; +inf for CE-like losses."""
    check_regime(num_classes, eta)
    width = loss_sum_range_width(spec, num_classes)
    if width is None:
        return math.inf
    # group the K-only factor so the MSE row comes out as exactly eta
    return eta * (width / (num_classes - 1))


def bound_B(spec: LossSpec, num_classes: int, eta: float) -> float:
    """Lower bound B(K, eta) on the clean-risk gap; -inf for CE-like losses."""
    check_regime(num_classes, eta)
    width = loss_sum_range_width(spec, num_classes)
    if width is None:
        return -math.inf
    denominator = num_classes - 1 - eta * num_classes
    if denominator <= 0.0:  # the largest eta below (K-1)/K can round it to 0; B's limit there
        return -math.inf if width else -0.0
    return -eta * width / denominator


@dataclass(frozen=True)
class BoundResult:
    spec: LossSpec
    num_classes: int
    eta: float
    A: float
    B: float


def bounds(spec: LossSpec, num_classes: int, eta: float) -> BoundResult:
    return BoundResult(
        spec=spec,
        num_classes=num_classes,
        eta=eta,
        A=bound_A(spec, num_classes, eta),
        B=bound_B(spec, num_classes, eta),
    )


def _sweep_rows(specs: list[LossSpec], points) -> list[dict]:
    """One row per (alpha, K) point and spec, keyed by SWEEP_COLUMNS."""
    rows = []
    for alpha, k in points:
        eta = alpha_to_eta(alpha, k)
        for spec in specs:
            values = (spec.kind, spec.q, k, alpha, eta, bound_A(spec, k, eta), bound_B(spec, k, eta))
            rows.append(dict(zip(SWEEP_COLUMNS, values)))
    return rows


def alpha_sweep(specs: list[LossSpec], num_classes: int, alphas) -> list[dict]:
    """Bound curves at fixed K over a grid of alpha = eta K/(K-1) in [0, 1).

    Returns one row per (alpha, spec): dict with keys
    loss, q, K, alpha, eta, A, B (A/B are +/-inf for CE).
    """
    return _sweep_rows(specs, ((float(alpha), num_classes) for alpha in alphas))


def class_count_sweep(specs: list[LossSpec], alpha: float, class_counts) -> list[dict]:
    """Bound curves at fixed alpha over a grid of class counts K >= 2."""
    return _sweep_rows(specs, ((float(alpha), int(k)) for k in class_counts))


# Re-export for callers that build specs from strings at sweep time.
__all__ = [
    "BoundResult",
    "KINDS",
    "SWEEP_COLUMNS",
    "alpha_sweep",
    "bound_A",
    "bound_B",
    "bounds",
    "class_count_sweep",
    "fr_critical_value",
    "fr_sum_bounds",
]
