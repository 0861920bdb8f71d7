import importlib
import math
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fisherrao.bounds import alpha_sweep, bound_A, bound_B, bounds, class_count_sweep
from fisherrao.losses import (
    CE,
    FR,
    HELLINGER,
    MAE,
    MSE,
    LossSpec,
    fr_critical_value,
    fr_sum_bounds,
    loss_sum_range_width,
    qce,
)
from fisherrao.noise import NoiseSpec, alpha_to_eta, check_regime, eta_to_alpha

FINITE_KINDS = [MSE, qce(0.3), qce(0.7), FR, HELLINGER]


def test_fr_sum_bounds_values():
    lower, upper = fr_sum_bounds(2)
    npt.assert_allclose(lower, math.pi**2 / 8, rtol=0, atol=1e-12)
    npt.assert_allclose(upper, math.pi**2 / 4, rtol=0, atol=1e-12)
    lower, upper = fr_sum_bounds(10)
    npt.assert_allclose(lower, 15.601153415459520, rtol=0, atol=1e-9)
    npt.assert_allclose(upper, 22.206609902451057, rtol=0, atol=1e-9)


def test_fr_sum_bounds_ordering_sweep():
    for k in list(range(2, 200)) + [1000, 5000, 10_000]:
        lower, upper = fr_sum_bounds(k)
        assert lower < upper


def test_fr_sum_bounds_match_their_closed_forms_bit_for_bit():
    # the critical values at j = K and j = 1 against (K arccos(1/sqrt(K))^2, (pi^2/4)(K-1)) written out
    for k in range(2, 10**6 + 1):
        lower, upper = fr_sum_bounds(k)
        assert lower == k * math.acos(1.0 / math.sqrt(k)) ** 2 and upper == (math.pi**2 / 4.0) * (k - 1), k


def test_fr_critical_values():
    for k in (2, 5, 12):
        npt.assert_allclose(fr_critical_value(k, 1), (math.pi**2 / 4) * (k - 1), rtol=1e-15)
        npt.assert_allclose(fr_critical_value(k, k), fr_sum_bounds(k)[0], rtol=1e-15)
    npt.assert_allclose(fr_critical_value(3, 2), 3.7011016504085095, rtol=0, atol=1e-12)
    with pytest.raises(IndexError):
        fr_critical_value(3, 0)
    with pytest.raises(IndexError):
        fr_critical_value(3, 4)


def test_critical_values_monotone_in_j():
    # mass spread over more coordinates lowers the loss sum
    vals = [fr_critical_value(10, j) for j in range(1, 11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mae_rows_exactly_zero():
    for k in (2, 10, 100):
        for eta in (0.0, 0.3, 0.49):
            assert bound_A(MAE, k, eta) == 0.0
            assert bound_B(MAE, k, eta) == 0.0
            assert bound_A(qce(0.0), k, eta) == 0.0
            mae = struct.pack("<dd", bound_A(MAE, k, eta), bound_B(MAE, k, eta))
            assert struct.pack("<dd", bound_A(qce(0.0), k, eta), bound_B(qce(0.0), k, eta)) == mae  # sign included


def test_mse_a_row_exactly_eta():
    for k in (2, 10, 1000):
        for eta in (0.1, 0.3, 0.45):
            assert bound_A(MSE, k, eta) == eta


def test_ce_rows_infinite():
    assert bound_A(CE, 10, 0.3) == math.inf
    assert bound_B(CE, 10, 0.3) == -math.inf
    assert bound_A(qce(1.0), 10, 0.3) == math.inf
    assert bound_B(qce(1.0), 10, 0.3) == -math.inf


def test_spot_values():
    # quoted 6-decimal anchors; exact closed forms are pinned against a
    # high-precision oracle in the acceptance suite
    npt.assert_allclose(bound_A(FR, 10, 0.5), 0.366970, rtol=0, atol=2e-6)
    npt.assert_allclose(bound_B(FR, 10, 0.5), -0.825681, rtol=0, atol=2e-6)
    npt.assert_allclose(bound_A(HELLINGER, 10, 0.5), 0.5 * 2 * (math.sqrt(10) - 1) / 9, rtol=1e-14)
    npt.assert_allclose(bound_A(qce(0.7), 10, 0.5), 0.5 * (10**0.7 - 1) / (0.3 * 9), rtol=1e-14)
    npt.assert_allclose(bound_B(MSE, 10, 0.5), -1.125, rtol=0, atol=1e-15)


def test_regime_validation():
    with pytest.raises(ValueError):
        bound_A(FR, 10, 0.9)
    with pytest.raises(ValueError):
        bound_B(FR, 2, 0.5)
    with pytest.raises(ValueError):
        bound_A(FR, 1, 0.1)
    with pytest.raises(ValueError):
        bound_A(FR, 10, -0.1)


def test_signs_and_eta_zero():
    for spec in FINITE_KINDS:
        for k in (2, 10, 100):
            assert bound_A(spec, k, 0.0) == 0.0
            assert bound_B(spec, k, 0.0) == 0.0
            eta = 0.8 * (1 - 1 / k)
            assert bound_A(spec, k, eta) >= 0.0
            assert bound_B(spec, k, eta) <= 0.0


def test_monotone_in_eta():
    for spec in FINITE_KINDS:
        for k in (2, 10, 100):
            etas = np.linspace(0.0, (k - 1) / k - 1e-9, 50)
            a_vals = [bound_A(spec, k, e) for e in etas]
            b_vals = [bound_B(spec, k, e) for e in etas]
            assert all(x <= y + 1e-15 for x, y in zip(a_vals, a_vals[1:]))
            assert all(x >= y - 1e-15 for x, y in zip(b_vals, b_vals[1:]))


def test_a_linear_in_eta():
    for spec in FINITE_KINDS:
        for c in (0.25, 0.5, 0.9):
            base = bound_A(spec, 10, 0.5)
            npt.assert_allclose(bound_A(spec, 10, c * 0.5), c * base, rtol=1e-12)


def test_hellinger_equals_qce_half():
    for k in (2, 10, 1000):
        for eta in (0.1, 0.45):
            npt.assert_allclose(bound_A(HELLINGER, k, eta), bound_A(qce(0.5), k, eta), rtol=1e-14)
            npt.assert_allclose(bound_B(HELLINGER, k, eta), bound_B(qce(0.5), k, eta), rtol=1e-14)


def test_fr_bounds_consistent_with_sum_range():
    for k in (2, 10, 100):
        lower, upper = fr_sum_bounds(k)
        for eta in (0.1, 0.3):
            reconstructed_a = eta * (upper / (k - 1) - lower / (k - 1))
            npt.assert_allclose(bound_A(FR, k, eta), reconstructed_a, rtol=0, atol=1e-12)
            reconstructed_b = -eta * (upper - lower) / (k - 1 - eta * k)
            npt.assert_allclose(bound_B(FR, k, eta), reconstructed_b, rtol=0, atol=1e-12)


def test_vanishing_limits_along_alpha():
    alpha = 0.8
    for spec in (FR, HELLINGER):
        a_100 = bound_A(spec, 100, alpha * (1 - 1 / 100))
        a_10k = bound_A(spec, 10_000, alpha * (1 - 1 / 10_000))
        b_100 = bound_B(spec, 100, alpha * (1 - 1 / 100))
        b_10k = bound_B(spec, 10_000, alpha * (1 - 1 / 10_000))
        assert a_10k < a_100
        assert abs(b_10k) < abs(b_100)


def test_b_blows_up_at_regime_edge():
    eta = 0.9999 * (1 - 1 / 10)
    assert bound_B(FR, 10, eta) < -1000


def test_largest_accepted_eta_never_raises():
    """At the largest eta the regime accepts, K - 1 - eta K can round to 0 (4381 of these K)."""
    zero_denominators = 0
    for k in range(2, 20_001):
        eta = float(np.nextafter((k - 1) / k, 0.0))
        NoiseSpec(eta, 0, k)
        assert eta_to_alpha(eta, k) <= 1.0
        zero_denominators += k - 1 - eta * k == 0.0
        for spec in (*FINITE_KINDS, MAE, qce(0.0)):
            assert math.isfinite(bound_A(spec, k, eta))
            assert bound_B(spec, k, eta) <= 0.0
    assert zero_denominators > 0
    eta = float(np.nextafter(0.9, 0.0))
    assert 10 - 1 - eta * 10 == 0.0
    assert bound_B(FR, 10, eta) == -math.inf and bound_B(MSE, 10, eta) == -math.inf
    assert math.copysign(1.0, bound_B(MAE, 10, eta)) == -1.0 and bound_B(MAE, 10, eta) == 0.0
    assert bound_B(qce(0.0), 10, eta) == 0.0


def test_bounds_result_struct():
    r = bounds(FR, 10, 0.5)
    assert r.A == bound_A(FR, 10, 0.5)
    assert r.B == bound_B(FR, 10, 0.5)
    assert r.num_classes == 10 and r.eta == 0.5 and r.spec == FR


def test_alpha_sweep_rows():
    specs = [MSE, MAE, CE, FR]
    alphas = np.linspace(0.0, 0.9, 10)
    rows = alpha_sweep(specs, 10, alphas)
    assert len(rows) == 40
    ce_rows = [r for r in rows if r["loss"] == "ce"]
    assert all(math.isinf(r["A"]) and math.isinf(r["B"]) for r in ce_rows)
    mae_rows = [r for r in rows if r["loss"] == "mae"]
    assert all(r["A"] == 0.0 and r["B"] == 0.0 for r in mae_rows)
    for r in rows:
        npt.assert_allclose(r["eta"], r["alpha"] * (1 - 1 / 10), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        alpha_sweep(specs, 10, [1.0])


def test_class_count_sweep_rows():
    rows = class_count_sweep([FR], 0.8, [2, 4, 100, 10_000])
    assert [r["K"] for r in rows] == [2, 4, 100, 10_000]
    a = {r["K"]: r["A"] for r in rows}
    assert a[10_000] < a[100] < a[4]  # decreasing beyond the small-K peak
    with pytest.raises(ValueError):
        class_count_sweep([FR], 1.0, [10])


def _ulps_apart(a: float, b: float) -> int:
    """Distance in representable float64 steps between two nonnegative floats."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**4), st.floats(0.0, 1.0, exclude_max=True))
@example(3, 0.9999999999999999)  # alpha_to_eta rounds down to the edge here
@example(10**4, 0.9999999999999999)
def test_eta_near_the_regime_edge(k, alpha):
    eta = alpha_to_eta(alpha, k)
    check_regime(k, eta)
    back = eta_to_alpha(eta, k)
    assert back <= 1.0 and _ulps_apart(back, alpha) <= 2
    edge = float(np.nextafter((k - 1) / k, 0.0))  # the largest eta of the regime
    check_regime(k, edge)
    assert eta_to_alpha(edge, k) <= 1.0
    for spec in (MSE, MAE, FR, HELLINGER, qce(0.7)):
        a, b = bound_A(spec, k, edge), bound_B(spec, k, edge)
        assert math.isfinite(a) and a >= 0.0 and b <= 0.0, spec
    assert (bound_A(CE, k, edge), bound_B(CE, k, edge)) == (math.inf, -math.inf)


def _reference_A(spec, k, eta):
    """A(K, eta) written out on its own, each bound re-checking the regime and re-reading the range."""
    check_regime(k, eta)
    width = loss_sum_range_width(spec, k)
    if width is None:
        return math.inf
    return eta * (width / (k - 1))


def _reference_B(spec, k, eta):
    check_regime(k, eta)
    width = loss_sum_range_width(spec, k)
    if width is None:
        return -math.inf
    denominator = k - 1 - eta * k
    if denominator <= 0.0:
        return -math.inf if width else -0.0
    return -eta * width / denominator


_SPECS = st.one_of(
    st.sampled_from([MSE, MAE, CE, FR, HELLINGER]),
    st.floats(0.0, 1.0).map(qce),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 10**4), st.floats(0.0, 1.0, exclude_max=True), _SPECS)
@example(10, 0.9999999999999999, FR)  # eta at the regime edge, where K - 1 - eta K rounds to 0
@example(10, 0.9999999999999999, MAE)  # a zero width there: B is -0.0
def test_bounds_equal_the_written_out_formulas_bit_for_bit(k, alpha, spec):
    eta = alpha_to_eta(alpha, k)
    expected = struct.pack("<dd", _reference_A(spec, k, eta), _reference_B(spec, k, eta))
    result = bounds(spec, k, eta)
    assert struct.pack("<dd", bound_A(spec, k, eta), bound_B(spec, k, eta)) == expected
    assert struct.pack("<dd", result.A, result.B) == expected
    row = alpha_sweep([spec], k, [alpha])[0]
    assert struct.pack("<dd", row["A"], row["B"]) == expected


def test_regime_check_and_range_read_once_per_bound_and_row(monkeypatch):
    module = importlib.import_module("fisherrao.bounds")  # the package's bounds attribute is the function
    calls = {"check_regime": 0, "loss_sum_range_width": 0}

    def counted(name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted("check_regime")
    counted("loss_sum_range_width")
    specs = [LossSpec.parse(text) for text in ("mse", "mae", "ce", "qce:0.7", "fr", "hellinger")]
    assert len(alpha_sweep(specs, 10, np.linspace(0.0, 0.99, 100))) == 600
    assert calls == {"check_regime": 600, "loss_sum_range_width": 600}
    for bound in (bound_A, bound_B, bounds):
        calls.update(check_regime=0, loss_sum_range_width=0)
        bound(FR, 10, 0.5)
        assert calls == {"check_regime": 1, "loss_sum_range_width": 1}, bound
