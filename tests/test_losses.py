import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fisherrao.losses import (
    CE,
    CLAMP_EPS,
    FR,
    HELLINGER,
    MAE,
    MSE,
    LossSpec,
    gradient_weight,
    h_prime_abs,
    loss_gradient_scores,
    loss_sum_over_classes,
    loss_sum_range_width,
    loss_value,
    loss_values,
    q_logarithm,
    qce,
    score_gradients,
    _KIND_TABLE,
)
from fisherrao.rng import make_rng
from fisherrao.simplex import sample_simplex, softmax

ALL_KINDS = [MSE, MAE, CE, qce(0.7), FR, HELLINGER]


# ---------------------------------------------------------------- LossSpec

def test_spec_parse_and_label():
    assert LossSpec.parse("fr") == FR
    assert LossSpec.parse(" CE ") == CE
    assert LossSpec.parse("qce:0.7") == qce(0.7)
    assert str(qce(0.7)) == "qce:0.7"
    assert qce(0.25).label == "qce(q=0.25)"
    assert FR.label == "fr"


@pytest.mark.parametrize("bad", ["qce", "qce:", "qce:abc", "qce:1.5", "qce:-0.1", "huber", ""])
def test_spec_parse_rejects(bad):
    with pytest.raises(ValueError):
        LossSpec.parse(bad)


def test_spec_q_only_for_qce():
    with pytest.raises(ValueError):
        LossSpec("ce", q=0.5)
    with pytest.raises(ValueError):
        LossSpec("qce")


# ------------------------------------------------------------- q-logarithm

def test_q_logarithm():
    assert q_logarithm(1.0, 0.3) == 0.0
    npt.assert_allclose(q_logarithm(np.e, 1.0), 1.0, rtol=0, atol=1e-15)
    npt.assert_allclose(q_logarithm(4.0, 0.5), 2.0, rtol=0, atol=1e-15)
    # within 1e-12 of q = 1 routes to the ln branch
    npt.assert_array_equal(q_logarithm(0.3, 1.0 - 1e-13), np.log(0.3))
    # q = 0 is exactly x - 1, bit for bit
    x = np.array([1e-300, 0.3, 1.0, 7.5, 1e300])
    assert q_logarithm(x, 0.0).tobytes() == (x - 1.0).tobytes()
    with pytest.raises(ValueError):
        q_logarithm(0.0, 0.5)
    with pytest.raises(ValueError):
        q_logarithm(-1.0, 0.5)


# -------------------------------------------------------------- loss values

def test_loss_value_examples():
    assert loss_value(FR, [1.0, 0.0], 0) == 0.0
    npt.assert_allclose(loss_value(FR, [0.25, 0.75], 0), (np.pi / 3) ** 2, rtol=0, atol=1e-12)
    npt.assert_allclose(loss_value(FR, [0.25, 0.75], 0), 1.0966227112321510, rtol=0, atol=1e-12)
    npt.assert_allclose(loss_value(HELLINGER, [0.25, 0.75], 0), 1.0, rtol=0, atol=1e-15)
    npt.assert_allclose(loss_value(MSE, [0.7, 0.2, 0.1], 0), 0.14, rtol=0, atol=1e-15)
    npt.assert_allclose(loss_value(qce(0.7), [0.5, 0.5], 0), 0.6258253454792149, rtol=0, atol=1e-15)
    npt.assert_allclose(loss_value(CE, [0.5, 0.5], 1), np.log(2.0), rtol=0, atol=1e-15)
    npt.assert_allclose(loss_value(MAE, [0.6, 0.4], 0), 0.4, rtol=0, atol=1e-15)


def test_loss_value_validates():
    with pytest.raises(ValueError):
        loss_value(CE, [0.5, 0.5], 2)
    with pytest.raises(ValueError):
        loss_value(CE, [0.6, 0.6], 0)


def test_losses_nonnegative_zero_at_vertex():
    rng = make_rng(20, 99)
    p = sample_simplex(rng, 6, 300)
    y = rng.integers(0, 6, size=300)
    for spec in ALL_KINDS:
        vals = loss_values(spec, p, y)
        assert np.all(vals >= 0.0)
        hit = np.zeros(6)
        hit[2] = 1.0
        assert loss_values(spec, hit[None, :], np.array([2]))[0] == 0.0


def test_ce_clamped_at_zero_probability():
    val = loss_values(CE, np.array([[0.0, 1.0]]), np.array([0]))[0]
    npt.assert_allclose(val, -np.log(1e-12), rtol=1e-12)


def test_h_form_losses_depend_only_on_true_class_prob():
    rng = make_rng(21, 99)
    for spec in [MAE, CE, qce(0.3), FR, HELLINGER]:
        for _ in range(30):
            p = sample_simplex(rng, 5)
            # redistribute mass among the wrong classes, keeping p_y fixed
            other = sample_simplex(rng, 4) * (1.0 - p[0])
            p2 = np.concatenate([[p[0]], other])
            a = loss_values(spec, p[None, :], np.array([0]))[0]
            b = loss_values(spec, p2[None, :], np.array([0]))[0]
            assert abs(a - b) <= 1e-12


# --------------------------------------------------------------- reductions

def test_qce_reduces_to_mae_hellinger_ce():
    # 0 and 1e-15 lie below CLAMP_EPS, where q = 0 must still be MAE exactly
    t = np.concatenate([[0.0, 1e-15], np.linspace(1e-6, 1.0, 2001)])
    probs = np.stack([t, 1.0 - t], axis=1)
    y = np.zeros(t.size, dtype=np.int64)
    mae = loss_values(MAE, probs, y)
    q0 = loss_values(qce(0.0), probs, y)
    npt.assert_array_equal(q0, mae)  # identical, not just close
    hel = loss_values(HELLINGER, probs, y)
    q_half = loss_values(qce(0.5), probs, y)
    npt.assert_allclose(q_half, hel, rtol=0, atol=1e-12)
    ce = loss_values(CE, probs, y)
    q_near1 = loss_values(qce(1.0 - 1e-9), probs, y)
    npt.assert_allclose(q_near1, ce, rtol=0, atol=1e-6)
    # at a vertex the q = 0 loss sum is MAE's K - 1, matching its bound width 0
    assert loss_sum_over_classes(qce(0.0), np.eye(10)[0]) == 9.0


def test_inequality_chain_on_grid():
    t = np.linspace(1e-4, 1.0, 10_000)
    probs = np.stack([t, 1.0 - t], axis=1)
    y = np.zeros(t.size, dtype=np.int64)
    mae = loss_values(MAE, probs, y)
    hel = loss_values(HELLINGER, probs, y)
    fr = loss_values(FR, probs, y)
    ce = loss_values(CE, probs, y)
    assert np.all(mae <= hel)
    assert np.all(hel <= fr)
    assert np.all(fr <= ce + 1e-15)


def test_fr_qce_asymptotic_agreement_near_one():
    t = np.linspace(0.99, 1.0, 5000)
    probs = np.stack([t, 1.0 - t], axis=1)
    y = np.zeros(t.size, dtype=np.int64)
    fr = loss_values(FR, probs, y)
    for q in (0.0, 0.5, 0.7, 1.0):
        lq = loss_values(qce(q), probs, y)
        assert np.all(np.abs(fr - lq) <= 2.0 * lq**2 + 1e-15)


# ------------------------------------------------------------ h_prime_abs

def test_h_prime_abs_closed_forms():
    t = np.linspace(0.01, 1.0, 500)
    npt.assert_array_equal(h_prime_abs(MAE, t), np.ones_like(t))
    npt.assert_allclose(h_prime_abs(CE, t), 1.0 / t, rtol=1e-15)
    npt.assert_allclose(h_prime_abs(qce(0.7), t), t**-0.7, rtol=1e-14)
    npt.assert_allclose(h_prime_abs(HELLINGER, t), t**-0.5, rtol=1e-15)
    expected_fr = np.arccos(np.sqrt(t)) / np.sqrt(t * (1.0 - t) + 1e-300)
    mask = t < 1.0
    npt.assert_allclose(h_prime_abs(FR, t)[mask], expected_fr[mask], rtol=1e-10)


def test_h_prime_abs_fr_special_points():
    npt.assert_allclose(h_prime_abs(FR, 0.5), np.pi / 2, rtol=0, atol=1e-15)
    assert h_prime_abs(FR, 1.0) == 1.0  # removable singularity
    # approaching 1 from below stays continuous
    near = h_prime_abs(FR, 1.0 - np.logspace(-15, -8, 30))
    npt.assert_allclose(near, 1.0, rtol=0, atol=1e-4)


def test_h_prime_abs_clamps_and_rejects_mse():
    npt.assert_allclose(h_prime_abs(CE, 0.0), 1e12, rtol=1e-12)
    for of_p_y in (h_prime_abs, gradient_weight):
        with pytest.raises(ValueError, match="mse is not a function of the true-class probability alone"):
            of_p_y(MSE, 0.5)


def test_h_prime_ordering_matches_chain():
    # learning-speed factors: CE >= FR >= Hellinger >= MAE on (0, 1)
    t = np.linspace(0.01, 0.99, 200)
    ce = h_prime_abs(CE, t)
    fr = h_prime_abs(FR, t)
    hel = h_prime_abs(HELLINGER, t)
    mae = h_prime_abs(MAE, t)
    assert np.all(ce >= fr) and np.all(fr >= hel) and np.all(hel >= mae)


# t on [CLAMP_EPS, 1]: both endpoints, anywhere, and the last ulps below 1,
# where FR's |h'(t)| has its removable singularity
weight_ts = st.one_of(
    st.sampled_from((CLAMP_EPS, 1.0)),
    st.floats(CLAMP_EPS, 1.0),
    st.floats(1.0 - 1e-6, 1.0),
    st.integers(1, 2**20).map(lambda k: 1.0 - k * 2.0**-53),
)


def _reference_fr_h_prime_abs(t):
    """FR's |h'(t)| as first written: a Taylor branch below w = 1e-8 and clipped arcsin arguments."""
    w = np.sqrt(1.0 - t)
    w_safe = np.where(w > 1e-8, w, 1.0)
    ratio = np.where(w > 1e-8, np.arcsin(np.clip(w, -1.0, 1.0)) / w_safe, 1.0 + w * w / 6.0)
    return ratio / np.sqrt(t)


@settings(max_examples=300, deadline=None)
@given(st.lists(weight_ts, min_size=1, max_size=40))
@example([1.0, float("nan")])
def test_fr_h_prime_abs_matches_its_first_form_bit_for_bit(ts):
    t = np.array(ts)
    assert h_prime_abs(FR, t).tobytes() == _reference_fr_h_prime_abs(t).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(weight_ts, min_size=1, max_size=40))
def test_gradient_weight_ordered_mae_hellinger_fr_ce(ts):
    t = np.array(ts)
    mae, hel, fr, ce = (gradient_weight(spec, t) for spec in (MAE, HELLINGER, FR, CE))
    assert np.all(mae <= hel) and np.all(hel <= fr) and np.all(fr <= ce) and np.all(ce <= 1.0)


# ------------------------------------------- FR against q-CE of equal robustness


def _equal_width_q(k: int) -> float:
    """q* in (0, 1) where qce(q*)'s loss-sum width equals FR's, by bisection (the width grows with q)."""
    target, lo, hi = loss_sum_range_width(FR, k), 0.0, 1.0
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if loss_sum_range_width(qce(mid), k) < target else (lo, mid)
    return lo


# t on (0, 1): log steps toward both ends, then the last 4095 floats below 1
_GAP_TS = np.unique(np.concatenate([
    np.geomspace(CLAMP_EPS, 0.5, 4000), 1.0 - np.geomspace(0.5, 2.0**-53, 4000), 1.0 - np.arange(1, 2**12) * 2.0**-53,
]))


def _weight_gap_crossings(k: int):
    """(q*, the signs of FR's gradient weight minus qce(q*)'s where they differ, the t between which they flip)."""
    q = _equal_width_q(k)
    gap = gradient_weight(FR, _GAP_TS) - gradient_weight(qce(q), _GAP_TS)
    ts, signs = _GAP_TS[gap != 0.0], np.sign(gap[gap != 0.0])  # the gap closes near t = 1 without crossing
    flips = np.flatnonzero(signs[1:] != signs[:-1])
    return q, signs, [(ts[i], ts[i + 1]) for i in flips]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10**4))
@example(2)
@example(10**4)
def test_fr_outweighs_qce_of_equal_width_above_one_crossing(k):
    # qce(q*) has FR's loss-sum width, so FR's bounds A and B at every eta; FR's weight |h'(t)| t
    # is the larger on (t_c, 1) and the smaller on (0, t_c)
    q, signs, crossings = _weight_gap_crossings(k)
    assert 0.5 < q < 0.6 and loss_sum_range_width(qce(q), k) == pytest.approx(loss_sum_range_width(FR, k), rel=1e-14)
    assert len(crossings) == 1 and signs[0] < 0 < signs[-1]


def test_equal_width_q_and_crossing_against_mpmath():
    mp = pytest.importorskip("mpmath")
    table = {2: (0.5903, 0.015), 3: (0.5874, 0.012), 10: (0.5782, 0.0056), 100: (0.5615, 0.00088),
             10**4: (0.5396, 1.2e-5)}  # K: (q*, t_c)
    for k, (q_rounded, t_c_rounded) in table.items():
        with mp.workdps(40):
            kk = mp.mpf(k)
            fr_width = mp.pi**2 / 4 * (kk - 1) - kk * mp.acos(1 / mp.sqrt(kk)) ** 2
            q_star = mp.findroot(lambda q: (kk**q - 1) / (1 - q) - fr_width, mp.mpf("0.55"))
            t_c = mp.findroot(lambda t: mp.acos(mp.sqrt(t)) * mp.sqrt(t / (1 - t)) - t ** (1 - q_star),
                              (mp.mpf("1e-8"), mp.mpf("0.1")), solver="anderson")
        q, _, [(below, above)] = _weight_gap_crossings(k)
        assert abs(q - q_star) < 1e-12 and below < t_c < above
        assert round(float(q_star), 4) == q_rounded and float(mp.nstr(t_c, 2)) == t_c_rounded


# ---------------------------------------------------------------- gradients


def _reference_loss_values(spec, probs, labels):
    """The per-sample formulas written out with a 2-D gather, apart from the stacked kernel."""
    t = probs[np.arange(len(labels)), labels]
    if spec.kind == "mse":
        return (probs * probs).sum(axis=1) - 2.0 * t + 1.0
    return _KIND_TABLE[spec.kind].h(t, spec.q)


def _reference_score_gradients(spec, probs, labels):
    rows = np.arange(len(labels))
    if spec.kind == "mse":
        v = 2.0 * probs
        v[rows, labels] -= 2.0
        v *= probs
        return v - probs * v.sum(axis=1, keepdims=True)
    g = probs.copy()
    g[rows, labels] -= 1.0
    return g * gradient_weight(spec, probs[rows, labels])[:, None]


@st.composite
def batches(draw):
    n, k = draw(st.integers(1, 8)), draw(st.integers(2, 6))
    # scores of +-700 drive t to 1 and below CLAMP_EPS
    values = st.one_of(st.sampled_from((-700.0, 700.0, 0.0, -40.0, 40.0)), st.floats(-700.0, 700.0))
    scores = draw(arrays(np.float64, (n, k), elements=values))
    labels = draw(arrays(np.int64, (n,), elements=st.integers(0, k - 1)))
    spec = draw(st.one_of(st.sampled_from(ALL_KINDS + [qce(0.0)]), st.floats(0.0, 1.0).map(qce)))
    return softmax(scores), labels, spec


@settings(max_examples=300, deadline=None)
@given(batches())
def test_one_member_kernel_matches_the_per_sample_formulas_bit_for_bit(batch):
    probs, labels, spec = batch
    values, grads = _reference_loss_values(spec, probs, labels), _reference_score_gradients(spec, probs, labels)
    before = probs.copy()
    probs.flags.writeable = labels.flags.writeable = False  # the kernel works in place, but not on its inputs
    assert loss_values(spec, probs, labels).tobytes() == values.tobytes()
    assert score_gradients(spec, probs, labels).tobytes() == grads.tobytes()
    assert probs.tobytes() == before.tobytes()


def test_gradient_examples():
    g = loss_gradient_scores(CE, np.log([0.7, 0.2, 0.1]), 0)
    npt.assert_allclose(g, [-0.3, 0.2, 0.1], rtol=0, atol=1e-15)
    g = loss_gradient_scores(FR, [0.0, 0.0], 0)
    npt.assert_allclose(g, [-np.pi / 8, np.pi / 8], rtol=0, atol=1e-15)


def test_gradient_zero_at_exact_vertex():
    p = np.zeros((1, 4))
    p[0, 1] = 1.0
    for spec in ALL_KINDS:
        npt.assert_array_equal(score_gradients(spec, p, np.array([1])), np.zeros((1, 4)))


def test_gradient_true_class_component_nonpositive():
    rng = make_rng(22, 99)
    for spec in ALL_KINDS:
        for _ in range(50):
            k = int(rng.integers(2, 8))
            s = rng.normal(size=k) * 3
            y = int(rng.integers(0, k))
            g = loss_gradient_scores(spec, s, y)
            assert g[y] <= 1e-15
            assert np.all(np.isfinite(g))


def test_gradient_finite_at_extreme_scores():
    s = np.array([-60.0, 60.0])  # p_y underflows well past the clamp
    for spec in ALL_KINDS:
        g = loss_gradient_scores(spec, s, 0)
        assert np.all(np.isfinite(g))


def _fd_gradient(spec, s, y, step=1e-5):
    g = np.zeros_like(s)
    for j in range(s.size):
        up, dn = s.copy(), s.copy()
        up[j] += step
        dn[j] -= step
        f_up = loss_values(spec, softmax(up)[None, :], np.array([y]))[0]
        f_dn = loss_values(spec, softmax(dn)[None, :], np.array([y]))[0]
        g[j] = (f_up - f_dn) / (2 * step)
    return g


def test_gradients_match_finite_differences():
    rng = make_rng(23, 99)
    for spec in ALL_KINDS:
        checked = 0
        while checked < 50:
            k = int(rng.choice([2, 5, 10]))
            s = rng.normal(size=k) * 3
            y = int(rng.integers(0, k))
            if softmax(s)[y] < 1e-6:
                continue  # clamped region: analytic and FD legitimately differ
            ga = loss_gradient_scores(spec, s, y)
            gf = _fd_gradient(spec, s, y)
            rel = np.max(np.abs(ga - gf)) / max(np.max(np.abs(ga)), 1e-4)
            assert rel <= 1e-5, f"{spec}: rel err {rel:.2e}"
            checked += 1


def test_gradient_label_validation():
    with pytest.raises(ValueError):
        loss_gradient_scores(CE, [0.0, 0.0], 2)


# ------------------------------------------------------- loss sums over y

def test_sum_over_classes_constants():
    rng = make_rng(24, 99)
    for k in (2, 5, 10):
        for _ in range(20):
            p = sample_simplex(rng, k)
            npt.assert_allclose(loss_sum_over_classes(MAE, p), k - 1, rtol=0, atol=1e-12)


def test_sum_over_classes_fr_uniform():
    npt.assert_allclose(
        loss_sum_over_classes(FR, np.full(10, 0.1)), 15.601153415459520, rtol=0, atol=1e-9
    )


def test_sum_over_classes_mse_uniform_and_range():
    rng = make_rng(25, 99)
    for k in (2, 3, 7):
        npt.assert_allclose(loss_sum_over_classes(MSE, np.full(k, 1.0 / k)), k - 1, rtol=0, atol=1e-12)
        for _ in range(50):
            s = loss_sum_over_classes(MSE, sample_simplex(rng, k))
            assert k - 1 - 1e-12 <= s <= 2 * (k - 1) + 1e-12


def test_sum_over_classes_fr_range():
    rng = make_rng(26, 99)
    for k in (2, 3, 7):
        lower = k * np.arccos(1.0 / np.sqrt(k)) ** 2
        upper = (np.pi**2 / 4) * (k - 1)
        for _ in range(50):
            s = loss_sum_over_classes(FR, sample_simplex(rng, k))
            assert lower - 1e-12 <= s <= upper + 1e-12


def test_sum_over_classes_hellinger_closed_form():
    rng = make_rng(27, 99)
    p = sample_simplex(rng, 6)
    expected = 2 * 6 - 2 * np.sqrt(p).sum()
    npt.assert_allclose(loss_sum_over_classes(HELLINGER, p), expected, rtol=0, atol=1e-12)
