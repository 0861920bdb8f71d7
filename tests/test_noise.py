import numpy as np
import numpy.testing as npt
import pytest

from fisherrao.noise import NoiseSpec, alpha_to_eta, corrupt_labels, eta_to_alpha
from fisherrao.rng import make_rng


def test_spec_validation():
    NoiseSpec(0.0, 1, 2)
    NoiseSpec(0.49, 1, 2)
    with pytest.raises(ValueError):
        NoiseSpec(0.5, 1, 2)  # boundary (K-1)/K excluded
    with pytest.raises(ValueError):
        NoiseSpec(-0.1, 1, 2)
    with pytest.raises(ValueError):
        NoiseSpec(0.1, 1, 1)
    with pytest.raises(ValueError):
        NoiseSpec(0.1, -1, 2)


def test_rng_stream_must_fit_in_64_bits():
    for stream in (-1, 2**64):
        with pytest.raises(ValueError, match=r"stream must be in \[0, 2\*\*64\)"):
            make_rng(0, stream)


def test_eta_zero_is_identity():
    labels = make_rng(30, 99).integers(0, 5, size=1000)
    out = corrupt_labels(labels, NoiseSpec(0.0, 7, 5))
    npt.assert_array_equal(out, labels)


def test_deterministic_and_pure():
    labels = make_rng(31, 99).integers(0, 4, size=500)
    before = labels.copy()
    spec = NoiseSpec(0.3, 42, 4)
    a = corrupt_labels(labels, spec)
    b = corrupt_labels(labels, spec)
    npt.assert_array_equal(a, b)
    npt.assert_array_equal(labels, before)  # input untouched
    c = corrupt_labels(labels, NoiseSpec(0.3, 43, 4))
    assert np.any(a != c)  # different seed, different pattern


def test_labels_out_of_range_rejected():
    with pytest.raises(ValueError):
        corrupt_labels(np.array([0, 4]), NoiseSpec(0.1, 1, 4))
    with pytest.raises(ValueError, match=r"labels must be 1-D, got shape \(1, 2\)"):
        corrupt_labels(np.array([[0, 1]]), NoiseSpec(0.1, 1, 4))
    with pytest.raises(ValueError):
        corrupt_labels(np.array([-1, 0]), NoiseSpec(0.1, 1, 4))


def test_flip_fraction_binary():
    n = 100_000
    labels = make_rng(32, 99).integers(0, 2, size=n)
    out = corrupt_labels(labels, NoiseSpec(0.4, 5, 2))
    flipped = np.mean(out != labels)
    sigma = np.sqrt(0.4 * 0.6 / n)
    assert abs(flipped - 0.4) <= 3 * sigma


def test_wrong_classes_uniform():
    n = 100_000
    k, eta = 10, 0.45
    labels = np.zeros(n, dtype=np.int64)
    out = corrupt_labels(labels, NoiseSpec(eta, 11, k))
    per_class = eta / (k - 1)  # 0.05
    sigma = np.sqrt(per_class * (1 - per_class) / n)
    for j in range(1, k):
        freq = np.mean(out == j)
        assert abs(freq - per_class) <= 3 * sigma, f"class {j}: {freq}"
    assert np.mean(out == 0) == pytest.approx(1 - eta, abs=3 * np.sqrt(eta * (1 - eta) / n))


def test_transition_matrix_matches_law():
    n, k, eta = 200_000, 5, 0.3
    labels = make_rng(33, 99).integers(0, k, size=n)
    out = corrupt_labels(labels, NoiseSpec(eta, 17, k))
    for true in range(k):
        mask = labels == true
        n_true = int(mask.sum())
        for got in range(k):
            freq = np.mean(out[mask] == got)
            expected = (1 - eta) if got == true else eta / (k - 1)
            sigma = np.sqrt(expected * (1 - expected) / n_true)
            assert abs(freq - expected) <= 3.5 * sigma


def test_alpha_eta_conversions():
    assert alpha_to_eta(0.0, 7) == 0.0
    npt.assert_allclose(alpha_to_eta(0.8, 10), 0.72, rtol=0, atol=1e-15)
    npt.assert_allclose(alpha_to_eta(1.0 - 1e-12, 2), 0.5, rtol=0, atol=1e-9)
    npt.assert_allclose(eta_to_alpha(0.72, 10), 0.8, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        alpha_to_eta(1.0, 5)
    with pytest.raises(ValueError):
        alpha_to_eta(-0.2, 5)
    with pytest.raises(ValueError):
        eta_to_alpha(0.9, 2)


def test_alpha_just_below_one_stays_in_regime():
    # alpha (1 - 1/K) rounds to (K-1)/K itself for K = 3, 7, 19, ...
    for k in range(2, 20_001):
        eta = alpha_to_eta(0.9999999999999999, k)
        assert eta < (k - 1) / k, k
        assert eta_to_alpha(eta, k) <= 1.0
