"""Acceptance gate: one test per shipped claim, oracles coded independently.

Each criterion is a single test function, so the verbose pytest report gives
one pass/fail line per claim.  Expected values are either closed forms
recomputed here from scratch (often in mpmath arbitrary precision), brute
force over grids, or central finite differences — never the library's own
output fed back to itself.
"""

import math
import os
import time

import numpy as np
import pytest

from fisherrao import cli
from fisherrao.bounds import bound_A, bound_B
from fisherrao.data import SyntheticSpec, generate_synthetic, load_mnist
from fisherrao.experiment import (
    ExperimentSpec,
    grid_search_lr,
    run_sweep,
    summarize,
)
from fisherrao.losses import (CE, FR, HELLINGER, MAE, MSE, LossSpec, fr_sum_bounds, loss_value, loss_values, qce,
                              score_gradients)
from fisherrao.mlp import batch_grad, init_model, MlpConfig
from fisherrao.simplex import fisher_rao_distance, hellinger_distance, sample_simplex, softmax
from fisherrao.rng import make_rng

mp = pytest.importorskip("mpmath")

ALL_KINDS = [MSE, MAE, CE, qce(0.7), FR, HELLINGER]


def test_criterion_1_distance_identity():
    # d_FR = 4 arcsin(d_H / 2) on 1e4 random pairs, K in 2..20, within 1e-9
    start = time.perf_counter()
    rng = make_rng(1001, 9)
    worst = 0.0
    n_pairs = 10_000
    for i in range(n_pairs):
        k = 2 + i % 19
        p = sample_simplex(rng, k)
        q = sample_simplex(rng, k)
        d_fr = fisher_rao_distance(p, q)
        d_h = hellinger_distance(p, q)
        worst = max(worst, abs(d_fr - 4.0 * math.asin(d_h / 2.0)))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max |d_FR - 4 asin(d_H/2)| = {worst:.3e} over {n_pairs} pairs, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_loss_chain_and_qce_asymptotics():
    start = time.perf_counter()
    # chain MAE <= Hellinger <= FR <= CE at 1e5 grid points of p_y in (0, 1]
    n = 100_000
    t = np.arange(1, n + 1, dtype=np.float64) / n
    probs = np.stack([t, 1.0 - t], axis=1)
    y = np.zeros(n, dtype=np.int64)
    l_mae = loss_values(MAE, probs, y)
    l_h = loss_values(HELLINGER, probs, y)
    l_fr = loss_values(FR, probs, y)
    l_ce = loss_values(CE, probs, y)
    violations = int(np.sum(l_mae > l_h) + np.sum(l_h > l_fr) + np.sum(l_fr > l_ce))
    assert violations == 0
    # |L_FR - L_QCE| <= 2 L_QCE^2 for p_y in [0.99, 1], q in {0, 0.5, 0.7, 1}
    tt = np.linspace(0.99, 1.0, 1001)
    probs2 = np.stack([tt, 1.0 - tt], axis=1)
    y2 = np.zeros(tt.size, dtype=np.int64)
    fr2 = loss_values(FR, probs2, y2)
    worst_margin = -np.inf
    for q in (0.0, 0.5, 0.7, 1.0):
        lq = loss_values(qce(q), probs2, y2)
        margin = np.max(np.abs(fr2 - lq) - 2.0 * lq**2)
        worst_margin = max(worst_margin, margin)
        assert np.all(np.abs(fr2 - lq) <= 2.0 * lq**2), f"q={q}"
    elapsed = time.perf_counter() - start
    print(f"criterion 2: 0 chain violations at {n} points; "
          f"max(|FR-QCE| - 2 QCE^2) = {worst_margin:.3e}; {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_3_sum_extrema_brute_force():
    # K = 3 grid with step 0.005; loss sums recomputed from raw formulas
    start = time.perf_counter()
    steps = 200
    i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
    keep = i + j <= steps
    p = np.stack([i[keep], j[keep], steps - i[keep] - j[keep]], axis=1) / steps
    s_fr = np.sum(np.arccos(np.sqrt(p)) ** 2, axis=1)
    s_mse = 3.0 * np.sum(p * p, axis=1) + 3.0 - 2.0  # sum_y ||p - e_y||^2
    lower, upper = fr_sum_bounds(3)
    assert abs(s_fr.min() - lower) <= 1e-3
    assert abs(s_fr.max() - upper) <= 1e-3
    assert abs(s_mse.min() - 2.0) <= 1e-3  # K - 1
    assert abs(s_mse.max() - 4.0) <= 1e-3  # 2 (K - 1)
    elapsed = time.perf_counter() - start
    print(f"criterion 3: FR sum in [{s_fr.min():.6f}, {s_fr.max():.6f}] vs "
          f"[{lower:.6f}, {upper:.6f}]; MSE sum in [{s_mse.min():.6f}, {s_mse.max():.6f}]; "
          f"{p.shape[0]} grid points, {elapsed:.2f}s")
    assert elapsed < 10.0


def _oracle_width(spec: LossSpec, k: int):
    """Range S_max - S_min of the per-class loss sum, in mpmath precision."""
    kk = mp.mpf(k)
    if spec.kind == "mae":
        return mp.mpf(0)
    if spec.kind == "mse":
        return kk - 1
    if spec.kind == "ce" or (spec.kind == "qce" and spec.q == 1.0):
        return mp.inf
    if spec.kind == "fr":
        upper = mp.pi**2 / 4 * (kk - 1)
        lower = kk * mp.acos(1 / mp.sqrt(kk)) ** 2
        return upper - lower
    if spec.kind == "hellinger":
        return 2 * (mp.sqrt(kk) - 1)
    if spec.kind == "qce":
        if spec.q == 0.0:
            return mp.mpf(0)
        q = mp.mpf(spec.q)
        return (kk**q - 1) / (1 - q)
    raise AssertionError(spec)


def test_criterion_4_table_bounds_against_high_precision_oracle():
    mp.mp.dps = 50
    specs = [MSE, MAE, CE, qce(0.7), FR, HELLINGER]
    checked = 0
    for k in (2, 10, 100, 1000):
        for eta in (0.1, 0.3, 0.5, 0.8 * (1 - 1 / k)):
            if eta >= (k - 1) / k:
                # eta = 0.5 at K = 2 sits outside the noise regime
                with pytest.raises(ValueError):
                    bound_A(CE, k, eta)
                continue
            for spec in specs:
                a = bound_A(spec, k, eta)
                b = bound_B(spec, k, eta)
                width = _oracle_width(spec, k)
                if mp.isinf(width):
                    assert math.isinf(a) and a > 0
                    assert math.isinf(b) and b < 0
                    continue
                e = mp.mpf(eta)
                oracle_a = e * width / (k - 1)
                oracle_b = -e * width / (k - 1 - e * k)
                assert abs(a - float(oracle_a)) <= 1e-9 * max(1.0, abs(float(oracle_a)))
                assert abs(b - float(oracle_b)) <= 1e-9 * max(1.0, abs(float(oracle_b)))
                checked += 1
    # exact rows
    for k in (2, 10, 100, 1000):
        assert bound_A(MAE, k, 0.3) == 0.0 and bound_B(MAE, k, 0.3) == 0.0
        assert bound_A(MSE, k, 0.3) == 0.3
    # quoted 6-decimal spot anchors
    a_spot = bound_A(FR, 10, 0.5)
    b_spot = bound_B(FR, 10, 0.5)
    assert abs(a_spot - 0.366970) <= 2e-6
    assert abs(b_spot - (-0.825681)) <= 2e-6
    print(f"criterion 4: {checked} (kind, K, eta) cells within 1e-9 of the mpmath oracle; "
          f"A_FR(10,0.5)={a_spot:.9f}, B_FR(10,0.5)={b_spot:.9f}")


def test_criterion_5_bound_curves_shape():
    def eta_of(k):
        return 0.8 * (1 - 1 / k)

    a_fr = {k: bound_A(FR, k, eta_of(k)) for k in (100, 10_000)}
    b_fr = {k: bound_B(FR, k, eta_of(k)) for k in (100, 10_000)}
    assert a_fr[10_000] < a_fr[100]
    assert abs(b_fr[10_000]) < abs(b_fr[100])
    small = np.arange(2, 31)
    curve = np.array([bound_A(FR, int(k), eta_of(int(k))) for k in small])
    peak = int(small[np.argmax(curve)])
    assert peak in (3, 4, 5), peak
    diffs = np.diff(curve)
    turn = int(np.argmax(curve))
    assert np.all(diffs[:turn] > 0) and np.all(diffs[turn:] < 0)  # single peak
    a_mse_tail = bound_A(MSE, 10_000, eta_of(10_000))
    assert abs(a_mse_tail - 0.8) < 1e-3
    assert abs(a_mse_tail - 0.8) < abs(bound_A(MSE, 100, eta_of(100)) - 0.8)
    print(f"criterion 5: A_FR peak at K={peak}; A_FR 1e2->1e4: {a_fr[100]:.4f}->{a_fr[10_000]:.4f}; "
          f"|B_FR| 1e2->1e4: {abs(b_fr[100]):.4f}->{abs(b_fr[10_000]):.4f}; A_MSE(1e4)={a_mse_tail:.5f}")


def _fd_score_gradient(spec, scores, label, step):
    g = np.zeros_like(scores)
    for idx in range(scores.size):
        up = scores.copy()
        up[idx] += step
        dn = scores.copy()
        dn[idx] -= step
        g[idx] = (loss_value(spec, softmax(up), label) - loss_value(spec, softmax(dn), label)) / (2 * step)
    return g


def _fd_mlp_gradients(model, x, y, spec, step):
    def mean_loss():
        h = x
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
        scores = h @ model.weights[-1] + model.biases[-1]
        return float(loss_values(spec, softmax(scores), y).mean())

    grads = []
    for arr in (*model.weights, *model.biases):
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            up = mean_loss()
            arr[idx] = orig - step
            dn = mean_loss()
            arr[idx] = orig
            g[idx] = (up - dn) / (2 * step)
        grads.append(g)
    return grads


def test_criterion_6_gradient_suite():
    start = time.perf_counter()
    rng = make_rng(1006, 9)
    # loss layer: d/d(scores) of loss(softmax(scores), y), 200 cases per kind
    worst_layer = 0.0
    for spec in ALL_KINDS:
        for _ in range(200):
            k = int(rng.integers(2, 11))
            scores = 2.0 * rng.standard_normal(k)
            label = int(rng.integers(0, k))
            p = softmax(scores)
            if p[label] < 1e-6:
                continue  # clamp region is excluded by construction
            analytic = score_gradients(spec, p[None, :], np.array([label]))[0]
            fd = _fd_score_gradient(spec, scores, label, step=1e-5)
            rel = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(analytic)), 1e-4)
            worst_layer = max(worst_layer, rel)
            assert rel <= 1e-5, f"{spec}: rel={rel}"
    # full MLP on a 3-4-3 net, 200 cases per kind.  A case whose ReLU
    # pre-activation sits within the finite-difference step of the kink is
    # redrawn: the central difference straddles a non-differentiability
    # there and measures a chord, not the one-sided derivative SGD uses.
    worst_net = 0.0
    for spec in ALL_KINDS:
        case = 0
        attempts = 0
        while case < 200:
            attempts += 1
            assert attempts < 1000
            cfg = MlpConfig((3, 4, 3), spec, 0.1, 4, 1, seed=attempts)
            model = init_model(cfg)
            x = rng.standard_normal((4, 3))
            y = rng.integers(0, 3, size=4)
            z = x @ model.weights[0] + model.biases[0]
            if np.min(np.abs(z)) < 1e-2:
                continue
            case += 1
            gw, gb, _ = batch_grad(model, x, y, spec)
            fd = _fd_mlp_gradients(model, x, y, spec, step=1e-4)
            analytic = gw + gb
            scale = max(max(np.max(np.abs(g)) for g in analytic), 1e-3)
            rel = max(np.max(np.abs(a - f)) for a, f in zip(analytic, fd)) / scale
            worst_net = max(worst_net, rel)
            assert rel <= 1e-4, f"{spec} case {case}: rel={rel}"
    elapsed = time.perf_counter() - start
    print(f"criterion 6: worst rel err {worst_layer:.2e} (loss layer), "
          f"{worst_net:.2e} (3-4-3 net); {elapsed:.1f}s")
    assert elapsed < 30.0


def _mean_acc(summary, kind, eta):
    row = next(r for r in summary if r["loss"] == kind and r["eta"] == eta)
    assert row["n_diverged"] == 0, f"{kind} eta={eta} had diverged seeds"
    return row["mean_test_acc"]


def test_criterion_7_synthetic_noise_experiment():
    start = time.perf_counter()
    spec = ExperimentSpec(
        dataset="synthetic",
        losses=(MSE, CE, FR, HELLINGER),
        etas=(0.0, 0.5),
        seeds=(0, 1, 2, 3, 4),
        hidden=(80, 40, 20),
        batch_size=20,
        epochs=20,
        lr_grid=(0.03, 0.1, 0.3),
        n_train=8000,
        n_test=2000,
        features=100,
        classes=10,
        class_sep=0.35,
        data_seed=0,
        eval_every_epoch=False,
    )
    train_ds, test_ds = generate_synthetic(
        SyntheticSpec(spec.n_train, spec.n_test, spec.features, spec.classes,
                      spec.class_sep, spec.data_seed)
    )
    rows = grid_search_lr(train_ds, test_ds, spec)
    chosen = {(r["loss"], r["eta"]): r["lr"] for r in rows if r["selected"]}
    results = run_sweep(train_ds, test_ds, spec,
                        lr_for=lambda loss, eta: chosen[(loss.kind, eta)])
    summary = summarize(results)
    clean = {k: _mean_acc(summary, k, 0.0) for k in ("mse", "ce", "fr", "hellinger")}
    noisy = {k: _mean_acc(summary, k, 0.5) for k in ("mse", "ce", "fr", "hellinger")}
    spread = max(clean.values()) - min(clean.values())
    fr_gap = noisy["fr"] - noisy["ce"]
    h_gap = noisy["hellinger"] - noisy["ce"]
    elapsed = time.perf_counter() - start
    print("criterion 7: clean " + " ".join(f"{k}={v:.4f}" for k, v in clean.items())
          + f" (spread {100 * spread:.2f} pts); eta=0.5 "
          + " ".join(f"{k}={v:.4f}" for k, v in noisy.items())
          + f"; FR-CE={100 * fr_gap:+.2f} pts, H-CE={100 * h_gap:+.2f} pts; "
          + f"lr={chosen}; {elapsed:.0f}s")
    assert spread <= 0.03  # noiseless accuracies within 3 points of one another
    assert fr_gap >= 0.02  # FR beats CE by at least 2 points at eta = 0.5
    assert h_gap >= 0.02


def _find_mnist():
    candidates = []
    env_dir = os.environ.get("MNIST_DIR")
    if env_dir:
        candidates.append(env_dir)
    candidates.append(os.path.join(os.path.dirname(__file__), "..", "data", "mnist"))
    names = (
        "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
    )
    for root in candidates:
        paths = [os.path.join(root, n) for n in names]
        if all(os.path.exists(p) for p in paths):
            return paths
    return None


def test_criterion_8_mnist_noise_experiment():
    paths = _find_mnist()
    if paths is None:
        pytest.skip(
            "criterion 8 SKIPPED: MNIST IDX files not found. Place the four "
            "uncompressed files (train-images-idx3-ubyte, train-labels-idx1-ubyte, "
            "t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte) in data/mnist/ or "
            "point MNIST_DIR at them; this sandbox has no network access to fetch them."
        )
    start = time.perf_counter()
    train_full = load_mnist(paths[0], paths[1])
    test_ds = load_mnist(paths[2], paths[3])
    train_ds = train_full.take(10_000)
    spec = ExperimentSpec(
        dataset="mnist",
        losses=(MSE, CE, FR, HELLINGER),
        etas=(0.0, 0.5),
        seeds=(0, 1, 2),
        hidden=(300, 100),
        batch_size=64,
        epochs=10,
        lr_grid=(0.03, 0.1, 0.3),
        grid_epochs=3,
        eval_every_epoch=False,
        train_images=paths[0], train_labels=paths[1],
        test_images=paths[2], test_labels=paths[3],
    )
    rows = grid_search_lr(train_ds, test_ds, spec)
    chosen = {(r["loss"], r["eta"]): r["lr"] for r in rows if r["selected"]}
    results = run_sweep(train_ds, test_ds, spec,
                        lr_for=lambda loss, eta: chosen[(loss.kind, eta)])
    summary = summarize(results)
    clean = {k: _mean_acc(summary, k, 0.0) for k in ("mse", "ce", "fr", "hellinger")}
    noisy = {k: _mean_acc(summary, k, 0.5) for k in ("mse", "ce", "fr", "hellinger")}
    elapsed = time.perf_counter() - start
    print("criterion 8: clean " + " ".join(f"{k}={v:.4f}" for k, v in clean.items())
          + "; eta=0.5 " + " ".join(f"{k}={v:.4f}" for k, v in noisy.items())
          + f"; {elapsed:.0f}s")
    assert max(clean.values()) - min(clean.values()) <= 0.015
    assert noisy["fr"] >= noisy["ce"]
    assert noisy["hellinger"] >= noisy["ce"]


def test_criterion_9_bit_identical_reruns(tmp_path):
    # the command users run: fisherrao train, twice on one config
    config = tmp_path / "exp.cfg"
    config.write_text("dataset = synthetic\nlosses = ce,fr\netas = 0.0,0.3\nseeds = 0,1\nhidden = 8\nbatch_size = 16\n"
                      "epochs = 3\nlr = 0.1\nn_train = 400\nn_test = 100\nfeatures = 10\nclasses = 3\n"
                      "class_sep = 1.0\ndata_seed = 4\n")
    for out in ("a", "b"):
        assert cli.run(["train", "--config", str(config), "--out-dir", str(tmp_path / out)]) == 0
    runs_a = (tmp_path / "a" / "runs.csv").read_bytes()
    runs_b = (tmp_path / "b" / "runs.csv").read_bytes()
    assert runs_a == runs_b
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (tmp_path / "b" / "summary.csv").read_bytes()
    print(f"criterion 9: two runs produced identical runs.csv ({len(runs_a)} bytes) and summary.csv")
