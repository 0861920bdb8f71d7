import numpy as np
import numpy.testing as npt
import pytest

from fisherrao.data import LabeledDataset, SyntheticSpec, generate_synthetic
from fisherrao.losses import CE, FR, HELLINGER, MAE, MSE, LossSpec, loss_values, qce
from fisherrao.mlp import (
    MlpConfig,
    MlpModel,
    TrainingDiverged,
    batch_grad,
    evaluate,
    forward,
    init_model,
    load_model,
    save_model,
    train,
)
from fisherrao.rng import make_rng
from fisherrao.simplex import softmax

ALL_KINDS = [MSE, MAE, CE, qce(0.7), FR, HELLINGER]


def _config(layers=(3, 4, 3), loss=CE, lr=0.1, batch=4, epochs=3, seed=0):
    return MlpConfig(layers, loss, lr, batch, epochs, seed)


# ------------------------------------------------------------------- config


def test_config_validation():
    _config()
    with pytest.raises(ValueError):
        _config(layers=(3,))
    with pytest.raises(ValueError):
        _config(layers=(3, 0, 3))
    with pytest.raises(ValueError):
        _config(layers=(3, 4, 1))  # output needs >= 2 classes
    with pytest.raises(ValueError):
        _config(lr=-0.1)
    with pytest.raises(ValueError):
        _config(batch=0)
    with pytest.raises(ValueError):
        _config(epochs=0)


# --------------------------------------------------------------------- init


def test_init_deterministic_and_in_range():
    cfg = _config(layers=(100, 40, 5), seed=123)
    a = init_model(cfg)
    b = init_model(cfg)
    for wa, wb in zip(a.weights, b.weights):
        npt.assert_array_equal(wa, wb)
    lim0 = np.sqrt(6.0 / 100)
    assert np.max(np.abs(a.weights[0])) <= lim0
    assert np.max(np.abs(a.weights[1])) <= np.sqrt(6.0 / 40)
    for bias in a.biases:
        npt.assert_array_equal(bias, 0.0)
    assert a.layer_sizes == (100, 40, 5)
    c = init_model(_config(layers=(100, 40, 5), seed=124))
    assert np.any(c.weights[0] != a.weights[0])


# ------------------------------------------------------------------ forward


def test_forward_zero_model_uniform_softmax():
    cfg = _config(layers=(4, 3, 5))
    model = init_model(cfg)
    for w in model.weights:
        w[:] = 0.0
    scores = forward(model, np.ones(4))
    npt.assert_array_equal(scores, np.zeros(5))
    p = softmax(scores)
    npt.assert_allclose(p, 0.2, rtol=0, atol=1e-15)
    val = loss_values(FR, p[None, :], np.array([0]))[0]
    npt.assert_allclose(val, np.arccos(1 / np.sqrt(5)) ** 2, rtol=0, atol=1e-12)


def test_forward_single_affine_layer_hand_computed():
    model = MlpModel(
        weights=[np.array([[1.0, 0.0], [0.0, 2.0]])],
        biases=[np.array([0.5, -1.0])],
    )
    npt.assert_array_equal(forward(model, [3.0, 4.0]), [3.5, 7.0])


def test_forward_relu_zeroes_negative_preactivations():
    model = MlpModel(
        weights=[np.array([[1.0], [0.0]]), np.array([[1.0, -1.0]])],
        biases=[np.array([0.0]), np.array([0.0, 0.0])],
    )
    # hidden pre-activation is x0; negative inputs must be cut to zero
    npt.assert_array_equal(forward(model, [-5.0, 9.9]), [0.0, 0.0])
    npt.assert_array_equal(forward(model, [2.0, 0.0]), [2.0, -2.0])


def test_forward_dimension_mismatch():
    model = init_model(_config())
    with pytest.raises(ValueError):
        forward(model, np.ones(7))


# --------------------------------------------------------------- batch_grad


def _mean_batch_loss(model, x, y, spec):
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    scores = h @ model.weights[-1] + model.biases[-1]
    return float(loss_values(spec, softmax(scores), y).mean())


def _fd_model_grads(model, x, y, spec, step=1e-4):
    gws, gbs = [], []
    for w in model.weights:
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = _mean_batch_loss(model, x, y, spec)
            w[idx] = orig - step
            dn = _mean_batch_loss(model, x, y, spec)
            w[idx] = orig
            g[idx] = (up - dn) / (2 * step)
        gws.append(g)
    for b in model.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + step
            up = _mean_batch_loss(model, x, y, spec)
            b[idx] = orig - step
            dn = _mean_batch_loss(model, x, y, spec)
            b[idx] = orig
            g[idx] = (up - dn) / (2 * step)
        gbs.append(g)
    return gws, gbs


def test_batch_grad_matches_finite_differences():
    rng = make_rng(40, 99)
    for spec in ALL_KINDS:
        for case in range(10):
            cfg = _config(layers=(3, 4, 3), seed=case)
            model = init_model(cfg)
            x = rng.normal(size=(5, 3))
            y = rng.integers(0, 3, size=5)
            gw, gb, _ = batch_grad(model, x, y, spec)
            fw, fb, = _fd_model_grads(model, x, y, spec)
            scale = max(max(np.max(np.abs(g)) for g in gw), 1e-3)
            for a, f in zip(gw + gb, fw + fb):
                assert np.max(np.abs(a - f)) / scale <= 1e-4, spec


def test_batch_grad_loss_value_matches_eval():
    rng = make_rng(41, 99)
    model = init_model(_config(layers=(6, 5, 4)))
    x = rng.normal(size=(7, 6))
    y = rng.integers(0, 4, size=7)
    _, _, loss = batch_grad(model, x, y, CE)
    npt.assert_allclose(loss, _mean_batch_loss(model, x, y, CE), rtol=1e-12)


def test_batch_grad_near_zero_for_confident_correct_sample():
    model = MlpModel(weights=[np.array([[30.0, -30.0]])], biases=[np.zeros(2)])
    for spec in ALL_KINDS:
        gw, gb, _ = batch_grad(model, np.array([[1.0]]), np.array([0]), spec)
        assert np.max(np.abs(gw[0])) < 1e-10
        assert np.max(np.abs(gb[0])) < 1e-10


def test_batch_grad_duplication_invariance():
    rng = make_rng(42, 99)
    model = init_model(_config(layers=(4, 3, 3)))
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    gw1, gb1, loss1 = batch_grad(model, x, y, FR)
    gw2, gb2, loss2 = batch_grad(model, np.vstack([x, x]), np.concatenate([y, y]), FR)
    npt.assert_allclose(loss1, loss2, rtol=1e-12)
    for a, b in zip(gw1 + gb1, gw2 + gb2):
        npt.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_batch_grad_rejects_empty_and_nonfinite():
    model = init_model(_config())
    with pytest.raises(ValueError):
        batch_grad(model, np.zeros((0, 3)), np.zeros(0, dtype=int), CE)
    model.weights[0][0, 0] = np.inf
    with pytest.raises(TrainingDiverged), np.errstate(invalid="ignore"):
        batch_grad(model, np.ones((2, 3)), np.array([0, 1]), CE)


# -------------------------------------------------------------------- train


def _blobs(n=400, seed=3, sep=2.5):
    train_ds, test_ds = generate_synthetic(SyntheticSpec(n, n // 2, 2, 2, sep, seed=seed))
    return train_ds, test_ds


def test_train_lr_zero_keeps_parameters():
    train_ds, test_ds = _blobs(60)
    cfg = MlpConfig((2, 4, 2), CE, 0.0, 10, 3, seed=5)
    model = init_model(cfg)
    w0 = [w.copy() for w in model.weights]
    records = train(model, train_ds, test_ds, cfg)
    for w, orig in zip(model.weights, w0):
        npt.assert_array_equal(w, orig)
    assert len(records) == 3
    # shuffling reorders the running-mean accumulation, so train_loss is
    # only constant up to summation rounding; accuracies are exact
    losses = [r.train_loss for r in records]
    npt.assert_allclose(losses, losses[0], rtol=0, atol=1e-12)
    assert len({r.train_acc for r in records}) == 1
    assert len({r.test_acc for r in records}) == 1


def test_single_step_descends_on_fixed_batch():
    rng = make_rng(43, 99)
    for case in range(100):
        spec = ALL_KINDS[case % len(ALL_KINDS)]
        cfg = _config(layers=(3, 5, 3), seed=case, loss=spec)
        model = init_model(cfg)
        x = rng.normal(size=(8, 3))
        y = rng.integers(0, 3, size=8)
        before = _mean_batch_loss(model, x, y, spec)
        gw, gb, _ = batch_grad(model, x, y, spec)
        lr = 1e-3
        for w, g in zip(model.weights, gw):
            w -= lr * g
        for b, g in zip(model.biases, gb):
            b -= lr * g
        after = _mean_batch_loss(model, x, y, spec)
        assert after <= before + 1e-12, f"case {case} {spec}: {before} -> {after}"


def test_train_reaches_high_accuracy_on_separable_data_all_kinds():
    train_ds, test_ds = _blobs(400)
    report = []
    for spec in ALL_KINDS:
        cfg = MlpConfig((2, 8, 2), spec, 0.05, 20, 50, seed=1)
        model = init_model(cfg)
        records = train(model, train_ds, test_ds, cfg, eval_test_every_epoch=False)
        final_train_acc = records[-1].train_acc
        assert final_train_acc >= 0.99, f"{spec}: {final_train_acc}"
        to90 = next((r.epoch for r in records if r.train_acc >= 0.9), None)
        report.append((str(spec), to90))
    # learning-speed report: epochs to 90% training accuracy per loss
    speeds = dict(report)
    print("epochs-to-90%:", report)
    assert speeds["ce"] <= speeds["mae"]  # steepest vs flattest gradient factor


def test_train_records_shape_and_determinism():
    train_ds, test_ds = _blobs(120)
    cfg = MlpConfig((2, 6, 2), FR, 0.1, 16, 4, seed=9)
    m1 = init_model(cfg)
    r1 = train(m1, train_ds, test_ds, cfg)
    m2 = init_model(cfg)
    r2 = train(m2, train_ds, test_ds, cfg)
    assert [(r.epoch, r.train_loss, r.train_acc, r.test_acc) for r in r1] == [
        (r.epoch, r.train_loss, r.train_acc, r.test_acc) for r in r2
    ]
    for w1, w2 in zip(m1.weights, m2.weights):
        npt.assert_array_equal(w1, w2)
    assert [r.epoch for r in r1] == [1, 2, 3, 4]


def _diverging_fixture(batch_size):
    # softmax saturation bounds the score gradient, and an oversized step
    # kills every ReLU (weights and biases land hugely negative), so
    # merely-too-large rates plateau instead of diverging.  The reliable
    # fixture is a single affine layer where one update overflows float64:
    # lr * |x| * |delta| > 1.8e308, with conflicting labels keeping delta
    # nonzero under saturation.
    a = 1e200
    feats = np.array([[a, 0.0], [a, 0.0], [0.0, a], [0.0, a]])
    labels = np.array([0, 1, 0, 1])
    ds = LabeledDataset(feats, labels, 2)
    cfg = MlpConfig((2, 2), CE, 1e120, batch_size, 3, seed=2)
    return init_model(cfg), ds, cfg


def test_train_divergence_raises_with_partial_records():
    # one full-batch step per epoch: the epoch-end parameter check catches it
    model, ds, cfg = _diverging_fixture(4)
    with pytest.raises(TrainingDiverged) as exc, np.errstate(over="ignore", invalid="ignore"):
        train(model, ds, None, cfg)
    assert exc.value.epoch == 1
    assert exc.value.records == []


def test_train_divergence_caught_by_next_step_scores_check():
    # two steps per epoch: the second step's scores check catches it
    model, ds, cfg = _diverging_fixture(2)
    with pytest.raises(TrainingDiverged) as exc, np.errstate(over="ignore", invalid="ignore"):
        train(model, ds, None, cfg)
    assert exc.value.epoch == 1
    assert exc.value.records == []


def test_train_divergence_hidden_behind_relu_caught_at_epoch_end():
    # x > 0 and a -inf input weight drive hidden unit 0 to -inf, which ReLU
    # zeroes: scores, loss and gradients stay finite, so only the check of
    # the parameters at the end of the epoch sees the bad weight.
    train_ds = LabeledDataset(np.arange(1.0, 13.0).reshape(6, 2), np.array([0, 1] * 3), 2)
    cfg = MlpConfig((2, 3, 2), CE, 0.1, 2, 3, seed=0)
    model = init_model(cfg)
    model.weights[0][0, 0] = -np.inf
    with pytest.raises(TrainingDiverged) as exc:
        train(model, train_ds, None, cfg)
    assert exc.value.epoch == 1
    assert exc.value.records == []


def test_train_dimension_checks():
    train_ds, test_ds = _blobs(30)
    cfg = MlpConfig((3, 4, 2), CE, 0.1, 5, 1, seed=0)
    with pytest.raises(ValueError):
        train(init_model(cfg), train_ds, test_ds, cfg)


def test_test_eval_can_be_disabled():
    train_ds, test_ds = _blobs(60)
    cfg = MlpConfig((2, 4, 2), CE, 0.05, 10, 3, seed=5)
    records = train(init_model(cfg), train_ds, test_ds, cfg, eval_test_every_epoch=False)
    assert records[0].test_acc is None and records[1].test_acc is None
    assert records[-1].test_acc is not None


# ----------------------------------------------------------------- evaluate


def test_evaluate_perfect_predictor():
    ds = LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), 2)
    model = MlpModel(weights=[np.eye(2) * 10], biases=[np.zeros(2)])
    acc, loss = evaluate(model, ds, CE)
    assert acc == 1.0
    assert loss < 1e-4


def test_evaluate_tie_breaks_to_smallest_index():
    ds = LabeledDataset(np.ones((10, 2)), np.array([0, 1] * 5), 2)
    model = MlpModel(weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
    acc, _ = evaluate(model, ds, CE)  # all scores tie -> always predicts 0
    assert acc == 0.5


def test_evaluate_accuracy_invariant_to_score_shift():
    train_ds, _ = _blobs(100)
    cfg = MlpConfig((2, 6, 2), CE, 0.05, 10, 2, seed=3)
    model = init_model(cfg)
    train(model, train_ds, None, cfg)
    acc_before, _ = evaluate(model, train_ds, CE)
    model.biases[-1] += 17.5  # shifts every sample's scores uniformly
    acc_after, _ = evaluate(model, train_ds, CE)
    assert acc_before == acc_after


# ------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    model = init_model(_config(layers=(5, 4, 3), seed=77))
    model.biases[0][:] = 0.25
    path = tmp_path / "model.npz"
    save_model(model, path)
    back = load_model(path)
    assert back.layer_sizes == model.layer_sizes
    for a, b in zip(model.weights + model.biases, back.weights + back.biases):
        npt.assert_array_equal(a, b)


# ---------------------------------------------- softmax-shift invariance


def test_bias_shift_cancels_exactly_in_one_step():
    # integer weights and inputs: adding an integer constant to the final
    # biases is exact, and the max-subtraction inside softmax removes it,
    # so probabilities and gradients agree bit for bit
    base = MlpModel(
        weights=[np.array([[1.0, -2.0], [3.0, 1.0]]), np.array([[2.0, -1.0], [1.0, 1.0]])],
        biases=[np.array([1.0, 0.0]), np.array([0.0, 1.0])],
    )
    shifted = MlpModel(
        weights=[w.copy() for w in base.weights],
        biases=[base.biases[0].copy(), base.biases[1] + 5.0],
    )
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 4.0]])
    y = np.array([0, 1, 0])
    for spec in ALL_KINDS:
        gw_a, gb_a, loss_a = batch_grad(base, x, y, spec)
        gw_b, gb_b, loss_b = batch_grad(shifted, x, y, spec)
        assert loss_a == loss_b
        for a, b in zip(gw_a + gb_a, gw_b + gb_b):
            npt.assert_array_equal(a, b)


def test_bias_shift_leaves_training_dynamics_unchanged():
    # with fresh zero biases the shift itself is exact, but subsequent
    # forward passes re-round (score + c), so trajectories agree to fp
    # accumulation error rather than bitwise; accuracies should match exactly
    train_ds, test_ds = _blobs(100)
    cfg = MlpConfig((2, 6, 2), FR, 0.05, 10, 5, seed=21)
    shift = 0.5
    base_model = init_model(cfg)
    base_records = train(base_model, train_ds, test_ds, cfg)
    shifted_model = init_model(cfg)
    shifted_model.biases[-1] += shift
    shifted_records = train(shifted_model, train_ds, test_ds, cfg)
    for r_base, r_shift in zip(base_records, shifted_records):
        npt.assert_allclose(r_shift.train_loss, r_base.train_loss, rtol=0, atol=1e-9)
        assert r_shift.train_acc == r_base.train_acc
        assert r_shift.test_acc == r_base.test_acc
    npt.assert_allclose(
        shifted_model.biases[-1] - shift, base_model.biases[-1], rtol=0, atol=1e-9
    )
    for w_s, w_b in zip(shifted_model.weights, base_model.weights):
        npt.assert_allclose(w_s, w_b, rtol=0, atol=1e-9)
