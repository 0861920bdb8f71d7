import pickle
import re

import numpy as np
import numpy.testing as npt
import pytest

from fisherrao import mlp
from fisherrao.data import LabeledDataset, SyntheticSpec, generate_synthetic
from fisherrao.losses import CE, FR, HELLINGER, MAE, MSE, loss_gradient_scores, loss_values, qce, score_gradients
from fisherrao.mlp import (
    MlpConfig,
    MlpModel,
    TrainingDiverged,
    TrainRecord,
    _backward,
    _forward,
    _layers,
    _recorder,
    batch_grad,
    evaluate,
    forward,
    init_model,
    load_model,
    save_model,
    train,
    train_lockstep,
)
from fisherrao.noise import NoiseSpec, corrupt_labels
from fisherrao.rng import STREAM_SHUFFLE, make_rng
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
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            _config(seed=seed)


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


@pytest.mark.parametrize("labels", [[3, 0], [0, -1], [0, 1, 2]])
def test_batch_grad_rejects_labels_that_do_not_fit_the_batch(labels):
    # the loss layer indexes p_y through a flat index, where a label out of
    # [0, K) would silently read a neighbouring row
    with pytest.raises(ValueError, match="class indices" if len(labels) != 2 else r"out of range \[0, 3\)"):
        batch_grad(init_model(_config()), np.ones((2, 3)), np.array(labels), CE)


# -------------------------------------------------------------------- train


def _blobs(n=400, seed=3, sep=2.5):
    train_ds, test_ds = generate_synthetic(SyntheticSpec(n, n // 2, 2, 2, sep, seed=seed))
    return train_ds, test_ds


def test_scores_spanning_past_the_float_maximum_are_no_error():
    # finite scores 1.7e308 apart: the softmax shift overflows to -inf, and exp(-inf) = 0 gives p = (0, 1) exactly
    scores = np.array([-1.7e308, 1.7e308])
    npt.assert_array_equal(loss_gradient_scores(CE, scores, 1), [0.0, 0.0])
    model = MlpModel([scores[None, :]], [np.zeros(2)])
    ds = LabeledDataset(np.array([[1.0], [1.0]]), np.array([1, 0]), 2)
    assert evaluate(model, ds, MAE) == (0.5, 0.5)
    grad_w, grad_b, loss = batch_grad(model, ds.features, ds.labels, MSE)
    assert loss == 1.0
    npt.assert_array_equal(grad_b[0], [0.0, 0.0])  # MSE saturates at a vertex


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
    with pytest.raises(TrainingDiverged) as exc:
        train(model, ds, None, cfg)
    assert exc.value.epoch == 1
    assert exc.value.records == []


def test_training_diverged_pickles_with_its_epoch_and_records():
    exc = TrainingDiverged("non-finite scores in forward pass", epoch=2, records=[TrainRecord(1, 0.5, 0.75, None)])
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is TrainingDiverged
    assert (str(back), back.epoch, back.records) == (str(exc), 2, [TrainRecord(1, 0.5, 0.75, None)])


def test_train_divergence_caught_by_next_step_scores_check():
    # two steps per epoch: the second step's scores check catches it
    model, ds, cfg = _diverging_fixture(2)
    with pytest.raises(TrainingDiverged) as exc:
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
    cfg = MlpConfig((2, 4, 2), CE, 0.1, 5, 1, seed=0)
    wider = LabeledDataset(np.hstack([test_ds.features, test_ds.features]), test_ds.labels, 2)
    with pytest.raises(ValueError, match="train and test feature dimensions differ"):
        train(init_model(cfg), train_ds, wider, cfg)


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


@pytest.mark.parametrize("layers", [(3, 2), (3, 4, 5, 2)])
def test_calls_leave_callers_feature_array_unchanged(layers):
    # the forward and backward passes work in place on their own arrays only
    rng = make_rng(8, 0)
    x = rng.normal(size=(9, 3))
    y = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1])
    before = x.copy()
    cfg = MlpConfig(layers, FR, 0.1, 4, 2, seed=1)
    model = init_model(cfg)
    forward(model, x[0])
    batch_grad(model, x, y, cfg.loss)
    ds = LabeledDataset(x, y, 2)
    evaluate(model, ds, cfg.loss)
    train(model, ds, ds, cfg)
    assert x.flags.writeable
    assert x.tobytes() == before.tobytes()


# ------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    model = init_model(_config(layers=(5, 4, 3), seed=77))
    model.biases[0][:] = 0.25
    for name in ("model.npz", "model.ckpt"):  # the archive is written to exactly the given path
        path = tmp_path / name
        save_model(model, path)
        back = load_model(path)
        assert back.layer_sizes == model.layer_sizes
        for a, b in zip(model.weights + model.biases, back.weights + back.biases):
            npt.assert_array_equal(a, b)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.npz"]


@pytest.mark.parametrize("sizes, changed", [
    ((5, 6, 3), {}),
    ((5, 4), {}),  # w1 and b1 beyond the layers named
    ((5, 4, 3), {"b0": np.zeros(7)}),
    ((5, 4, 3), {"w0": np.zeros((5, 4, 1))}),
    ((5, 4, 3), {"w1": None}),  # left out
    ([2.5, 3.0], {"w0": np.zeros((2, 3)), "b0": np.zeros(3), "w1": None, "b1": None}),  # int() would read 2-3
    (None, {}),  # no layer_sizes at all
    ([[5, 4, 3]], {}),
], ids=["hidden_size", "extra_layer", "long_bias", "3d_weight", "missing_w1", "fractional_sizes", "missing_sizes",
        "2d_sizes"])
def test_checkpoint_whose_arrays_disagree_with_its_layer_sizes_is_rejected(tmp_path, sizes, changed):
    model = init_model(_config(layers=(5, 4, 3)))
    arrays = {"layer_sizes": None if sizes is None else np.array(sizes), "w0": model.weights[0], "b0": model.biases[0],
              "w1": model.weights[1], "b1": model.biases[1], **changed}
    path = tmp_path / "model.npz"
    np.savez(path, **{name: a for name, a in arrays.items() if a is not None})
    shown = sizes if isinstance(sizes, tuple) else np.array(sizes)  # a rejected array prints as numpy prints it
    with pytest.raises(ValueError, match=re.escape(f"checkpoint arrays inconsistent with layer_sizes {shown}")):
        load_model(path)


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


# ------------------------------------------------------------- lockstep


def _reference_train(model, train_ds, test_ds, config, eval_test_every_epoch=True):
    """The per-cell SGD loop that train_lockstep replaced, kept as its reference."""
    shuffle_rng = make_rng(config.seed, STREAM_SHUFFLE)
    records = []
    n = len(train_ds)
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            x, y = train_ds.features[idx], train_ds.labels[idx]
            acts = [x]
            for w, b in zip(model.weights[:-1], model.biases[:-1]):
                acts.append(np.maximum(acts[-1] @ w + b, 0.0))
            scores = acts[-1] @ model.weights[-1] + model.biases[-1]
            if not np.all(np.isfinite(scores)):
                raise TrainingDiverged("non-finite scores in forward pass", epoch=epoch, records=records)
            probs = softmax(scores)
            loss_sum += float(loss_values(config.loss, probs, y).mean()) * idx.size
            delta = score_gradients(config.loss, probs, y) / idx.size
            grads = []
            for layer in range(len(model.weights) - 1, -1, -1):
                grads.append((layer, acts[layer].T @ delta, delta.sum(axis=0)))
                if layer > 0:
                    delta = (delta @ model.weights[layer].T) * (acts[layer] > 0.0)
            for layer, gw, gb in grads:
                model.weights[layer] -= config.learning_rate * gw
                model.biases[layer] -= config.learning_rate * gb
        if not all(np.all(np.isfinite(a)) for a in (*model.weights, *model.biases)):
            raise TrainingDiverged("non-finite parameters after update", epoch=epoch, records=records)
        train_acc, _ = evaluate(model, train_ds, config.loss)
        test_acc = None
        if test_ds is not None and (eval_test_every_epoch or epoch == config.epochs):
            test_acc, _ = evaluate(model, test_ds, config.loss)
        records.append(TrainRecord(epoch, loss_sum / n, train_acc, test_acc))
    return records


def _solo(model, train_ds, test_ds, config, eval_test_every_epoch=True, trainer=train):
    """A copy of model trained alone: (records or TrainingDiverged, trained model)."""
    model = MlpModel([w.copy() for w in model.weights], [b.copy() for b in model.biases])
    try:
        return trainer(model, train_ds, test_ds, config, eval_test_every_epoch), model
    except TrainingDiverged as exc:
        return exc, model


def _assert_same_params(a, b):
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        npt.assert_array_equal(x, y)


@pytest.mark.parametrize("layer_sizes,batch", [((100, 80, 40, 20, 10), 20), ((784, 300, 100, 10), 64)])
@pytest.mark.parametrize("r", [1, 3, 20])
def test_stacked_matmul_equals_per_member_matmul(layer_sizes, batch, r):
    # the lockstep trainer relies on this: a stacked matmul computes each
    # member's product exactly as the member's own 2-D matmul would
    rng = make_rng(50, r)
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        for rows in (batch, 7, 1):  # a full batch and partial final ones
            a = rng.normal(size=(r, rows, fan_in))
            w = rng.normal(size=(r, fan_in, fan_out))
            delta = rng.normal(size=(r, rows, fan_out))
            forward_ = a @ w
            weight_grad = a.transpose(0, 2, 1) @ delta
            input_grad = delta @ w.transpose(0, 2, 1)
            for m in range(r):
                assert np.array_equal(forward_[m], a[m] @ w[m])
                assert np.array_equal(weight_grad[m], a[m].T @ delta[m])
                assert np.array_equal(input_grad[m], delta[m] @ w[m].T)


def test_lockstep_group_matches_reference_loop():
    # one group per loss: three learning rates, two etas, 50 samples in
    # batches of 7 (a final batch of 1), test accuracy only at the last epoch
    train_ds, test_ds = generate_synthetic(SyntheticSpec(50, 30, 5, 3, 1.0, seed=4))
    for i, spec in enumerate(ALL_KINDS):
        members = []
        for j, (lr, eta) in enumerate(((0.05, 0.0), (0.3, 0.4), (0.1, 0.4))):
            noise = NoiseSpec(eta, 10 * i + j, 3)
            ds = train_ds.with_labels(corrupt_labels(train_ds.labels, noise))
            config = MlpConfig((5, 6, 4, 3), spec, lr, 7, 3, seed=i + 10 * j)
            members.append((init_model(config), ds, config))
        expected = [_solo(m, ds, test_ds, cfg, False, _reference_train) for m, ds, cfg in members]
        models, sets, configs = (list(col) for col in zip(*members))
        outcomes = train_lockstep(models, sets, configs, _recorder(test_ds, 3, False))
        for (records, ref_model), got, model in zip(expected, outcomes, models):
            assert got == records
            assert [r.test_acc is None for r in got] == [True, True, False]
            _assert_same_params(model, ref_model)


def test_batch_grad_is_the_lockstep_step_bit_for_bit():
    # batch_size = n makes the epoch one step, so each member's trained
    # parameters are W - lr * g with g from batch_grad on its shuffled rows
    train_ds, _ = generate_synthetic(SyntheticSpec(24, 8, 5, 3, 1.0, seed=6))
    n = len(train_ds)
    for i, spec in enumerate(ALL_KINDS):
        members = []
        for j, lr in enumerate((0.05, 0.3, 0.1)):
            ds = train_ds.with_labels(corrupt_labels(train_ds.labels, NoiseSpec(0.4, 10 * i + j, 3)))
            config = MlpConfig((5, 6, 4, 3), spec, lr, n, 1, seed=i + 10 * j)
            members.append((init_model(config), ds, config))
        expected = []
        for model, ds, config in members:
            order = make_rng(config.seed, STREAM_SHUFFLE).permutation(n)
            grad_w, grad_b, _ = batch_grad(model, ds.features[order], ds.labels[order], spec)
            expected.append(MlpModel([w - config.learning_rate * g for w, g in zip(model.weights, grad_w)],
                                     [b - config.learning_rate * g for b, g in zip(model.biases, grad_b)]))
        models, sets, configs = (list(col) for col in zip(*members))
        outcomes = train_lockstep(models, sets, configs, _recorder(None, 1, True))
        assert not any(isinstance(out, TrainingDiverged) for out in outcomes)
        for model, want in zip(models, expected):
            for got, ref in zip(model.weights + model.biases, want.weights + want.biases):
                assert np.array_equal(got, ref)


def test_lockstep_epoch_of_zero_losses_records_positive_zero():
    # a score margin of 2000 makes every t exactly 1, so every row's CE loss
    # -log(1) is -0.0 and no gradient moves the model; the epoch's loss is
    # added up from +0.0, as the reference loop's running sum is
    features = np.array([[1000.0], [-1000.0]] * 3 + [[1000.0]])  # batches of 3, 3 and 1
    ds = LabeledDataset(features, np.array([0, 1] * 3 + [0]), 2)
    config = MlpConfig((1, 2), CE, 0.1, 3, 2, seed=0)
    model = MlpModel([np.array([[1.0, -1.0]])], [np.zeros(2)])
    expected, _ = _solo(model, ds, None, config, trainer=_reference_train)
    (got,) = train_lockstep([model], [ds], [config], _recorder(None, 2, True))
    assert got == expected
    for a, b in zip(got, expected):
        assert np.float64(a.train_loss).tobytes() == np.float64(b.train_loss).tobytes() == np.float64(0.0).tobytes()


def test_lockstep_divergence_leaves_other_members_unchanged():
    features = np.arange(1.0, 13.0).reshape(6, 2)  # x > 0, 3 steps of 2 per epoch
    base = LabeledDataset(features, np.zeros(6, dtype=int), 2)
    test_ds = LabeledDataset(features[::-1], np.array([1, 0] * 3), 2)
    for spec in ALL_KINDS:  # one group per loss
        members = []
        for i, lr in enumerate((0.1, 1e120, 0.05, 0.1, 0.2)):
            labels = np.array([0, 1, 1, 0, 1, 0]) if i % 2 else np.array([0, 1] * 3)
            config = MlpConfig((2, 3, 2), spec, lr, 2, 3, seed=i)
            members.append((init_model(config), base.with_labels(labels), config))
        # member 1: huge activations and rate overflow its first update, and
        # the next step's scores check catches it (equal scores keep every
        # loss's gradient nonzero: MSE's vanishes at a vertex); member 3: a
        # -inf input weight hides behind ReLU, so only the epoch-end
        # parameter check sees it
        members[1][0].weights[0][:] *= 1e200
        members[1][0].weights[1][:] = members[1][0].weights[1][:, :1]
        members[3][0].weights[0][0, 0] = -np.inf
        expected = [_solo(m, ds, test_ds, cfg) for m, ds, cfg in members]
        models, sets, configs = (list(col) for col in zip(*members))
        outcomes = train_lockstep(models, sets, configs, _recorder(test_ds, 3, True))
        assert [isinstance(out, TrainingDiverged) for out in outcomes] == [False, True, False, True, False]
        assert "scores" in str(outcomes[1]) and "parameters" in str(outcomes[3])
        for (solo, solo_model), got, model in zip(expected, outcomes, models):
            if isinstance(solo, TrainingDiverged):
                assert (str(got), got.epoch, got.records) == (str(solo), solo.epoch, solo.records)
            else:
                assert got == solo
            _assert_same_params(model, solo_model)  # a diverged member keeps its parameters as they were then


def test_lockstep_rejects_members_that_cannot_share_a_step():
    train_ds, test_ds = _blobs(40)
    cfg = MlpConfig((2, 4, 2), CE, 0.1, 10, 2, seed=0)
    record = _recorder(test_ds, 2, True)
    for models, train_sets, configs in (([], [], []), ([init_model(cfg)], [train_ds, train_ds], [cfg, cfg])):
        with pytest.raises(ValueError, match="one train set and one config per model"):
            train_lockstep(models, train_sets, configs, record)
    other = LabeledDataset(train_ds.features.copy(), train_ds.labels, 2)
    with pytest.raises(ValueError, match="feature matrix"):
        train_lockstep([init_model(cfg), init_model(cfg)], [train_ds, other], [cfg, cfg], record)
    wider = MlpConfig((2, 5, 2), CE, 0.1, 10, 2, seed=0)
    with pytest.raises(ValueError, match="share layer_sizes"):
        train_lockstep([init_model(cfg), init_model(wider)], [train_ds, train_ds], [cfg, wider], record)
    fr = MlpConfig((2, 4, 2), FR, 0.1, 10, 2, seed=0)
    with pytest.raises(ValueError, match="loss"):
        train_lockstep([init_model(cfg), init_model(fr)], [train_ds, train_ds], [cfg, fr], record)


def test_lockstep_rejects_a_model_that_does_not_match_its_config():
    train_ds, test_ds = _blobs(40)
    cfg = MlpConfig((2, 4, 2), CE, 0.1, 10, 2, seed=0)
    deeper = init_model(MlpConfig((2, 5, 5, 2), CE, 0.1, 10, 2, seed=0))
    message = r"config layers \(2, 4, 2\) do not match model layers \(2, 5, 5, 2\)"
    with pytest.raises(ValueError, match=message):
        train(deeper, train_ds, test_ds, cfg)
    with pytest.raises(ValueError, match=message):  # not numpy's error from stacking the members
        train_lockstep([init_model(cfg), deeper], [train_ds, train_ds], [cfg, cfg], _recorder(test_ds, 2, True))


# ------------------------------------------------------- parameter buffers


def _param_count(sizes):
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("rows", [(), (3,)])
def test_layer_views_tile_their_buffer_in_order(rows):
    sizes = (5, 4, 3)
    buf = np.arange(float(np.prod(rows, dtype=int) * _param_count(sizes))).reshape(*rows, -1)
    weights, biases = _layers(buf, sizes)
    assert [w.shape for w in weights] == [(*rows, 5, 4), (*rows, 4, 3)]
    assert [b.shape for b in biases] == [(*rows, 4), (*rows, 3)]
    assert all(np.shares_memory(a, buf) for a in weights + biases)
    laid_out = [a.reshape(*rows, -1) for a in (weights[0], biases[0], weights[1], biases[1])]
    assert np.array_equal(np.concatenate(laid_out, axis=-1), buf)  # w0 b0 w1 b1, each weight row-major


def test_lockstep_arrays_are_views_of_one_parameter_and_one_gradient_buffer(monkeypatch):
    steps, step = [], mlp._step

    def spy(stack, grad, *args):
        steps.append((stack, grad))
        return step(stack, grad, *args)

    monkeypatch.setattr(mlp, "_step", spy)
    train_ds, _ = _blobs(40)
    configs = [MlpConfig((2, 4, 3, 2), CE, lr, 10, 2, seed=i) for i, lr in enumerate((0.1, 0.2, 0.3))]
    models = [init_model(c) for c in configs]
    train_lockstep(models, [train_ds] * 3, configs, _recorder(None, 2, True))
    assert len(steps) == 8 and all(s is steps[0][0] and g is steps[0][1] for s, g in steps)  # no per-step arrays
    stack, grad = steps[0]
    params, grads = stack.weights[0].base, grad.weights[0].base
    assert params.shape == grads.shape == (3, _param_count((2, 4, 3, 2))) and not np.shares_memory(params, grads)
    assert all(np.shares_memory(a, params) for a in stack.weights + stack.biases)
    assert all(np.shares_memory(a, grads) for a in grad.weights + grad.biases)
    for i, model in enumerate(models):
        for a in model.weights + model.biases:
            assert [np.shares_memory(a, row) for row in params] == [j == i for j in range(3)]
    gw, gb, _ = batch_grad(models[0], train_ds.features[:5], train_ds.labels[:5], CE)
    buf = gw[0].base
    assert buf.shape == (1, _param_count((2, 4, 3, 2))) and all(np.shares_memory(g, buf) for g in gw + gb)


def test_a_diverged_member_keeps_a_detached_copy_while_the_group_trains_on():
    features = np.arange(1.0, 13.0).reshape(6, 2)  # x > 0, 3 steps of 2 per epoch
    ds = LabeledDataset(features, np.array([0, 1] * 3), 2)
    configs = [MlpConfig((2, 3, 2), CE, 0.1, 2, 3, seed=i) for i in range(3)]
    models = [init_model(c) for c in configs]
    models[1].weights[0][0, 0] = -np.inf  # hidden behind ReLU: the member diverges at the end of epoch 1
    solo, solo_model = _solo(models[1], ds, None, configs[1])
    outcomes = train_lockstep(models, [ds] * 3, configs, _recorder(None, 3, True))
    assert isinstance(outcomes[1], TrainingDiverged) and outcomes[1].epoch == solo.epoch == 1
    assert [len(out) for out in (outcomes[0], outcomes[2])] == [3, 3]
    params = models[0].weights[0].base
    detached = models[1].weights + models[1].biases
    assert not any(np.shares_memory(a, params) for a in detached)
    _assert_same_params(models[1], solo_model)  # its values at the end of epoch 1, two epochs later
    row = MlpModel(*_layers(params[1], (2, 3, 2)))
    assert not all(np.array_equal(a, b) for a, b in zip(row.weights + row.biases, detached))  # the row trained on


@pytest.mark.parametrize("r", [1, 3])
def test_backward_into_buffer_views_equals_per_member_products(r):
    # wide_b64's shapes: the views' products and sums give the bits of fresh per-member arrays
    sizes, batch = (784, 300, 100, 10), 64
    rng = make_rng(51, r)
    params, grads = rng.normal(size=(r, _param_count(sizes))), np.full((r, _param_count(sizes)), np.nan)
    stack, grad = MlpModel(*_layers(params, sizes)), MlpModel(*_layers(grads, sizes))
    acts = _forward(stack, rng.normal(size=(r, batch, sizes[0])))
    delta = rng.normal(size=(r, batch, sizes[-1]))
    _backward(stack, acts, delta, grad)
    assert np.isfinite(grads).all()  # every entry written
    for m in range(r):
        d = delta[m]
        for layer in range(len(sizes) - 2, -1, -1):
            assert np.array_equal(grad.weights[layer][m], acts[layer][m].T @ d)
            assert np.array_equal(grad.biases[layer][m], d.sum(axis=0))
            d = (d @ stack.weights[layer][m].T) * (acts[layer][m] > 0.0)
