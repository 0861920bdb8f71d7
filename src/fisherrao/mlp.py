"""Fully-connected ReLU network trained by plain mini-batch SGD.

The network maps features to raw class scores; softmax lives in the loss
layer, not in the model.  Everything is float64 and deterministic given the
config seed: weights are fan-in-uniform, biases start at zero, the epoch
shuffle comes from a dedicated stream, and batch gradients are averaged with
a fixed summation order (one GEMM per layer).  train_lockstep steps many
models together on stacked parameters; a stacked matmul computes each
member's product exactly as a matmul of that member alone, so a model trains
to the same bits whatever it is grouped with.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .data import LabeledDataset
from .losses import LossSpec, _batch_mean_losses, _loss_layer, loss_values
from .rng import STREAM_INIT, STREAM_SHUFFLE, check_seed, make_rng
from .simplex import check_label_shape, check_labels, check_num_classes, softmax


@dataclass(frozen=True)
class MlpConfig:
    """Architecture and SGD hyperparameters.

    layer_sizes runs (m, hidden..., K); learning_rate may be 0 (no-op
    training, useful as a control).
    """

    layer_sizes: tuple[int, ...]
    loss: LossSpec
    learning_rate: float
    batch_size: int
    epochs: int
    seed: int

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"layer_sizes needs >= 2 positive entries, got {sizes}")
        check_num_classes(sizes[-1])
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        check_seed(self.seed)


@dataclass
class MlpModel:
    """Per-layer weights (fan_in, fan_out) and biases (fan_out,).

    Inside train_lockstep a model of R members stacks them as
    (R, fan_in, fan_out) and (R, fan_out).
    """

    weights: list[NDArray[np.float64]]
    biases: list[NDArray[np.float64]]

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)


@dataclass
class TrainRecord:
    """Metrics recorded at the end of one epoch.

    train_loss is the running mean over the epoch's batches (weighted by
    batch size); accuracies are evaluated after the epoch's updates, and
    are None for epochs where that evaluation was skipped.
    """

    epoch: int
    train_loss: float
    train_acc: float | None
    test_acc: float | None


class TrainingDiverged(RuntimeError):
    """Training hit non-finite scores or parameters; carries progress so far.

    Raised by batch_grad on non-finite scores and by train on non-finite
    scores in a step or parameters at the end of an epoch; train_lockstep
    returns one per diverged member instead of raising.  ``epoch`` is the
    epoch that failed and ``records`` the epochs completed before it.
    """

    def __init__(self, message: str, epoch: int, records: list[TrainRecord]):
        super().__init__(message)
        self.epoch = epoch
        self.records = records

    def __reduce__(self):  # BaseException's would call cls(message) alone
        return type(self), (self.args[0], self.epoch, self.records)


def init_model(config: MlpConfig) -> MlpModel:
    """Weights uniform on [-sqrt(6/fan_in), +sqrt(6/fan_in)], biases zero."""
    rng = make_rng(config.seed, STREAM_INIT)
    weights, biases = [], []
    for fan_in, fan_out in zip(config.layer_sizes[:-1], config.layer_sizes[1:]):
        lim = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return MlpModel(weights, biases)


def _forward(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """[x, hidden ReLU activations..., scores] for x of shape (n, m), or (R, n, m) for a stacked model."""
    acts = [x]
    for layer, (w, b) in enumerate(zip(model.weights, model.biases), start=1):
        acts.append(acts[-1] @ w)
        acts[-1] += b[..., None, :]
        if layer < len(model.weights):
            np.maximum(acts[-1], 0.0, out=acts[-1])
    return acts


def _backward(model: MlpModel, acts: list[np.ndarray], delta: np.ndarray):
    """Yield (layer, weight gradient, bias gradient) from the last layer down.

    delta is d loss / d scores.  A layer is yielded only after the delta for
    the layer below has been computed from its weights, so the caller may
    update that layer in place before resuming.
    """
    for layer in range(len(model.weights) - 1, -1, -1):
        gw = np.swapaxes(acts[layer], -1, -2) @ delta
        gb = delta.sum(axis=-2)
        if layer > 0:
            delta = delta @ np.swapaxes(model.weights[layer], -1, -2)
            delta *= acts[layer] > 0.0  # max(z, 0) > 0 exactly where z > 0: the ReLU mask
        yield layer, gw, gb


def forward(model: MlpModel, x) -> NDArray[np.float64]:
    """Scores for a single feature vector (no softmax)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.weights[0].shape[0],):
        raise ValueError(f"expected feature vector of length {model.weights[0].shape[0]}, got shape {x.shape}")
    return _forward(model, x[None, :])[-1][0]


def batch_grad(model: MlpModel, features, labels, spec: LossSpec):
    """Backprop on one batch.

    Returns (weight gradients, bias gradients, mean batch loss); gradients
    are means over the batch.  Raises TrainingDiverged on non-finite scores,
    which softmax would reject.  Finite scores give a finite loss; the
    gradients are left to train's end-of-epoch parameter check.  This is the
    one-member case of the step train_lockstep takes.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    y = check_labels(check_label_shape(labels, x.shape[0]), model.layer_sizes[-1])
    stack = MlpModel([w[None] for w in model.weights], [b[None] for b in model.biases])
    acts = _forward(stack, x[None])
    if not np.all(np.isfinite(acts[-1])):
        raise TrainingDiverged("non-finite scores in forward pass", epoch=0, records=[])
    stat = np.empty((1, y.size))
    with np.errstate(over="ignore"):  # a score range past the float maximum shifts to -inf, and exp(-inf) is 0
        delta = _loss_layer(acts[-1], y[None], spec, stat)
    grad_w = [np.empty(0)] * len(model.weights)
    grad_b = [np.empty(0)] * len(model.biases)
    for layer, gw, gb in _backward(stack, acts, delta):
        grad_w[layer], grad_b[layer] = gw[0], gb[0]
    return grad_w, grad_b, float(_batch_mean_losses(stat, spec, y.size)[0, 0])


# Rows per evaluation forward pass.  Part of the numeric contract: BLAS may
# compute a row differently depending on how many rows the call holds.
EVAL_CHUNK = 2048


def _scored_chunks(model: MlpModel, ds: LabeledDataset):
    """(argmax hits, scores, labels) per EVAL_CHUNK rows; argmax ties go to the smallest index."""
    for start in range(0, len(ds), EVAL_CHUNK):
        y = ds.labels[start : start + EVAL_CHUNK]
        scores = _forward(model, ds.features[start : start + EVAL_CHUNK])[-1]
        yield int((np.argmax(scores, axis=1) == y).sum()), scores, y


def _accuracy(model: MlpModel, ds: LabeledDataset) -> float:
    return sum(hits for hits, _, _ in _scored_chunks(model, ds)) / len(ds)


def evaluate(model: MlpModel, ds: LabeledDataset, spec: LossSpec) -> tuple[float, float]:
    """(accuracy, mean loss) over a dataset; argmax ties go to the smallest index."""
    correct, loss_total = 0, 0.0
    for hits, scores, y in _scored_chunks(model, ds):
        correct += hits
        loss_total += float(loss_values(spec, softmax(scores), y).sum())
    return correct / len(ds), loss_total / len(ds)


def _recorder(test_ds: LabeledDataset | None, epochs: int, test_every_epoch: bool):
    """train_lockstep's record: train accuracy every epoch, test accuracy every epoch or only at the last."""
    def record(epoch: int, model: MlpModel, train_ds: LabeledDataset, train_loss: float) -> TrainRecord:
        scored = test_ds is not None and (test_every_epoch or epoch == epochs)
        return TrainRecord(epoch, train_loss, _accuracy(model, train_ds), _accuracy(model, test_ds) if scored else None)
    return record


def train_lockstep(models: list[MlpModel], train_sets: list[LabeledDataset], configs: list[MlpConfig], record) -> list:
    """Mini-batch SGD on R models at once; per member, its epoch records or its TrainingDiverged.

    Member i trains models[i] on train_sets[i] under configs[i] exactly as it
    would alone: own init, shuffle stream, labels and learning rate.  The
    members share the feature matrix (datasets made by with_labels), the
    layer sizes, batch size, epoch count and loss.  Their parameters are stacked,
    so each layer takes one matmul forward and one backward, the loss layer
    runs once per step and the loss values once per epoch; each model's
    arrays become views of the stack, so they hold the trained values on return.

    Each epoch draws a fresh seeded permutation per member, walks it in
    batch_size slices (final partial batch included) and applies
    w <- w - lr * grad.  A member diverges when its scores are not finite
    (checked every step, before the softmax) or its parameters are not
    finite at the end of an epoch.  The second check catches a bad gradient
    in the epoch it appears: if g holds an inf or nan, lr * g is inf or nan
    when lr > 0 and nan when lr = 0, so w - lr * g is not finite either, and
    a parameter that is not finite stays so.  A diverged member gets a
    TrainingDiverged with that epoch and its completed records, and its model
    a copy of its parameters then; it stays in the stack, masked, and the
    others go on unchanged to the bit, as every stacked operation works per
    member.  At the end of each epoch a live member i records
    record(epoch, models[i], train_sets[i], mean train loss of the epoch).
    """
    if not models or not len(models) == len(train_sets) == len(configs):
        raise ValueError("need one train set and one config per model, and at least one model")
    features = train_sets[0].features
    shared = (configs[0].layer_sizes, configs[0].batch_size, configs[0].epochs, configs[0].loss)
    for ds, c in zip(train_sets, configs):
        if c.layer_sizes[0] != ds.num_features or c.layer_sizes[-1] != ds.num_classes:
            raise ValueError(
                f"config layers {c.layer_sizes} do not match data (m={ds.num_features}, K={ds.num_classes})"
            )
        if (c.layer_sizes, c.batch_size, c.epochs, c.loss) != shared or ds.features is not features:
            raise ValueError("lockstep members must share layer_sizes, batch_size, epochs, loss and the feature matrix")
    n, (_, batch_size, epochs, spec) = len(features), shared
    outcomes: list = [[] for _ in models]
    alive = np.ones(len(models), dtype=bool)
    stack = MlpModel([np.stack(ws) for ws in zip(*(m.weights for m in models))],
                     [np.stack(bs) for bs in zip(*(m.biases for m in models))])
    for pos, model in enumerate(models):
        model.weights[:] = [w[pos] for w in stack.weights]
        model.biases[:] = [b[pos] for b in stack.biases]
    lr = np.array([c.learning_rate for c in configs])[:, None, None]
    shuffles = [make_rng(c.seed, STREAM_SHUFFLE) for c in configs]
    stats = np.empty((len(models), n))  # each step's loss statistics, for the epoch's loss
    batch_sizes = np.diff([*range(0, n, batch_size), n])

    def diverge(bad: np.ndarray, epoch: int, message: str) -> None:
        """Record the bad members as diverged and detach their models; they stay in the stack, masked."""
        for i in np.flatnonzero(bad):
            models[i].weights[:] = [w.copy() for w in models[i].weights]
            models[i].biases[:] = [b.copy() for b in models[i].biases]
            outcomes[i] = TrainingDiverged(message, epoch=epoch, records=outcomes[i])
        alive[bad] = False

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # diverged members go on with inf and nan
        for epoch in range(1, epochs + 1):
            orders = np.stack([rng.permutation(n) for rng in shuffles])
            epoch_labels = np.stack([ds.labels[order] for ds, order in zip(train_sets, orders)])
            for start in range(0, n, batch_size):
                cols = slice(start, start + batch_size)
                acts = _forward(stack, features[orders[:, cols]])
                finite = np.isfinite(acts[-1]).all(axis=(1, 2))
                if not finite[alive].all():
                    diverge(alive & ~finite, epoch, "non-finite scores in forward pass")
                    if not alive.any():
                        return outcomes
                delta = _loss_layer(acts[-1], epoch_labels[:, cols], spec, stats[:, cols])
                for layer, gw, gb in _backward(stack, acts, delta):
                    stack.weights[layer] -= np.multiply(gw, lr, out=gw)
                    stack.biases[layer] -= np.multiply(gb, lr[:, 0], out=gb)
            del acts, delta, gw, gb  # the last step's temporaries, before evaluation allocates its own
            finite = np.ones(len(models), dtype=bool)
            for a in (*stack.weights, *stack.biases):
                finite &= np.isfinite(a).reshape(len(models), -1).all(axis=1)
            if not finite[alive].all():
                diverge(alive & ~finite, epoch, "non-finite parameters after update")
                if not alive.any():
                    return outcomes
            loss_sum = np.zeros(len(models))
            for batch_loss in (_batch_mean_losses(stats, spec, batch_size) * batch_sizes).T:
                loss_sum += batch_loss  # in step order from +0.0, the bits of a running sum over the steps
            for i in np.flatnonzero(alive):
                outcomes[i].append(record(epoch, models[i], train_sets[i], float(loss_sum[i]) / n))
    return outcomes


def train(model: MlpModel, train_ds: LabeledDataset, test_ds: LabeledDataset | None, config: MlpConfig,
          eval_test_every_epoch: bool = True) -> list[TrainRecord]:
    """Mini-batch SGD; one TrainRecord per epoch.

    The one-member case of train_lockstep, which states the schedule and
    the divergence rule.  Divergence raises TrainingDiverged with the
    completed epochs attached.
    """
    if test_ds is not None and test_ds.num_features != train_ds.num_features:
        raise ValueError("train and test feature dimensions differ")
    (outcome,) = train_lockstep([model], [train_ds], [config], _recorder(test_ds, config.epochs, eval_test_every_epoch))
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome


def save_model(model: MlpModel, path) -> None:
    """Checkpoint as .npz: layer_sizes plus w0,b0,w1,b1,... arrays."""
    arrays = {"layer_sizes": np.array(model.layer_sizes, dtype=np.int64)}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    np.savez(path, **arrays)


def load_model(path) -> MlpModel:
    with np.load(path) as z:
        sizes = tuple(int(s) for s in z["layer_sizes"])
        weights = [np.array(z[f"w{i}"], dtype=np.float64) for i in range(len(sizes) - 1)]
        biases = [np.array(z[f"b{i}"], dtype=np.float64) for i in range(len(sizes) - 1)]
    model = MlpModel(weights, biases)
    if model.layer_sizes != sizes:
        raise ValueError(f"checkpoint arrays inconsistent with layer_sizes {sizes}")
    return model
