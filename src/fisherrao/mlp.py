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

    Inside train_lockstep a model of R members holds views (R, fan_in,
    fan_out) and (R, fan_out) of an (R, P) buffer, one member per row.
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


def _layers(buf: np.ndarray, sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(weights, biases): views of buf, (P,) for one model or (R, P) for R, each row laid out w0 b0 w1 b1 ..."""
    parts = np.split(buf, np.cumsum([n for a, b in zip(sizes, sizes[1:]) for n in (a * b, b)])[:-1], axis=-1)
    return [w.reshape(*buf.shape[:-1], -1, fan_out) for w, fan_out in zip(parts[::2], sizes[1:])], parts[1::2]


def _backward(model: MlpModel, acts: list[np.ndarray], delta: np.ndarray, grad: MlpModel) -> None:
    """Write each layer's weight and bias gradients into grad's views of a buffer; delta is d loss / d scores."""
    for layer in range(len(model.weights) - 1, -1, -1):
        np.matmul(np.swapaxes(acts[layer], -1, -2), delta, out=grad.weights[layer])
        delta.sum(axis=-2, out=grad.biases[layer])
        if layer > 0:
            delta = delta @ np.swapaxes(model.weights[layer], -1, -2)
            delta *= acts[layer] > 0.0  # max(z, 0) > 0 exactly where z > 0: the ReLU mask


def _step(stack: MlpModel, grad: MlpModel, x: np.ndarray, labels: np.ndarray, spec: LossSpec, stat: np.ndarray):
    """Which members' scores are finite; _backward writes the step's gradients into grad, the loss layer fills stat."""
    acts = _forward(stack, x)
    finite = np.isfinite(acts[-1]).all(axis=(1, 2))
    _backward(stack, acts, _loss_layer(acts[-1], labels, spec, stat), grad)
    return finite


def forward(model: MlpModel, x) -> NDArray[np.float64]:
    """Scores for a single feature vector (no softmax)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.weights[0].shape[0],):
        raise ValueError(f"expected feature vector of length {model.weights[0].shape[0]}, got shape {x.shape}")
    return _forward(model, x[None, :])[-1][0]


def batch_grad(model: MlpModel, features, labels, spec: LossSpec):
    """Backprop on one batch.

    Returns (weight gradients, bias gradients, mean batch loss); gradients
    are means over the batch, views of one gradient buffer (see _layers).
    Raises TrainingDiverged on non-finite scores; finite scores give a finite
    loss, and the gradients are left to train's end-of-epoch parameter check.
    This is the one-member case of _step, the step train_lockstep takes.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    y = check_labels(check_label_shape(labels, x.shape[0]), model.layer_sizes[-1])
    stack = MlpModel([w[None] for w in model.weights], [b[None] for b in model.biases])
    grads, stat = np.empty((1, sum(a.size for a in stack.weights + stack.biases))), np.empty((1, y.size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in train_lockstep
        finite = _step(stack, MlpModel(*_layers(grads, model.layer_sizes)), x[None], y[None], spec, stat)
    if not finite[0]:
        raise TrainingDiverged("non-finite scores in forward pass", epoch=0, records=[])
    return (*_layers(grads[0], model.layer_sizes), float(_batch_mean_losses(stat, spec, y.size)[0, 0]))


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
    layer sizes, batch size, epoch count and loss.  Parameters and gradients
    live in two (R, P) buffers (see _layers), whose stacked views take one
    matmul per layer each way and the loss layer once per step; each model's
    arrays become views of its row, so they hold the trained values on return.

    Each epoch draws a fresh seeded permutation per member, walks it in
    batch_size slices (final partial batch included) and applies
    w <- w - lr * grad.  A member diverges when its scores are not finite
    (checked every step, before the softmax) or its parameters are not
    finite at the end of an epoch.  The second check catches a bad gradient
    in the epoch it appears: if g holds an inf or nan, lr * g is inf or nan
    when lr > 0 and nan when lr = 0, so w - lr * g is not finite either, and
    a parameter that is not finite stays so.  A diverged member gets a
    TrainingDiverged with that epoch and its completed records, and its model
    a copy of its parameter row then; it stays in the buffers, masked, and the
    others go on unchanged to the bit, as every stacked operation works per
    member.  At the end of each epoch a live member i records
    record(epoch, models[i], train_sets[i], mean train loss of the epoch).
    """
    if not models or not len(models) == len(train_sets) == len(configs):
        raise ValueError("need one train set and one config per model, and at least one model")
    features = train_sets[0].features
    shared = (configs[0].layer_sizes, configs[0].batch_size, configs[0].epochs, configs[0].loss)
    for model, ds, c in zip(models, train_sets, configs):
        if (model.layer_sizes, c.layer_sizes[0], c.layer_sizes[-1]) != (c.layer_sizes, ds.num_features, ds.num_classes):
            raise ValueError(f"config layers {c.layer_sizes} do not match model layers {model.layer_sizes} "
                             f"and data (m={ds.num_features}, K={ds.num_classes})")
        if (c.layer_sizes, c.batch_size, c.epochs, c.loss) != shared or ds.features is not features:
            raise ValueError("lockstep members must share layer_sizes, batch_size, epochs, loss and the feature matrix")
    n, (sizes, batch_size, epochs, spec) = len(features), shared
    outcomes: list = [[] for _ in models]
    alive = np.ones(len(models), dtype=bool)
    params = np.array([np.concatenate([a.ravel() for wb in zip(m.weights, m.biases) for a in wb]) for m in models])
    grads = np.empty_like(params)
    stack, grad = MlpModel(*_layers(params, sizes)), MlpModel(*_layers(grads, sizes))
    for model, row in zip(models, params):
        model.weights[:], model.biases[:] = _layers(row, sizes)
    lr = np.array([c.learning_rate for c in configs])[:, None]
    shuffles = [make_rng(c.seed, STREAM_SHUFFLE) for c in configs]
    stats = np.empty((len(models), n))  # each step's loss statistics, for the epoch's loss
    batch_sizes = np.diff([*range(0, n, batch_size), n])

    def any_left(finite: np.ndarray, epoch: int, message: str) -> bool:
        """Diverge the live members that are not finite (detached, masked in the buffers); whether any is left."""
        if finite[alive].all():
            return True
        for i in np.flatnonzero(alive & ~finite):
            models[i].weights[:], models[i].biases[:] = _layers(params[i].copy(), sizes)
            outcomes[i] = TrainingDiverged(message, epoch=epoch, records=outcomes[i])
        return bool(np.logical_and(alive, finite, out=alive).any())

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # diverged members go on with inf and nan
        for epoch in range(1, epochs + 1):
            orders = np.stack([rng.permutation(n) for rng in shuffles])
            epoch_labels = np.stack([ds.labels[order] for ds, order in zip(train_sets, orders)])
            for start in range(0, n, batch_size):
                cols = slice(start, start + batch_size)
                finite = _step(stack, grad, features[orders[:, cols]], epoch_labels[:, cols], spec, stats[:, cols])
                if not any_left(finite, epoch, "non-finite scores in forward pass"):
                    return outcomes
                params -= np.multiply(grads, lr, out=grads)
            if not any_left(np.isfinite(params).all(axis=1), epoch, "non-finite parameters after update"):
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
    """Checkpoint as an .npz archive at exactly path: layer_sizes plus w0,b0,w1,b1,... arrays."""
    arrays = {"layer_sizes": np.array(model.layer_sizes, dtype=np.int64)}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays |= {f"w{i}": w, f"b{i}": b}
    with open(path, "wb") as f:  # np.savez appends .npz to a path that lacks it, not to a file
        np.savez(f, **arrays)


def load_model(path) -> MlpModel:
    """The model of a save_model checkpoint: layer_sizes (whole numbers >= 1) and exactly the w{i}, b{i} it names."""
    with np.load(path) as z:
        arrays = {name: z[name] for name in z.files}
    sizes = arrays.pop("layer_sizes", np.array(None))  # prints None when missing
    whole = sizes.ndim == 1 and sizes.dtype.kind in "iuf" and all(float(s).is_integer() and s >= 1 for s in sizes)
    sizes = tuple(int(s) for s in sizes) if whole else sizes
    layers = range(len(sizes) - 1 if whole else 0)
    shapes = {**{f"w{i}": sizes[i:i + 2] for i in layers}, **{f"b{i}": sizes[i + 1:i + 2] for i in layers}}
    if not layers or {name: a.shape for name, a in arrays.items()} != shapes:
        raise ValueError(f"checkpoint arrays inconsistent with layer_sizes {sizes}")
    return MlpModel([np.array(arrays[f"w{i}"], dtype=np.float64) for i in layers],
                    [np.array(arrays[f"b{i}"], dtype=np.float64) for i in layers])
