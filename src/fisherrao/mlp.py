"""Fully-connected ReLU network trained by plain mini-batch SGD.

The network maps features to raw class scores; softmax lives in the loss
layer, not in the model.  Everything is float64 and deterministic given the
config seed: weights are fan-in-uniform, biases start at zero, the epoch
shuffle comes from a dedicated stream, and batch gradients are averaged with
a fixed summation order (one GEMM per layer).
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .data import LabeledDataset
from .losses import LossSpec, loss_values, score_gradients
from .rng import STREAM_INIT, STREAM_SHUFFLE, make_rng
from .simplex import softmax


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
        if sizes[-1] < 2:
            raise ValueError(f"output layer must have >= 2 classes, got {sizes[-1]}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class MlpModel:
    """Per-layer weights (fan_in, fan_out) and biases (fan_out,)."""

    weights: list[NDArray[np.float64]]
    biases: list[NDArray[np.float64]]

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)


@dataclass
class TrainRecord:
    """Metrics recorded at the end of one epoch.

    train_loss is the running mean over the epoch's batches (weighted by
    batch size); accuracies are evaluated after the epoch's updates.
    test_acc is None for epochs where test evaluation was skipped.
    """

    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float | None


class TrainingDiverged(RuntimeError):
    """Training hit non-finite scores or parameters; carries progress so far.

    Raised by batch_grad on non-finite scores and by train on non-finite
    parameters at the end of an epoch; ``epoch`` is the epoch that failed
    and ``records`` the epochs completed before it.
    """

    def __init__(self, message: str, epoch: int, records: list[TrainRecord]):
        super().__init__(message)
        self.epoch = epoch
        self.records = records


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
    """[x, hidden ReLU activations..., scores] for a batch x of shape (n, m)."""
    acts = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    acts.append(acts[-1] @ model.weights[-1] + model.biases[-1])
    return acts


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
    gradients are left to train's end-of-epoch parameter check.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty batch")

    acts = _forward(model, x)  # acts[layer] is the input to that layer
    scores = acts[-1]
    if not np.all(np.isfinite(scores)):
        raise TrainingDiverged("non-finite scores in forward pass", epoch=0, records=[])
    probs = softmax(scores)
    mean_loss = float(loss_values(spec, probs, y).mean())

    delta = score_gradients(spec, probs, y) / n
    grad_w = [np.empty(0)] * len(model.weights)
    grad_b = [np.empty(0)] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w[layer] = acts[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            # max(z, 0) > 0 exactly where z > 0: the ReLU mask
            delta = (delta @ model.weights[layer].T) * (acts[layer] > 0.0)
    return grad_w, grad_b, mean_loss


def evaluate(model: MlpModel, ds: LabeledDataset, spec: LossSpec, chunk: int = 2048) -> tuple[float, float]:
    """(accuracy, mean loss) over a dataset; argmax ties go to the smallest index."""
    correct = 0
    loss_total = 0.0
    for start in range(0, len(ds), chunk):
        x = ds.features[start : start + chunk]
        y = ds.labels[start : start + chunk]
        scores = _forward(model, x)[-1]
        correct += int((np.argmax(scores, axis=1) == y).sum())
        loss_total += float(loss_values(spec, softmax(scores), y).sum())
    return correct / len(ds), loss_total / len(ds)


def train(
    model: MlpModel,
    train_ds: LabeledDataset,
    test_ds: LabeledDataset | None,
    config: MlpConfig,
    eval_test_every_epoch: bool = True,
) -> list[TrainRecord]:
    """Mini-batch SGD; one TrainRecord per epoch.

    Each epoch draws a fresh seeded permutation, walks it in batch_size
    slices (final partial batch included), and applies w <- w - lr * grad.
    Divergence raises TrainingDiverged with the completed epochs attached.
    It is detected in two places: batch_grad's check on the scores, and a
    check of every parameter at the end of each epoch.  The second catches
    a bad gradient in the epoch it appears: if g holds an inf or nan,
    lr * g is inf or nan when lr > 0 and nan when lr = 0, so w - lr * g is
    not finite either, and a parameter that is not finite stays so.
    """
    m = train_ds.num_features
    if config.layer_sizes[0] != m or config.layer_sizes[-1] != train_ds.num_classes:
        raise ValueError(
            f"config layers {config.layer_sizes} do not match data (m={m}, K={train_ds.num_classes})"
        )
    if test_ds is not None and test_ds.num_features != m:
        raise ValueError("train and test feature dimensions differ")
    shuffle_rng = make_rng(config.seed, STREAM_SHUFFLE)
    records: list[TrainRecord] = []
    n = len(train_ds)
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        try:
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                gw, gb, batch_loss = batch_grad(model, train_ds.features[idx], train_ds.labels[idx], config.loss)
                loss_sum += batch_loss * idx.size
                for w, g in zip(model.weights, gw):
                    w -= config.learning_rate * g
                for b, g in zip(model.biases, gb):
                    b -= config.learning_rate * g
        except TrainingDiverged as exc:
            raise TrainingDiverged(str(exc), epoch=epoch, records=records) from None
        if not all(np.all(np.isfinite(a)) for a in (*model.weights, *model.biases)):
            raise TrainingDiverged("non-finite parameters after update", epoch=epoch, records=records)
        train_acc, _ = evaluate(model, train_ds, config.loss)
        test_acc = None
        if test_ds is not None and (eval_test_every_epoch or epoch == config.epochs):
            test_acc, _ = evaluate(model, test_ds, config.loss)
        records.append(TrainRecord(epoch, loss_sum / n, train_acc, test_acc))
    return records


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
