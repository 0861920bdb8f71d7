"""The benchmark's workloads: inputs, one timed repetition, output checks.

Every workload is a closed loop with one caller: a repetition starts when
the previous one has finished and been checked.  Only the program calls are
timed; the checks run between them with the clock stopped.  Program
functions are looked up on their module at call time, so a traced
repetition goes through the tracer's wrappers and an untraced one does not.

- ``sweep_b20``: the paper's experiment, criterion 7's cell structure cut
  to n_train 2000 and 3 epochs: ``grid-lr`` over 3 learning rates (24 cells)
  then ``train`` with the selected ``lr_file`` over 5 seeds (40 cells), for
  4 losses x eta {0, 0.5} on a 100-80-40-20-10 net at batch 20.  Per-call
  overhead sets the cost of each step here.
- ``wide_b64``: the MNIST shape (784-300-100-10, batch 64) on synthetic
  data, ``ce`` and ``fr`` x eta {0, 0.5}, one seed, fixed lr.  GEMMs, the
  parameter update and ``evaluate`` set the time here, not call overhead.
- ``geometry_bulk``: the simplex and loss code that training calls per
  batch, called on 200k x 10 arrays (16 MB each, between L2 and L3), plus
  both bounds sweeps on the CLI's default grids.  Temporaries and memory
  traffic set the time here.
"""

import contextlib
import csv
import hashlib
import importlib
import io
import os
import random
import time
from typing import NamedTuple

import numpy as np

# import_module, not attribute access: the package re-exports the function
# ``bounds`` under the name of the module ``bounds``.
cli, simplex, losses, bounds = (importlib.import_module(f"fisherrao.{m}")
                                for m in ("cli", "simplex", "losses", "bounds"))

TRAINING_OUTPUTS = ("lr_selection.csv", "runs.csv", "summary.csv")
# The defaults of ``fisherrao bounds``: loss list, alpha grid, K grid.
BOUND_LOSSES = ("mse", "mae", "ce", "qce:0.7", "fr", "hellinger")
BOUND_ALPHAS = np.linspace(0.0, 0.99, 100)
BOUND_K_GRID = (2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000)
BOUND_ALPHA = 0.8
BOUND_K = 10


class Rep(NamedTuple):
    """One repetition: timed wall seconds, operations attempted and failed."""

    wall: float
    attempted: int
    failed: int
    note: str = ""


def derived_seeds(seed: int, count: int) -> list[int]:
    """``count`` distinct seeds in [0, 2**32) drawn from the workload seed."""
    return random.Random(seed).sample(range(2**32), count)


def gemm_flops_per_step(layer_sizes, batch: int) -> int:
    """2 x multiply-adds of one SGD step: forward, weight and input gradients."""
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    forward = sum(a * b for a, b in pairs)
    input_grads = sum(a * b for a, b in pairs[1:])
    return 2 * batch * (2 * forward + input_grads)


def param_bytes(layer_sizes) -> int:
    return 8 * sum(a * b + b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


def _timed(box: list, fn, *args):
    """Call ``fn(*args)``, adding its wall time to ``box[0]``."""
    start = time.perf_counter()
    result = fn(*args)
    box[0] += time.perf_counter() - start
    return result


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as f:
        return list(csv.DictReader(f))


def file_digests(out_dir) -> dict[str, str]:
    digests = {}
    for name in TRAINING_OUTPUTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def failed_training_cells(out_dir, grid_cells: int, sweep_cells: int, grid_rc, train_rc: int,
                          digests: dict, expected: dict | None) -> int:
    """Cells of one repetition that failed.

    A grid cell fails when it diverged (final_test_acc -1) or has no row; a
    sweep cell when ``summary.csv`` does not count it among the completed
    seeds.  Every cell of an invocation fails when the CLI exited non-zero
    without a failed cell to explain it, or when one of its files differs
    from ``expected`` (digests from an earlier repetition or the stored
    reference).
    """

    def differs(*names):
        return expected is not None and any(expected.get(n) != digests.get(n) for n in names)

    failed = 0
    if grid_cells:
        try:
            rows = _read_csv(os.path.join(out_dir, "lr_selection.csv"))
            grid_failed = grid_cells - sum(float(r["final_test_acc"]) >= 0 for r in rows)
        except (OSError, KeyError, ValueError):
            grid_failed = grid_cells
        if (grid_rc != 0 and grid_failed == 0) or differs("lr_selection.csv"):
            grid_failed = grid_cells
        failed += min(max(grid_failed, 0), grid_cells)
    try:
        rows = _read_csv(os.path.join(out_dir, "summary.csv"))
        sweep_failed = sweep_cells - sum(int(r["n_seeds"]) for r in rows)
    except (OSError, KeyError, ValueError):
        sweep_failed = sweep_cells
    if (train_rc != 0 and sweep_failed == 0) or differs("runs.csv", "summary.csv"):
        sweep_failed = sweep_cells
    return failed + min(max(sweep_failed, 0), sweep_cells)


def _fr_minus_ce_points(out_dir) -> str:
    try:
        rows = {(r["loss"], r["eta"]): float(r["mean_test_acc"])
                for r in _read_csv(os.path.join(out_dir, "summary.csv"))}
        return f"FR-CE at eta 0.5: {100 * (rows[('fr', '0.5')] - rows[('ce', '0.5')]):+.1f} pts"
    except (OSError, KeyError, ValueError):
        return ""


class Training:
    """A sweep driven in-process through the documented CLI path.

    With an lr grid, ``grid-lr`` writes ``lr_selection.csv`` and ``train``
    reads it as ``lr_file``; without one, ``train`` uses a fixed lr.
    """

    item_name = "train_samples"

    def __init__(self, name, seed, workdir, *, loss_kinds, etas, n_seeds, hidden, batch_size,
                 epochs, n_train, n_test, features, classes=10, class_sep=0.35, lr=None,
                 lr_grid=(), reference=None):
        data_seed, *run_seeds = derived_seeds(seed, 1 + n_seeds)
        self.out_dir = os.path.join(workdir, name)
        os.makedirs(self.out_dir, exist_ok=True)
        self.lr_path = os.path.join(self.out_dir, "lr_selection.csv")
        self.config_path = os.path.join(workdir, name + ".cfg")
        config = {
            "dataset": "synthetic",
            "losses": ",".join(loss_kinds),
            "etas": ",".join(map(str, etas)),
            "seeds": ",".join(map(str, run_seeds)),
            "hidden": ",".join(map(str, hidden)),
            "batch_size": batch_size,
            "epochs": epochs,
            "n_train": n_train,
            "n_test": n_test,
            "features": features,
            "classes": classes,
            "class_sep": class_sep,
            "data_seed": data_seed,
            "out_dir": self.out_dir,
        }
        if lr_grid:
            config["lr_grid"] = ",".join(map(str, lr_grid))
            config["lr_file"] = self.lr_path
        else:
            config["lr"] = lr
        with open(self.config_path, "w", encoding="ascii") as f:
            f.writelines(f"{k} = {v}\n" for k, v in config.items())
        self.layer_sizes = (features, *hidden, classes)
        self.batch_size = batch_size
        self.grid_cells = len(loss_kinds) * len(etas) * len(lr_grid)
        self.sweep_cells = len(loss_kinds) * len(etas) * n_seeds
        self.items_per_rep = (self.grid_cells + self.sweep_cells) * epochs * n_train
        self.expected = reference
        self.digests = None

    def run_once(self) -> Rep:
        box = [0.0]
        grid_rc = None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if self.grid_cells:
                grid_rc = _timed(box, cli.run, ["grid-lr", "--config", self.config_path, "--out", self.lr_path])
            train_rc = _timed(box, cli.run, ["train", "--config", self.config_path, "--out-dir", self.out_dir])
        self.digests = file_digests(self.out_dir)
        failed = failed_training_cells(self.out_dir, self.grid_cells, self.sweep_cells,
                                       grid_rc, train_rc, self.digests, self.expected)
        if self.expected is None:
            self.expected = self.digests  # later repetitions must match byte for byte
        return Rep(box[0], self.grid_cells + self.sweep_cells, failed, _fr_minus_ce_points(self.out_dir))


class Geometry:
    """Distances, softmax, every loss and score gradient, and both bounds sweeps."""

    item_name = "rows"

    def __init__(self, seed, n_rows=200_000, classes=10):
        rng = np.random.default_rng(derived_seeds(seed, 1)[0])
        self.scores = rng.normal(0.0, 2.0, (n_rows, classes))
        self.labels = rng.integers(0, classes, n_rows)
        x = rng.standard_exponential((2, n_rows, classes))
        self.p, self.q = x / x.sum(axis=-1, keepdims=True)
        parse = losses.LossSpec.parse
        # Each pair is checked against its first member: qce:0 is MAE and
        # qce:0.5 is the Hellinger loss.
        self.loss_specs = [parse(s) for s in ("mse", "ce", "qce:0.7", "fr")]
        self.loss_pairs = [(parse("mae"), parse("qce:0"), 0.0), (parse("hellinger"), parse("qce:0.5"), 1e-12)]
        self.bound_specs = [parse(s) for s in BOUND_LOSSES]
        self.calls_per_rep = 4 + 2 * (len(self.loss_specs) + 2 * len(self.loss_pairs)) + 2
        self.items_per_rep = n_rows * (self.calls_per_rep - 2)

    def run_once(self) -> Rep:
        box = [0.0]
        failed = 0
        d_fr = _timed(box, simplex.fisher_rao_distance, self.p, self.q)
        d_h = _timed(box, simplex.hellinger_distance, self.p, self.q)
        d_fr_from_h = _timed(box, simplex.fisher_rao_from_hellinger, d_h)
        if not np.abs(d_fr - d_fr_from_h).max() <= 1e-12:
            failed += 3
        del d_fr, d_h, d_fr_from_h
        probs = _timed(box, simplex.softmax, self.scores)
        if not np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12:
            failed += 1
        for spec in self.loss_specs:
            failed += self._loss_calls(box, spec, probs, None, None)
        for spec, twin, tol in self.loss_pairs:
            reference = self._loss_outputs(box, spec, probs)
            failed += self._loss_calls(box, twin, probs, reference, tol)
        for sweep, grid, fixed in ((bounds.alpha_sweep, BOUND_ALPHAS, BOUND_K),
                                   (bounds.class_count_sweep, BOUND_K_GRID, BOUND_ALPHA)):
            rows = _timed(box, sweep, self.bound_specs, fixed, grid)
            mse_rows = [r for r in rows if r["loss"] == "mse"]
            if not mse_rows or any(r["A"] != r["eta"] for r in mse_rows):
                failed += 1
        return Rep(box[0], self.calls_per_rep, failed)

    def _loss_outputs(self, box, spec, probs):
        return (_timed(box, losses.loss_values, spec, probs, self.labels),
                _timed(box, losses.score_gradients, spec, probs, self.labels))

    def _loss_calls(self, box, spec, probs, reference, tol) -> int:
        """Failed calls among loss_values and score_gradients for ``spec``.

        Every output must be finite; with a ``reference`` pair it must also
        match it within ``tol`` (0 means bit for bit).
        """
        outputs = self._loss_outputs(box, spec, probs)
        failed = 0
        for i, out in enumerate(outputs):
            ok = bool(np.isfinite(out).all())
            if ok and reference is not None:
                ok = np.array_equal(out, reference[i]) if tol == 0 else np.abs(out - reference[i]).max() <= tol
            failed += not ok
        if reference is not None:
            failed += sum(not np.isfinite(r).all() for r in reference)
        return failed
