"""Multi-seed training sweeps over (loss, noise rate) cells, with CSV output.

A sweep trains one model per (loss, eta, seed) cell.  Only training labels
are corrupted, from a noise seed derived via ``derive_seed(seed, eta_index)``
so that different noise levels use independent corruptions while every loss
sees the same noisy labels at a given (eta, seed) — a paired comparison.

Per-epoch rows and the cross-seed summary are written as CSV with repr()
floats, so a re-run with identical seeds reproduces the files byte for byte.
Summary accuracy is the final epoch's (acc_metric column says so); the best
epoch's accuracy is logged alongside.
"""

import contextlib
import functools
import io
import os
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from typing import get_args, get_origin

import numpy as np

from .data import (DataFormatError, LabeledDataset, SyntheticSpec, _decoded, generate_synthetic, load_csv,
                   load_mnist, read_rows, write_rows)
from .losses import LossSpec, _exact_g
from .mlp import MlpConfig, TrainingDiverged, TrainRecord, _accuracy, _recorder, init_model, train, train_lockstep
from .noise import NoiseSpec, corrupt_labels
from .rng import derive_seed

SUMMARY_COLUMNS = (
    "loss,q,eta,mean_test_acc,std_test_acc,n_seeds,mean_best_test_acc,acc_metric,n_diverged"
)
PER_EPOCH_COLUMNS = "run_id,loss,q,eta,seed,epoch,train_loss,train_acc,test_acc"
LR_TABLE_COLUMNS = ("loss", "q", "eta", "lr", "final_test_acc", "selected")


@dataclass(frozen=True)
class ExperimentSpec:
    """Flat description of a sweep, loadable from a key = value config file."""

    dataset: str  # "synthetic" | "mnist" | "csv"
    losses: tuple[LossSpec, ...]
    etas: tuple[float, ...]
    seeds: tuple[int, ...]
    hidden: tuple[int, ...]
    batch_size: int
    epochs: int
    lr: float | None = None
    lr_file: str | None = None
    lr_grid: tuple[float, ...] = ()
    grid_epochs: int | None = None
    eval_every_epoch: bool = True
    out_dir: str = "runs"
    # synthetic source
    n_train: int = 8000
    n_test: int = 2000
    features: int = 100
    classes: int = 10
    class_sep: float = 1.0
    data_seed: int = 0
    # mnist source
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    # csv source
    train_csv: str | None = None
    test_csv: str | None = None
    # applies to mnist/csv: keep only the first train_limit training samples
    train_limit: int | None = None

    def __post_init__(self):
        if self.dataset not in ("synthetic", "mnist", "csv"):
            raise ValueError(f"dataset must be synthetic, mnist, or csv, got {self.dataset!r}")
        if not self.losses or not self.etas or not self.seeds:
            raise ValueError("losses, etas, and seeds must all be nonempty")
        object.__setattr__(self, "etas", tuple(eta + 0.0 for eta in self.etas))  # -0.0 is the cell of eta 0
        cells = [run_id(loss, eta, seed) for loss in self.losses for eta in self.etas for seed in self.seeds]
        for what, values in (("run_id", cells), ("lr_grid entry", self.lr_grid)):
            repeated = [value for value, count in Counter(values).items() if count > 1]
            if repeated:
                raise ValueError(f"duplicate {what} {repeated[0]!r}; losses, etas, seeds and lr_grid must not repeat")
        if self.dataset == "mnist" and None in (
            self.train_images, self.train_labels, self.test_images, self.test_labels
        ):
            raise ValueError("mnist dataset needs train_images/train_labels/test_images/test_labels")
        if self.dataset == "csv" and None in (self.train_csv, self.test_csv):
            raise ValueError("csv dataset needs train_csv and test_csv")


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _value_parser(tp):
    """Text -> value for a field annotation: scalars, 'X | None', 'tuple[X, ...]'."""
    args = [a for a in get_args(tp) if a is not type(None)]
    if get_origin(tp) is tuple:
        item = _value_parser(args[0])
        return lambda text: tuple(item(tok) for tok in text.split(","))
    tp = args[0] if args else tp
    if tp is bool:
        return lambda text: _BOOL[text.lower()]
    return LossSpec.parse if tp is LossSpec else tp


_PARSERS = {f.name: _value_parser(f.type) for f in fields(ExperimentSpec)}
_REQUIRED = {f.name for f in fields(ExperimentSpec) if f.default is MISSING and f.default_factory is MISSING}


def parse_config(path) -> ExperimentSpec:
    """Parse a flat 'key = value' config file ('#' starts a comment).

    Each ExperimentSpec field is a key, given at most once, parsed by its type; 'hidden = none' is ().
    """
    values, key_lines = {}, {}
    try:
        with open(path, "rb") as f:
            text = _decoded(f.read(), path, "utf-8")
    except DataFormatError as exc:
        raise ValueError(str(exc)) from None  # a bad config is a usage error, even a byte that is not utf-8
    with io.StringIO(text, newline=None) as f:  # universal newlines, as open() reads a text file
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or not key or not val:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value', got {raw.rstrip()!r}")
            try:
                if key not in _PARSERS:
                    raise ValueError(f"unknown key {key!r}")
                if key in key_lines:
                    raise ValueError(f"key {key!r} repeats line {key_lines[key]}; give each key once")
                key_lines[key] = lineno
                values[key] = () if key == "hidden" and val.lower() == "none" else _PARSERS[key](val)
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    missing = sorted(_REQUIRED - values.keys())
    if missing:
        raise ValueError(f"{path}: missing required keys: {', '.join(missing)}")
    return ExperimentSpec(**values)


def load_datasets(spec: ExperimentSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Materialize (train, test) from the configured source."""
    if spec.dataset == "synthetic":
        train_ds, test_ds = generate_synthetic(
            SyntheticSpec(spec.n_train, spec.n_test, spec.features, spec.classes,
                          spec.class_sep, spec.data_seed)
        )
    elif spec.dataset == "mnist":
        train_ds = load_mnist(spec.train_images, spec.train_labels)
        test_ds = load_mnist(spec.test_images, spec.test_labels)
    else:
        train_ds = load_csv(spec.train_csv)
        test_ds = load_csv(spec.test_csv)
        k = max(train_ds.num_classes, test_ds.num_classes)
        train_ds = LabeledDataset(train_ds.features, train_ds.labels, k)
        test_ds = LabeledDataset(test_ds.features, test_ds.labels, k)
    if spec.train_limit is not None and spec.train_limit < len(train_ds):
        train_ds = train_ds.take(spec.train_limit)
    if train_ds.num_features != test_ds.num_features:
        raise DataFormatError(
            f"train has {train_ds.num_features} features but test has {test_ds.num_features}"
        )
    return train_ds, test_ds


# Upper bound on the stacked parameters of one lockstep group: 21 members of
# the 100-80-40-20-10 net (98 800 B each).  A 784-300-100-10 member, 2 132 880 B,
# is over it alone, and trains in a group of its own through _group_sizes' max(1, ...).
GROUP_PARAM_BYTES = 2 * 1024 * 1024

# OpenBLAS computes a product with batch * fan_in * fan_out at most this size on
# one thread at any thread setting (65536 times its GEMM_MULTITHREAD_THRESHOLD of 4).
SMALL_PRODUCT = 2**18


def _noisy_train_set(train_ds: LabeledDataset, eta: float, eta_index: int, seed: int) -> LabeledDataset:
    noise = NoiseSpec(eta, derive_seed(seed, eta_index), train_ds.num_classes)
    return train_ds.with_labels(corrupt_labels(train_ds.labels, noise))


def run_cell(
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    loss: LossSpec,
    eta: float,
    eta_index: int,
    seed: int,
    hidden: tuple[int, ...],
    batch_size: int,
    epochs: int,
    lr: float,
    eval_every_epoch: bool = True,
) -> list[dict]:
    """Corrupt a fresh copy of the training labels, train one model; its runs.csv rows."""
    noisy_ds = _noisy_train_set(train_ds, eta, eta_index, seed)
    config = MlpConfig((train_ds.num_features, *hidden, train_ds.num_classes), loss, lr, batch_size, epochs, seed)
    try:
        outcome = train(init_model(config), noisy_ds, test_ds, config, eval_test_every_epoch=eval_every_epoch)
    except TrainingDiverged as exc:
        outcome = exc
    return _run_rows(loss, eta, seed, outcome)


def _run_rows(loss: LossSpec, eta: float, seed: int, outcome) -> list[dict]:
    """A run's runs.csv rows, keyed by PER_EPOCH_COLUMNS, from its records or its TrainingDiverged:
    one row per record and, for a TrainingDiverged, one more at the epoch that failed, with empty metrics."""
    records = outcome
    if isinstance(outcome, TrainingDiverged):
        records = [*outcome.records, TrainRecord(outcome.epoch, None, None, None)]
    head = (run_id(loss, eta, seed), loss.kind, loss.q, eta, seed)
    return [dict(zip(PER_EPOCH_COLUMNS.split(","), head + (rec.epoch, rec.train_loss, rec.train_acc, rec.test_acc)))
            for rec in records]


def _group_sizes(n_cells: int, layer_sizes: tuple[int, ...]) -> list[int]:
    """Near-equal group sizes whose stacked parameters fit in GROUP_PARAM_BYTES."""
    member_bytes = 8 * sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))
    n_groups = -(-n_cells // max(1, GROUP_PARAM_BYTES // member_bytes))
    base, extra = divmod(n_cells, n_groups)
    return [base + 1] * extra + [base] * (n_groups - extra)


def _plan_groups(configs) -> list[list[int]]:
    """The lockstep groups of a sweep's configs, as positions, in training order.

    A group trains one loss; losses come in first-seen order, each loss's configs
    in sweep order, cut into the near-equal sizes of _group_sizes.
    """
    groups = []
    for loss in dict.fromkeys(config.loss for config in configs):
        positions = [pos for pos, config in enumerate(configs) if config.loss == loss]
        for size in _group_sizes(len(positions), configs[0].layer_sizes):
            groups.append(positions[:size])
            positions = positions[size:]
    return groups


def _is_small(config: MlpConfig) -> bool:
    """Whether every product of a training step has batch * fan_in * fan_out <= SMALL_PRODUCT."""
    sizes = config.layer_sizes
    return config.batch_size * max(a * b for a, b in zip(sizes[:-1], sizes[1:])) <= SMALL_PRODUCT


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, through ctypes; None without them."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _train_group(positions, configs, train_sets, record) -> list:
    group_configs = [configs[pos] for pos in positions]
    return train_lockstep([init_model(c) for c in group_configs], [train_sets[pos] for pos in positions],
                          group_configs, record)


_worker_train = None  # a pool worker's _train_group with its inputs bound, inherited through fork


def _start_worker(train, parent: int) -> None:
    """Pool worker set-up: keep the group trainer, and die with the parent (on Linux)."""
    global _worker_train
    _worker_train = train
    import ctypes
    import signal

    try:
        prctl = ctypes.CDLL(None).prctl
    except AttributeError:  # no prctl: a worker outlives a parent killed by a signal
        return
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG: a parent killed by any signal takes its workers along
    if os.getppid() != parent:  # the parent died before prctl
        os._exit(1)


def _train_in_worker(positions) -> list:
    return _worker_train(positions)


@contextlib.contextmanager
def _group_outcomes(groups, configs, train_sets, record):
    """An iterator over the groups' train_lockstep outcomes, in plan order.

    When every config is small and numpy's OpenBLAS thread count can be set,
    it is pinned to one thread for the whole context and the old count is
    restored after, so a group's bits depend on neither the CPU count nor the
    thread setting.  With more than one usable CPU and group, and fork, the
    groups then train in forked workers, which inherit the pin and the inputs:
    only the outcomes come back, and no worker outlives the context.
    Otherwise each group trains here when its outcomes are read.
    """
    train = functools.partial(_train_group, configs=configs, train_sets=train_sets, record=record)
    threads = _openblas_threads() if all(map(_is_small, configs)) else None
    workers = min(_usable_cpus(), len(groups)) if threads is not None else 1
    get_threads, set_threads = threads or (lambda: None, lambda count: None)  # no setter: left as it is
    restore = get_threads()
    set_threads(1)
    try:
        if workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if "fork" in multiprocessing.get_all_start_methods():
                pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                           initializer=_start_worker, initargs=(train, os.getpid()))
                try:
                    yield pool.map(_train_in_worker, groups)
                finally:
                    pool.shutdown(cancel_futures=True)
                return
        yield map(train, groups)
    finally:
        set_threads(restore)


def _sweep_cells(train_ds, test_ds, spec, epochs, runs) -> list[tuple[int, MlpConfig]]:
    """A sweep's (eta_index, config) cells: by eta, then loss, then each (seed, lr) of runs(loss, eta).

    Every config is built here, before anything trains, so a bad setting fails early.
    """
    if test_ds.num_features != train_ds.num_features:
        raise ValueError("train and test feature dimensions differ")
    layer_sizes = (train_ds.num_features, *spec.hidden, train_ds.num_classes)
    return [(eta_index, MlpConfig(layer_sizes, loss, lr, spec.batch_size, epochs, seed))
            for eta_index, eta in enumerate(spec.etas) for loss in spec.losses for seed, lr in runs(loss, eta)]


def _train_cells(train_ds, etas, cells, record, tag, progress) -> list[list[dict]]:
    """Train (eta_index, config) cells in the lockstep groups of _plan_groups; each run's rows, in cell order.

    Each (eta, seed) label set is corrupted once, for all losses, before the
    first progress line.  Groups report in plan order wherever they train: a
    group's progress lines before its outcomes are awaited, its divergence
    lines after.
    """
    progress = progress or (lambda line: None)
    configs = [config for _, config in cells]
    noisy = functools.cache(lambda eta_index, seed: _noisy_train_set(train_ds, etas[eta_index], eta_index, seed))
    train_sets = [noisy(eta_index, config.seed) for eta_index, config in cells]
    lines = [f"{tag} loss={config.loss} eta={_exact_g(etas[eta_index])} seed={config.seed} "
             f"lr={_exact_g(config.learning_rate)}" for eta_index, config in cells]
    groups = _plan_groups(configs)
    runs: list = [None] * len(cells)
    with _group_outcomes(groups, configs, train_sets, record) as outcomes:
        for positions in groups:
            for pos in positions:
                progress(lines[pos])
            for pos, out in zip(positions, next(outcomes)):
                eta_index, config = cells[pos]
                runs[pos] = _run_rows(config.loss, etas[eta_index], config.seed, out)
                if isinstance(out, TrainingDiverged):
                    progress(f"  diverged at epoch {out.epoch}: {lines[pos]}")
    return runs


def run_sweep(
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    spec: ExperimentSpec,
    lr_for=None,
    progress=None,
) -> list[list[dict]]:
    """The runs.csv rows of each (eta, loss, seed) cell's run, in deterministic order.

    lr_for(loss, eta) supplies the learning rate per cell; default is the
    spec's fixed lr (or the table loaded from spec.lr_file).  Every rate is
    looked up before the first cell trains, so a missing entry fails early.
    """
    if lr_for is None:
        lr_for = make_lr_lookup(spec)
    cells = _sweep_cells(train_ds, test_ds, spec, spec.epochs,
                         lambda loss, eta: [(seed, lr_for(loss, eta)) for seed in spec.seeds])
    record = _recorder(test_ds, spec.epochs, spec.eval_every_epoch)
    return _train_cells(train_ds, spec.etas, cells, record, "train", progress)


def make_lr_lookup(spec: ExperimentSpec):
    """Learning-rate source for a sweep: lr_file table if set, else fixed lr."""
    if spec.lr_file is not None:
        table = read_lr_table(spec.lr_file)

        def from_table(loss: LossSpec, eta: float) -> float:
            key = (str(loss), eta)
            if key not in table:
                raise ValueError(f"{spec.lr_file}: no learning rate for loss={loss} eta={_exact_g(eta)}")
            return table[key]

        return from_table
    if spec.lr is None:
        raise ValueError("config needs either lr or lr_file for training")
    return lambda loss, eta: spec.lr


def grid_search_lr(
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    spec: ExperimentSpec,
    progress=None,
) -> list[dict]:
    """Short training per (loss, eta, grid lr); pick the lr with the best
    final test accuracy (ties toward the smaller lr).

    Uses the first configured seed and grid_epochs (default: epochs) epochs.
    Returns one row per grid point: loss, q, eta, lr, final_test_acc,
    selected (1 for the chosen lr, else 0); diverged runs score -1.
    """
    if not spec.lr_grid:
        raise ValueError("config needs a nonempty lr_grid for grid search")
    epochs = spec.grid_epochs if spec.grid_epochs is not None else spec.epochs
    cells = _sweep_cells(train_ds, test_ds, spec, epochs,
                         lambda loss, eta: [(spec.seeds[0], lr) for lr in spec.lr_grid])

    def final_test_acc(epoch, model, _, train_loss) -> TrainRecord:
        # selection reads only the final test accuracy, so grid runs skip the train-accuracy passes
        return TrainRecord(epoch, train_loss, None, _accuracy(model, test_ds) if epoch == epochs else None)

    # a run scores its last row's test accuracy: -1 when that row has none, as the failed row of a diverged run
    accs = [-1.0 if run[-1]["test_acc"] is None else run[-1]["test_acc"]
            for run in _train_cells(train_ds, spec.etas, cells, final_test_acc, "grid", progress)]
    rows = [{"loss": config.loss.kind, "q": config.loss.q, "eta": spec.etas[eta_index], "lr": config.learning_rate,
             "final_test_acc": acc, "selected": 0} for (eta_index, config), acc in zip(cells, accs)]
    for start in range(0, len(rows), len(spec.lr_grid)):  # the first max of each (loss, eta): the smallest lr on ties
        rows[start + int(np.argmax(accs[start : start + len(spec.lr_grid)]))]["selected"] = 1
    return rows


def summarize(runs: list[list[dict]]) -> list[dict]:
    """The summary of a sweep's runs, each given as its runs.csv rows."""
    return _summary(row for run in runs for row in run)


def _summary(rows) -> list[dict]:
    """Cross-seed aggregation per (loss, eta) of runs.csv rows, in first-seen order.

    A run diverged when its last row by epoch, the row of the epoch that failed,
    has no train_loss.  mean/std (population std, ddof 0) of the final-epoch test
    accuracy are over the seeds that completed; diverged seeds are counted in n_diverged.
    """
    runs: dict[str, list[dict]] = {}  # dicts keep first-seen order
    for row in rows:
        runs.setdefault(row["run_id"], []).append(row)
    cells: dict[tuple, list[list[dict]]] = {}
    for run in runs.values():
        cells.setdefault((run[0]["loss"], run[0]["q"], run[0]["eta"]), []).append(run)
        run.sort(key=lambda row: row["epoch"])
    summary = []
    for (loss, q, eta), group in cells.items():
        completed = [run for run in group if run[-1]["train_loss"] is not None]
        finals = [run[-1]["test_acc"] for run in completed if run[-1]["test_acc"] is not None]
        accs = ([row["test_acc"] for row in run if row["test_acc"] is not None] for run in completed)
        bests = [max(run_accs) for run_accs in accs if run_accs]
        summary.append({
            "loss": loss, "q": q, "eta": eta,
            "mean_test_acc": float(np.mean(finals)) if finals else float("nan"),
            "std_test_acc": float(np.std(finals)) if finals else float("nan"),
            "n_seeds": len(finals),
            "mean_best_test_acc": float(np.mean(bests)) if bests else float("nan"),
            "acc_metric": "final",
            "n_diverged": len(group) - len(completed),
        })
    return summary


def run_id(loss: LossSpec, eta: float, seed: int) -> str:
    return f"{loss}-eta{_exact_g(eta)}-seed{seed}"


def write_per_epoch_csv(path, runs: list[list[dict]]) -> None:
    write_rows(path, PER_EPOCH_COLUMNS.split(","), (row for run in runs for row in run))


def write_summary_csv(path, rows: list[dict]) -> None:
    write_rows(path, SUMMARY_COLUMNS.split(","), rows)


def write_lr_table_csv(path, rows: list[dict]) -> None:
    write_rows(path, LR_TABLE_COLUMNS, rows)


def _optional_float(text: str) -> float | None:
    return float(text) if text else None


def read_lr_table(path) -> dict[tuple[str, float], float]:
    """Selected learning rates from a grid-search CSV: (loss str, eta) -> lr; one selected row per (loss, eta)."""
    table = {}

    def select(fields):
        loss, q, eta, lr, _, chosen = fields
        if chosen not in ("0", "1"):
            raise ValueError(f"selected must be 0 or 1, got {chosen!r}")
        if not 0 <= float(lr) < np.inf:
            raise ValueError(f"lr must be finite and >= 0, got {lr}")
        key = (str(LossSpec(loss, _optional_float(q))), float(eta))
        if chosen == "1":
            if key in table:
                raise ValueError(f"selected twice for loss={key[0]} eta={_exact_g(key[1])}")
            table[key] = float(lr)

    read_rows(path, LR_TABLE_COLUMNS, select)
    return table


_PER_EPOCH_TYPES = (str, str, _optional_float, float, int, int, _optional_float, _optional_float, _optional_float)


def read_per_epoch_csv(path) -> list[dict]:
    """Rows of a per-epoch CSV, typed; a metric is None where it was skipped or its epoch failed."""
    columns = PER_EPOCH_COLUMNS.split(",")
    return read_rows(path, columns, lambda fields: {
        col: cast(v) for col, cast, v in zip(columns, _PER_EPOCH_TYPES, fields)
    })


def summarize_from_csv(path) -> list[dict]:
    """Recompute the summary from a per-epoch CSV, as ``summarize`` computes it from a sweep's runs."""
    rows = read_per_epoch_csv(path)
    if not rows:
        raise DataFormatError("no data rows", path=path, line=1)
    return _summary(rows)


def run_experiment(spec: ExperimentSpec, out_dir=None, progress=None) -> tuple[list[list[dict]], list[dict]]:
    """Load data, run the sweep, write runs.csv and summary.csv under out_dir; each run's rows and the summary."""
    out = spec.out_dir if out_dir is None else out_dir
    train_ds, test_ds = load_datasets(spec)
    runs = run_sweep(train_ds, test_ds, spec, progress=progress)
    os.makedirs(out, exist_ok=True)
    write_per_epoch_csv(os.path.join(out, "runs.csv"), runs)
    summary = summarize(runs)
    write_summary_csv(os.path.join(out, "summary.csv"), summary)
    return runs, summary
