import concurrent.futures
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import numpy.testing as npt
import pytest

from fisherrao import experiment
from fisherrao.data import DataFormatError, LabeledDataset, SyntheticSpec, generate_synthetic, save_csv
from fisherrao.experiment import (
    PER_EPOCH_COLUMNS,
    SUMMARY_COLUMNS,
    ExperimentSpec,
    grid_search_lr,
    load_datasets,
    make_lr_lookup,
    parse_config,
    read_lr_table,
    read_per_epoch_csv,
    run_cell,
    run_experiment,
    run_id,
    run_sweep,
    summarize,
    summarize_from_csv,
    write_lr_table_csv,
    write_per_epoch_csv,
    write_summary_csv,
    _group_sizes,
)
from fisherrao.losses import CE, FR, MAE, LossSpec, qce
from fisherrao.mlp import MlpConfig, TrainingDiverged, TrainRecord, init_model, train, train_lockstep
from fisherrao.noise import NoiseSpec, corrupt_labels
from fisherrao.rng import derive_seed


def _blobs(n_train=40, n_test=20, sep=2.5, seed=11):
    return generate_synthetic(SyntheticSpec(n_train, n_test, 2, 2, sep, seed=seed))


def _tiny_spec(**over):
    base = dict(
        dataset="synthetic",
        losses=(CE, FR),
        etas=(0.0, 0.4),
        seeds=(0, 1),
        hidden=(4,),
        batch_size=10,
        epochs=3,
        lr=0.1,
        n_train=40,
        n_test=20,
        features=2,
        classes=2,
        class_sep=2.5,
        data_seed=11,
    )
    base.update(over)
    return ExperimentSpec(**base)


# ------------------------------------------------------------------- config


def test_parse_config_full(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
# sweep under label noise
dataset = synthetic
losses = ce, fr, qce:0.7   # trailing comment
etas = 0.0, 0.2, 0.4
seeds = 0, 1, 2
hidden = 80, 40
batch_size = 20
epochs = 5
lr = 0.05
class_sep = 1.5
n_train = 100
n_test = 50
features = 10
classes = 4
eval_every_epoch = false
out_dir = out/sweep
"""
    )
    spec = parse_config(cfg)
    assert spec.dataset == "synthetic"
    assert [str(s) for s in spec.losses] == ["ce", "fr", "qce:0.7"]
    assert spec.etas == (0.0, 0.2, 0.4)
    assert spec.seeds == (0, 1, 2)
    assert spec.hidden == (80, 40)
    assert spec.batch_size == 20 and spec.epochs == 5
    assert spec.lr == 0.05 and spec.class_sep == 1.5
    assert spec.eval_every_epoch is False
    assert spec.out_dir == "out/sweep"


def test_parse_config_hidden_none_means_no_hidden_layer(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "dataset = synthetic\nlosses = ce\netas = 0.0\nseeds = 0\n"
        "hidden = none\nbatch_size = 5\nepochs = 1\nlr = 0.1\n"
    )
    assert parse_config(cfg).hidden == ()


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("bogus_key = 3", "unknown key"),
        ("epochs = three", "line"),
        ("losses ce", "expected 'key = value'"),
        ("eval_every_epoch = maybe", "line"),
    ],
)
def test_parse_config_bad_lines(tmp_path, line, fragment):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "dataset = synthetic\nlosses = ce\netas = 0.0\nseeds = 0\n"
        f"hidden = 4\nbatch_size = 5\nepochs = 1\nlr = 0.1\n{line}\n"
    )
    with pytest.raises(ValueError, match=fragment):
        parse_config(cfg)


def test_parse_config_rejects_a_repeated_key(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset = synthetic\nlosses = ce\netas = 0.0\nseeds = 0\nlr = 0.1\n"
                   "hidden = 4\nbatch_size = 5\nepochs = 1\nlr = 0.3\n")
    with pytest.raises(ValueError) as exc:
        parse_config(cfg)
    assert str(exc.value) == f"{cfg}: line 9: key 'lr' repeats line 5; give each key once"


def test_parse_config_missing_required(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset = synthetic\nlosses = ce\n")
    with pytest.raises(ValueError, match="missing required keys"):
        parse_config(cfg)


def test_spec_validation():
    with pytest.raises(ValueError, match="dataset"):
        _tiny_spec(dataset="imagenet")
    with pytest.raises(ValueError, match="nonempty"):
        _tiny_spec(losses=())
    with pytest.raises(ValueError, match="duplicate"):
        _tiny_spec(losses=(CE, CE))
    # every (loss, eta, seed) cell needs its own run_id, and grid rates must differ
    for over, named in [
        ({"seeds": (3, 3)}, "run_id 'ce-eta0-seed3'"),
        ({"etas": (0.4, 0.4)}, "run_id 'ce-eta0.4-seed0'"),
        ({"lr_grid": (0.1, 0.3, 0.1)}, "lr_grid entry 0.1"),
    ]:
        with pytest.raises(ValueError, match=f"duplicate {re.escape(named)}"):
            _tiny_spec(**over)
    # values equal under :g are distinct cells
    assert _tiny_spec(etas=(0.1, 0.1000001)).etas == (0.1, 0.1000001)
    assert _tiny_spec(losses=(qce(0.5), qce(0.5000001))).losses == (qce(0.5), qce(0.5000001))
    with pytest.raises(ValueError, match="mnist"):
        _tiny_spec(dataset="mnist")
    with pytest.raises(ValueError, match="csv"):
        _tiny_spec(dataset="csv")


# ------------------------------------------------------------------ loading


def test_load_datasets_synthetic():
    train_ds, test_ds = load_datasets(_tiny_spec())
    assert len(train_ds) == 40 and len(test_ds) == 20
    assert train_ds.num_features == 2 and train_ds.num_classes == 2


def test_load_datasets_csv_with_limit_and_class_union(tmp_path):
    rng = np.random.default_rng(0)
    # train only uses classes 0..1 but test reaches class 2: K must be 3
    train_ds = LabeledDataset(rng.normal(size=(30, 3)), rng.integers(0, 2, 30), 2)
    test_ds = LabeledDataset(rng.normal(size=(10, 3)), np.array([2] * 10), 3)
    save_csv(train_ds, tmp_path / "train.csv")
    save_csv(test_ds, tmp_path / "test.csv")
    spec = _tiny_spec(
        dataset="csv",
        train_csv=str(tmp_path / "train.csv"),
        test_csv=str(tmp_path / "test.csv"),
        train_limit=12,
    )
    got_train, got_test = load_datasets(spec)
    assert len(got_train) == 12
    assert got_train.num_classes == 3 and got_test.num_classes == 3
    npt.assert_array_equal(got_train.features, train_ds.features[:12])


def test_load_datasets_feature_mismatch(tmp_path):
    rng = np.random.default_rng(0)
    save_csv(LabeledDataset(rng.normal(size=(8, 3)), [0, 1] * 4, 2), tmp_path / "train.csv")
    save_csv(LabeledDataset(rng.normal(size=(8, 4)), [0, 1] * 4, 2), tmp_path / "test.csv")
    spec = _tiny_spec(dataset="csv", train_csv=str(tmp_path / "train.csv"), test_csv=str(tmp_path / "test.csv"))
    with pytest.raises(DataFormatError, match="features"):
        load_datasets(spec)


# ----------------------------------------------------------------- run_cell


def test_run_cell_matches_manual_pipeline():
    train_ds, test_ds = _blobs()
    rows = run_cell(train_ds, test_ds, FR, 0.4, 2, 7, (4,), 10, 3, 0.1)
    # corruption seed is derived from (repetition seed, eta position)
    noise = NoiseSpec(0.4, derive_seed(7, 2), train_ds.num_classes)
    noisy = train_ds.with_labels(corrupt_labels(train_ds.labels, noise))
    cfg = MlpConfig((2, 4, 2), FR, 0.1, 10, 3, seed=7)
    records = train(init_model(cfg), noisy, test_ds, cfg)
    assert [row["run_id"] for row in rows] == ["fr-eta0.4-seed7"] * 3
    assert [(r["epoch"], r["train_loss"], r["train_acc"], r["test_acc"]) for r in rows] == [
        (r.epoch, r.train_loss, r.train_acc, r.test_acc) for r in records
    ]


def test_run_cell_divergence_is_captured(tmp_path):
    a = 1e200
    feats = np.array([[a, 0.0], [a, 0.0], [0.0, a], [0.0, a]])
    ds = LabeledDataset(feats, np.array([0, 1, 0, 1]), 2)
    assert run_cell(ds, ds, CE, 0.0, 0, 2, (), 4, 3, 1e120) == [{
        "run_id": "ce-eta0-seed2", "loss": "ce", "q": None, "eta": 0.0, "seed": 2,
        "epoch": 1, "train_loss": None, "train_acc": None, "test_acc": None,
    }]


# ---------------------------------------------------------------- run_sweep


def test_run_sweep_order_and_determinism():
    train_ds, test_ds = _blobs()
    spec = _tiny_spec()
    messages = []
    runs = run_sweep(train_ds, test_ds, spec, progress=messages.append)
    assert len(runs) == 2 * 2 * 2
    # eta is the outer loop, then loss, then seed
    assert [(run[0]["loss"], run[0]["eta"], run[0]["seed"]) for run in runs] == [
        ("ce", 0.0, 0), ("ce", 0.0, 1), ("fr", 0.0, 0), ("fr", 0.0, 1),
        ("ce", 0.4, 0), ("ce", 0.4, 1), ("fr", 0.4, 0), ("fr", 0.4, 1),
    ]
    assert all(run[0]["run_id"] == run[-1]["run_id"] for run in runs)
    assert [[row["epoch"] for row in run] for run in runs] == [[1, 2, 3]] * 8
    assert len(messages) == 8 and all(line.endswith(" lr=0.1") for line in messages)
    assert run_sweep(train_ds, test_ds, spec) == runs


def test_run_sweep_missing_lr_entry_fails_before_training(tmp_path):
    # the table covers eta 0.0 only, so the last eta has no rate
    rows = [
        {"loss": kind, "q": None, "eta": 0.0, "lr": 0.1, "final_test_acc": 0.9, "selected": 1}
        for kind in ("ce", "fr")
    ]
    path = tmp_path / "lr.csv"
    write_lr_table_csv(path, rows)
    train_ds, test_ds = _blobs()
    messages = []
    with pytest.raises(ValueError, match="no learning rate for loss=ce eta=0.4"):
        run_sweep(train_ds, test_ds, _tiny_spec(lr=None, lr_file=str(path)), progress=messages.append)
    assert messages == []


def test_run_sweep_out_of_range_eta_fails_before_training():
    # with K = 2 every eta must lie below 1/2: the 0.95 cells cannot run
    train_ds, test_ds = _blobs()
    messages = []
    with pytest.raises(ValueError, match="eta must lie in"):
        run_sweep(train_ds, test_ds, _tiny_spec(etas=(0.0, 0.95)), progress=messages.append)
    assert messages == []


@pytest.mark.parametrize("search", [False, True])
def test_feature_mismatch_fails_before_training(search):
    train_ds, test_ds = _blobs()
    wider = LabeledDataset(np.hstack([test_ds.features, test_ds.features]), test_ds.labels, 2)
    messages = []
    with pytest.raises(ValueError, match="train and test feature dimensions differ"):
        if search:
            grid_search_lr(train_ds, wider, _tiny_spec(lr_grid=(0.1,)), progress=messages.append)
        else:
            run_sweep(train_ds, wider, _tiny_spec(), progress=messages.append)
    assert messages == []


def test_group_sizes_fit_the_parameter_budget():
    assert _group_sizes(40, (100, 80, 40, 20, 10)) == [20, 20]  # at most 21 of this net per group
    assert _group_sizes(24, (100, 80, 40, 20, 10)) == [12, 12]
    assert _group_sizes(4, (784, 300, 100, 10)) == [1, 1, 1, 1]  # over budget alone: one per group
    assert _group_sizes(5, (2, 4, 2)) == [5]


def test_run_sweep_results_do_not_depend_on_grouping(monkeypatch):
    train_ds, test_ds = _blobs()
    spec = _tiny_spec(losses=(CE, FR, MAE), seeds=(0, 1, 2))
    grouped = run_sweep(train_ds, test_ds, spec)
    monkeypatch.setattr(experiment, "GROUP_PARAM_BYTES", 1)  # one cell per group
    assert run_sweep(train_ds, test_ds, spec) == grouped


def test_lockstep_groups_train_one_loss_with_results_in_cell_order(monkeypatch):
    # the benchmark's sweep_b20 shape: 4 losses x 2 etas, 3 grid rates then 5 seeds, a 100-80-40-20-10 net
    groups = []
    plan_groups = experiment._plan_groups

    def recording_plan_groups(configs):
        planned = plan_groups(configs)
        groups.extend([configs[pos].loss for pos in positions] for positions in planned)
        return planned

    monkeypatch.setattr(experiment, "_plan_groups", recording_plan_groups)
    losses = tuple(map(LossSpec.parse, ("mse", "ce", "fr", "hellinger")))
    spec = _tiny_spec(losses=losses, etas=(0.0, 0.5), seeds=(1, 2, 3, 4, 5), hidden=(80, 40, 20), batch_size=20,
                      epochs=1, lr_grid=(0.03, 0.1, 0.3), features=100, classes=10, class_sep=0.35)
    train_ds, test_ds = load_datasets(spec)
    rows = grid_search_lr(train_ds, test_ds, spec)
    assert groups == [[loss] * 6 for loss in losses]
    assert [(r["loss"], r["eta"], r["lr"]) for r in rows] == [
        (loss.kind, eta, lr) for eta in spec.etas for loss in losses for lr in spec.lr_grid]
    groups.clear()
    runs = run_sweep(train_ds, test_ds, spec)
    assert groups == [[loss] * 10 for loss in losses]
    assert [run[0]["run_id"] for run in runs] == [
        run_id(loss, eta, seed) for eta in spec.etas for loss in losses for seed in spec.seeds]


def test_run_sweep_reports_divergence_after_its_group():
    a = 1e200
    ds = LabeledDataset(np.array([[a, 0.0], [a, 0.0], [0.0, a], [0.0, a]]), np.array([0, 1, 0, 1]), 2)
    spec = _tiny_spec(losses=(CE,), etas=(0.0,), seeds=(2, 3), hidden=(), batch_size=4, lr=1e120)
    messages = []
    runs = run_sweep(ds, ds, spec, progress=messages.append)
    assert [[(row["epoch"], row["train_loss"]) for row in run] for run in runs] == [[(1, None)]] * 2
    assert messages == [
        "train loss=ce eta=0 seed=2 lr=1e+120",
        "train loss=ce eta=0 seed=3 lr=1e+120",
        "  diverged at epoch 1: train loss=ce eta=0 seed=2 lr=1e+120",
        "  diverged at epoch 1: train loss=ce eta=0 seed=3 lr=1e+120",
    ]


# ------------------------------------------------------------ process pool


@pytest.fixture
def pools(monkeypatch):
    """Two usable CPUs; the worker counts of the process pools built.  Skipped where sweeps cannot pool."""
    if experiment._openblas_threads() is None or "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("without numpy's OpenBLAS thread setter or fork, sweeps train in-process")
    built = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording(workers, **kwargs):
        built.append(workers)
        return real(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    return built


def test_pooled_sweep_writes_the_bytes_of_one_worker(tmp_path, pools, monkeypatch):
    spec = _tiny_spec(losses=(CE, FR, MAE), seeds=(0, 1, 2))  # three groups
    run_experiment(spec, out_dir=tmp_path / "pool")
    assert pools == [2]
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
    run_experiment(spec, out_dir=tmp_path / "alone")
    assert pools == [2]
    for name in ("runs.csv", "summary.csv"):
        assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_no_worker_outlives_a_pooled_sweep(pools):
    train_ds, test_ds = _blobs()
    spec = _tiny_spec(losses=(CE, FR, MAE))  # three groups of four cells
    run_sweep(train_ds, test_ds, spec)
    assert pools == [2] and multiprocessing.active_children() == []
    lines = []

    def progress(line):
        lines.append(line)
        if len(lines) == 6:  # in the second group, after the first one's outcomes came back
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_sweep(train_ds, test_ds, spec, progress=progress)
    assert pools == [2, 2] and multiprocessing.active_children() == []


@pytest.mark.skipif(not sys.platform.startswith("linux") or shutil.which("pgrep") is None,
                    reason="workers die with their parent through Linux's prctl; pgrep lists them")
def test_workers_die_with_a_killed_sweep(tmp_path):
    if experiment._openblas_threads() is None or experiment._usable_cpus() < 2:
        pytest.skip("without numpy's OpenBLAS thread setter or a second CPU, the sweep trains in-process")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("dataset = synthetic\nlosses = ce,fr\netas = 0.0\nseeds = 0,1\nhidden = 80,40,20\n"
                   f"batch_size = 20\nepochs = 200\nlr = 0.1\nn_train = 2000\nn_test = 500\nout_dir = {tmp_path}\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(experiment.__file__)))
    sweep = subprocess.Popen([sys.executable, "-m", "fisherrao.cli", "train", "--config", str(cfg)], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    workers = []
    try:
        sweep.stderr.readline()  # the first progress line comes after the pool has forked its workers
        workers = subprocess.run(["pgrep", "-P", str(sweep.pid)], capture_output=True, text=True).stdout.split()
        sweep.kill()
        sweep.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(workers) == 2 and not any(_running(pid) for pid in workers)
    finally:
        sweep.kill()
        sweep.stderr.close()
        for pid in filter(_running, workers):
            os.kill(int(pid), signal.SIGKILL)


def _running(pid: str) -> bool:
    """Whether the process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_pooled_workers_compute_on_one_blas_thread(pools, monkeypatch):
    # the workers inherit the sweep's pin through fork; none of them sets the count itself
    get_threads, set_threads = experiment._openblas_threads()

    def pinned(*args):
        if get_threads() != 1:
            raise RuntimeError(f"a group trains on {get_threads()} BLAS threads")
        return train_lockstep(*args)

    monkeypatch.setattr(experiment, "train_lockstep", pinned)
    train_ds, test_ds = _blobs()
    before = get_threads()
    set_threads(2)
    try:
        runs = run_sweep(train_ds, test_ds, _tiny_spec(losses=(CE, FR, MAE)))
        assert get_threads() == 2
    finally:
        set_threads(before)
    assert pools == [2] and len(runs) == 12


def test_a_config_over_the_small_product_builds_no_pool(pools):
    train_ds, test_ds = _blobs()
    layers = (2, 13108, 2)  # batch 10 x 2 x 13108 > 2**18
    assert not experiment._is_small(MlpConfig(layers, CE, 0.1, 10, 1, 0))
    assert experiment._is_small(MlpConfig((2, 13107, 2), CE, 0.1, 10, 1, 0))  # 262140
    assert experiment._is_small(MlpConfig((100, 80, 40, 20, 10), CE, 0.1, 20, 1, 0))  # sweep_b20: 160000
    assert not experiment._is_small(MlpConfig((784, 300, 100, 10), CE, 0.1, 64, 1, 0))  # wide_b64
    runs = run_sweep(train_ds, test_ds, _tiny_spec(hidden=layers[1:2], epochs=1))
    assert pools == [] and len(runs) == 8


def test_a_diverging_group_returns_its_training_diverged_across_the_pool(pools, monkeypatch):
    a = 1e200
    ds = LabeledDataset(np.array([[a, 0.0], [a, 0.0], [0.0, a], [0.0, a]]), np.array([0, 1, 0, 1]), 2)
    spec = _tiny_spec(losses=(CE, FR), etas=(0.0,), seeds=(2, 3), hidden=(), batch_size=4, lr=1e120)
    pooled, alone = [], []
    runs = run_sweep(ds, ds, spec, progress=pooled.append)
    assert pools == [2]
    assert [run[-1]["train_loss"] for run in runs] == [None] * 4
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
    assert run_sweep(ds, ds, spec, progress=alone.append) == runs
    assert pooled == alone
    assert pooled[2:4] == [
        "  diverged at epoch 1: train loss=ce eta=0 seed=2 lr=1e+120",
        "  diverged at epoch 1: train loss=ce eta=0 seed=3 lr=1e+120",
    ]


def test_an_in_process_sweep_trains_small_configs_on_one_blas_thread(monkeypatch):
    if experiment._openblas_threads() is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
    get_threads, set_threads = experiment._openblas_threads()
    seen = []

    def recording(*args):
        seen.append(get_threads())
        return train_lockstep(*args)

    monkeypatch.setattr(experiment, "train_lockstep", recording)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
    train_ds, test_ds = _blobs()
    before = get_threads()
    set_threads(2)
    try:
        run_sweep(train_ds, test_ds, _tiny_spec())  # small: pinned, then restored
        run_sweep(train_ds, test_ds, _tiny_spec(hidden=(13108,), epochs=1))  # over 2**18: left as it is
        assert get_threads() == 2
    finally:
        set_threads(before)
    assert seen[:2] == [1, 1] and seen[2:] == [2] * (len(seen) - 2)


# -------------------------------------------------------------------- CSVs


def test_per_epoch_csv_round_trip_and_bit_identical(tmp_path):
    train_ds, test_ds = _blobs()
    spec = _tiny_spec(losses=(CE,), etas=(0.2,), seeds=(0,))
    runs = run_sweep(train_ds, test_ds, spec)
    path = tmp_path / "runs.csv"
    write_per_epoch_csv(path, runs)
    text = path.read_text()
    assert text.splitlines()[0] == PER_EPOCH_COLUMNS
    rows = read_per_epoch_csv(path)
    assert rows == runs[0]  # repr round-trips exactly
    got = rows[1]
    assert got["run_id"] == run_id(CE, 0.2, 0) == "ce-eta0.2-seed0"
    assert got["loss"] == "ce" and got["q"] is None
    assert got["eta"] == 0.2 and got["seed"] == 0 and got["epoch"] == 2
    # a fresh sweep writes the same bytes
    again = run_sweep(train_ds, test_ds, spec)
    path2 = tmp_path / "runs2.csv"
    write_per_epoch_csv(path2, again)
    assert path2.read_bytes() == path.read_bytes()


def test_per_epoch_csv_skipped_test_acc_is_empty(tmp_path):
    train_ds, test_ds = _blobs()
    spec = _tiny_spec(losses=(CE,), etas=(0.0,), seeds=(0,), eval_every_epoch=False)
    runs = run_sweep(train_ds, test_ds, spec)
    path = tmp_path / "runs.csv"
    write_per_epoch_csv(path, runs)
    rows = read_per_epoch_csv(path)
    assert rows[0]["test_acc"] is None and rows[1]["test_acc"] is None
    assert rows[2]["test_acc"] is not None


def test_read_per_epoch_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("nope,nope\n")
    with pytest.raises(DataFormatError, match="header"):
        read_per_epoch_csv(bad_header)
    short_row = tmp_path / "b.csv"
    short_row.write_text(PER_EPOCH_COLUMNS + "\nce,ce,,0.0\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_per_epoch_csv(short_row)
    bad_value = tmp_path / "c.csv"
    bad_value.write_text(PER_EPOCH_COLUMNS + "\nrid,ce,,0.0,0,one,0.5,0.5,0.5\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_per_epoch_csv(bad_value)


def test_summarize_from_csv_header_only(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(PER_EPOCH_COLUMNS + "\n")
    with pytest.raises(DataFormatError, match="no data rows") as exc:
        summarize_from_csv(path)
    assert exc.value.line == 1


# ------------------------------------------------------------------ summary


def _fake_run(loss, eta, seed, finals, diverged=False):
    records = [TrainRecord(i + 1, 1.0 / (i + 1), 0.5, acc) for i, acc in enumerate(finals)]
    if diverged:
        return experiment._run_rows(loss, eta, seed, TrainingDiverged("boom", len(records) + 1, records))
    return experiment._run_rows(loss, eta, seed, records)


def test_summarize_statistics_by_hand():
    runs = [
        _fake_run(CE, 0.2, 0, [0.50, 0.80]),
        _fake_run(CE, 0.2, 1, [0.90, 0.60]),  # best 0.9 != final 0.6
        _fake_run(CE, 0.2, 2, [0.10], diverged=True),
        _fake_run(MAE, 0.2, 0, [0.70, 0.70]),
    ]
    rows = summarize(runs)
    assert [r["loss"] for r in rows] == ["ce", "mae"]
    ce = rows[0]
    npt.assert_allclose(ce["mean_test_acc"], (0.8 + 0.6) / 2, rtol=0, atol=1e-15)
    npt.assert_allclose(ce["std_test_acc"], np.std([0.8, 0.6]), rtol=0, atol=1e-15)
    npt.assert_allclose(ce["mean_best_test_acc"], (0.8 + 0.9) / 2, rtol=0, atol=1e-15)
    assert ce["n_seeds"] == 2 and ce["n_diverged"] == 1
    assert ce["acc_metric"] == "final"
    assert rows[1]["n_seeds"] == 1 and rows[1]["n_diverged"] == 0


def test_summary_csv_and_recompute_from_per_epoch(tmp_path):
    train_ds, test_ds = _blobs()
    spec = _tiny_spec()
    runs = run_sweep(train_ds, test_ds, spec)
    summary = summarize(runs)
    runs_path = tmp_path / "runs.csv"
    summary_path = tmp_path / "summary.csv"
    write_per_epoch_csv(runs_path, runs)
    write_summary_csv(summary_path, summary)
    assert summary_path.read_text().splitlines()[0] == SUMMARY_COLUMNS
    recomputed = summarize_from_csv(runs_path)
    assert len(recomputed) == len(summary) == 4
    for a, b in zip(summary, recomputed):
        assert a["loss"] == b["loss"] and a["q"] == b["q"] and a["eta"] == b["eta"]
        assert a["mean_test_acc"] == b["mean_test_acc"]  # exact via repr round trip
        assert a["std_test_acc"] == b["std_test_acc"]
        assert a["n_seeds"] == b["n_seeds"] and a["n_diverged"] == b["n_diverged"]
        assert a["mean_best_test_acc"] == b["mean_best_test_acc"]


def test_summarize_from_csv_reads_the_failed_epoch_row(tmp_path):
    runs = [
        _fake_run(CE, 0.0, 0, [0.5, 0.6, 0.7]),
        _fake_run(CE, 0.0, 1, [0.5], diverged=True),  # stopped after epoch 1
    ]
    path = tmp_path / "runs.csv"
    write_per_epoch_csv(path, runs)
    rows = summarize_from_csv(path)
    assert len(rows) == 1
    assert rows[0]["n_seeds"] == 1 and rows[0]["n_diverged"] == 1
    assert rows[0]["mean_test_acc"] == 0.7


def test_runs_that_all_diverge_after_epoch_one_are_counted_from_the_file(tmp_path):
    runs = [_fake_run(CE, 0.0, seed, [0.5], diverged=True) for seed in (0, 1)]
    path = tmp_path / "runs.csv"
    write_per_epoch_csv(path, runs)
    assert [(row["epoch"], row["train_loss"]) for row in read_per_epoch_csv(path)] == [
        (1, 1.0), (2, None), (1, 1.0), (2, None)
    ]
    (row,) = summarize_from_csv(path)
    assert row["n_seeds"] == 0 and row["n_diverged"] == 2


# -------------------------------------------------------------- grid search


def test_grid_search_selects_best_and_breaks_ties_low(tmp_path):
    # wide blobs: every sane lr lands at 100% test accuracy, so the
    # tie-break toward the smaller lr decides
    train_ds, test_ds = _blobs(80, 40, sep=4.0)
    spec = _tiny_spec(
        losses=(CE,), etas=(0.0,), seeds=(3,), class_sep=4.0,
        lr=None, lr_grid=(0.05, 0.2), grid_epochs=5, epochs=5,
    )
    rows = grid_search_lr(train_ds, test_ds, spec)
    assert len(rows) == 2
    accs = [r["final_test_acc"] for r in rows]
    assert accs[0] == accs[1] == 1.0, accs
    assert rows[0]["selected"] == 1 and rows[0]["lr"] == 0.05
    assert rows[1]["selected"] == 0
    table_path = tmp_path / "lr.csv"
    write_lr_table_csv(table_path, rows)
    table = read_lr_table(table_path)
    assert table == {("ce", 0.0): 0.05}


def test_grid_search_rows_match_per_cell_runs_without_train_accuracy(tmp_path, monkeypatch):
    # grid runs skip the train-accuracy pass; the selection, which reads
    # only the final test accuracy, is that of fully evaluated runs
    train_ds, test_ds = _blobs(60, 30, sep=1.0)
    spec = _tiny_spec(losses=(CE, qce(0.5), FR), lr=None, lr_grid=(0.03, 0.3), grid_epochs=2)
    outcomes = []

    def recording(*args):
        outcomes.extend(train_lockstep(*args))
        return outcomes[-len(args[0]):]

    monkeypatch.setattr(experiment, "train_lockstep", recording)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)  # the recording runs where the groups train
    rows = grid_search_lr(train_ds, test_ds, spec)
    assert [r.train_acc for out in outcomes for r in out] == [None, None] * len(rows)
    assert [r.test_acc is None for out in outcomes for r in out] == [True, False] * len(rows)
    expected = []
    for eta_index, eta in enumerate(spec.etas):
        for loss in spec.losses:
            runs = [run_cell(train_ds, test_ds, loss, eta, eta_index, spec.seeds[0], spec.hidden,
                             spec.batch_size, 2, lr, eval_every_epoch=False) for lr in spec.lr_grid]
            accs = [run[-1]["test_acc"] for run in runs]
            assert all(isinstance(row["train_acc"], float) for run in runs for row in run)
            expected += [{"loss": loss.kind, "q": loss.q, "eta": eta, "lr": lr, "final_test_acc": acc,
                          "selected": int(i == int(np.argmax(accs)))}
                         for i, (lr, acc) in enumerate(zip(spec.lr_grid, accs))]
    assert rows == expected
    write_lr_table_csv(tmp_path / "grid.csv", rows)
    write_lr_table_csv(tmp_path / "cells.csv", expected)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


@pytest.mark.parametrize("eval_every_epoch", [True, False])
def test_run_sweep_records_train_accuracy_every_epoch(eval_every_epoch):
    train_ds, test_ds = _blobs()
    for run in run_sweep(train_ds, test_ds, _tiny_spec(eval_every_epoch=eval_every_epoch)):
        assert [type(row["train_acc"]) for row in run] == [float] * 3


def test_grid_search_scores_divergence_minus_one():
    # one step per epoch: at lr 1e120 the first update overflows; at 1e100 the
    # weights stay finite, and the second epoch's scores overflow
    a = 1e200
    feats = np.array([[a, 0.0], [a, 0.0], [0.0, a], [0.0, a]])
    ds = LabeledDataset(feats, np.array([0, 1, 0, 1]), 2)
    for lr, failed_epoch in ((1e120, 1), (1e100, 2)):
        spec = _tiny_spec(losses=(CE,), etas=(0.0,), seeds=(2,), hidden=(),
                          batch_size=4, epochs=2, lr=None, lr_grid=(lr, 1e-300))
        messages = []
        rows = grid_search_lr(ds, ds, spec, progress=messages.append)
        assert messages[2] == f"  diverged at epoch {failed_epoch}: grid loss=ce eta=0 seed=2 lr={lr:g}"
        assert rows[0]["final_test_acc"] == -1.0 and rows[0]["selected"] == 0
        assert rows[1]["final_test_acc"] >= 0.0 and rows[1]["selected"] == 1


def test_make_lr_lookup_paths(tmp_path):
    fixed = make_lr_lookup(_tiny_spec(lr=0.3))
    assert fixed(CE, 0.0) == 0.3
    rows = [
        {"loss": "fr", "q": None, "eta": 0.0, "lr": 0.05, "final_test_acc": 0.9, "selected": 1},
        {"loss": "fr", "q": None, "eta": 0.0, "lr": 0.5, "final_test_acc": 0.8, "selected": 0},
        {"loss": "qce", "q": 0.7, "eta": 0.4, "lr": 0.1, "final_test_acc": 0.7, "selected": 1},
    ]
    path = tmp_path / "lr.csv"
    write_lr_table_csv(path, rows)
    lookup = make_lr_lookup(_tiny_spec(lr=None, lr_file=str(path)))
    assert lookup(FR, 0.0) == 0.05
    assert lookup(qce(0.7), 0.4) == 0.1
    with pytest.raises(ValueError, match="no learning rate"):
        lookup(CE, 0.0)
    with pytest.raises(ValueError, match="lr or lr_file"):
        make_lr_lookup(_tiny_spec(lr=None))


def test_read_lr_table_rejects_bad_header(tmp_path):
    path = tmp_path / "lr.csv"
    path.write_text("loss,eta,lr\n")
    with pytest.raises(DataFormatError, match="header"):
        read_lr_table(path)


# ------------------------------------------------------------ end to end


def test_run_experiment_writes_files_and_reruns_identically(tmp_path):
    spec = _tiny_spec(losses=(CE, qce(0.7)), etas=(0.3,), seeds=(0, 1))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    runs, summary = run_experiment(spec, out_dir=str(out1))
    assert len(runs) == 4 and len(summary) == 2
    run_experiment(spec, out_dir=str(out2))
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    header = (out1 / "summary.csv").read_text().splitlines()[0]
    assert header.split(",")[:6] == ["loss", "q", "eta", "mean_test_acc", "std_test_acc", "n_seeds"]
