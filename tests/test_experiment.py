import re

import numpy as np
import numpy.testing as npt
import pytest

from fisherrao import experiment
from fisherrao.data import DataFormatError, LabeledDataset, SyntheticSpec, generate_synthetic, save_csv
from fisherrao.experiment import (
    PER_EPOCH_COLUMNS,
    SUMMARY_COLUMNS,
    ExperimentSpec,
    RunResult,
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
from fisherrao.mlp import MlpConfig, TrainRecord, init_model, train, train_lockstep
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
        ({"etas": (0.1, 0.1000001)}, "run_id 'ce-eta0.1-seed0'"),  # equal under :g
        ({"lr_grid": (0.1, 0.3, 0.1)}, "lr_grid entry 0.1"),
    ]:
        with pytest.raises(ValueError, match=f"duplicate {re.escape(named)}"):
            _tiny_spec(**over)
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
    result = run_cell(train_ds, test_ds, FR, 0.4, 2, 7, (4,), 10, 3, 0.1)
    # corruption seed is derived from (repetition seed, eta position)
    noise = NoiseSpec(0.4, derive_seed(7, 2), train_ds.num_classes)
    noisy = train_ds.with_labels(corrupt_labels(train_ds.labels, noise))
    cfg = MlpConfig((2, 4, 2), FR, 0.1, 10, 3, seed=7)
    records = train(init_model(cfg), noisy, test_ds, cfg)
    assert not result.diverged
    assert [(r.epoch, r.train_loss, r.train_acc, r.test_acc) for r in result.records] == [
        (r.epoch, r.train_loss, r.train_acc, r.test_acc) for r in records
    ]
    assert result.final_test_acc == records[-1].test_acc
    assert result.best_test_acc == max(r.test_acc for r in records)


def test_run_cell_divergence_is_captured(tmp_path):
    a = 1e200
    feats = np.array([[a, 0.0], [a, 0.0], [0.0, a], [0.0, a]])
    ds = LabeledDataset(feats, np.array([0, 1, 0, 1]), 2)
    result = run_cell(ds, ds, CE, 0.0, 0, 2, (), 4, 3, 1e120)
    assert result.diverged
    assert result.records == []
    assert result.final_test_acc is None and result.best_test_acc is None


# ---------------------------------------------------------------- run_sweep


def test_run_sweep_order_and_determinism():
    train_ds, test_ds = _blobs()
    spec = _tiny_spec()
    messages = []
    results = run_sweep(train_ds, test_ds, spec, progress=messages.append)
    assert len(results) == 2 * 2 * 2
    # eta is the outer loop, then loss, then seed
    assert [(str(r.loss), r.eta, r.seed) for r in results] == [
        ("ce", 0.0, 0), ("ce", 0.0, 1), ("fr", 0.0, 0), ("fr", 0.0, 1),
        ("ce", 0.4, 0), ("ce", 0.4, 1), ("fr", 0.4, 0), ("fr", 0.4, 1),
    ]
    assert all(r.lr == 0.1 for r in results)
    assert len(messages) == 8
    again = run_sweep(train_ds, test_ds, spec)
    for r1, r2 in zip(results, again):
        assert [(a.epoch, a.train_loss) for a in r1.records] == [
            (a.epoch, a.train_loss) for a in r2.records
        ]


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


def test_run_sweep_reports_divergence_after_its_group():
    a = 1e200
    ds = LabeledDataset(np.array([[a, 0.0], [a, 0.0], [0.0, a], [0.0, a]]), np.array([0, 1, 0, 1]), 2)
    spec = _tiny_spec(losses=(CE,), etas=(0.0,), seeds=(2, 3), hidden=(), batch_size=4, lr=1e120)
    messages = []
    results = run_sweep(ds, ds, spec, progress=messages.append)
    assert [r.diverged for r in results] == [True, True]
    assert messages == [
        "train loss=ce eta=0 seed=2 lr=1e+120",
        "train loss=ce eta=0 seed=3 lr=1e+120",
        "  diverged at epoch 1: train loss=ce eta=0 seed=2 lr=1e+120",
        "  diverged at epoch 1: train loss=ce eta=0 seed=3 lr=1e+120",
    ]


# -------------------------------------------------------------------- CSVs


def test_per_epoch_csv_round_trip_and_bit_identical(tmp_path):
    train_ds, test_ds = _blobs()
    spec = _tiny_spec(losses=(CE,), etas=(0.2,), seeds=(0,))
    results = run_sweep(train_ds, test_ds, spec)
    path = tmp_path / "runs.csv"
    write_per_epoch_csv(path, results)
    text = path.read_text()
    assert text.splitlines()[0] == PER_EPOCH_COLUMNS
    rows = read_per_epoch_csv(path)
    assert len(rows) == 3
    rec = results[0].records[1]
    got = rows[1]
    assert got["run_id"] == run_id(CE, 0.2, 0) == "ce-eta0.2-seed0"
    assert got["loss"] == "ce" and got["q"] is None
    assert got["eta"] == 0.2 and got["seed"] == 0 and got["epoch"] == 2
    assert got["train_loss"] == rec.train_loss  # repr round-trips exactly
    assert got["train_acc"] == rec.train_acc
    assert got["test_acc"] == rec.test_acc
    # a fresh sweep writes the same bytes
    again = run_sweep(train_ds, test_ds, spec)
    path2 = tmp_path / "runs2.csv"
    write_per_epoch_csv(path2, again)
    assert path2.read_bytes() == path.read_bytes()


def test_per_epoch_csv_skipped_test_acc_is_empty(tmp_path):
    train_ds, test_ds = _blobs()
    spec = _tiny_spec(losses=(CE,), etas=(0.0,), seeds=(0,), eval_every_epoch=False)
    results = run_sweep(train_ds, test_ds, spec)
    path = tmp_path / "runs.csv"
    write_per_epoch_csv(path, results)
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


def _fake_result(loss, eta, seed, finals, diverged=False):
    records = [TrainRecord(i + 1, 1.0 / (i + 1), 0.5, acc) for i, acc in enumerate(finals)]
    return RunResult(loss, eta, seed, 0.1, records=records, diverged=diverged)


def test_summarize_statistics_by_hand():
    results = [
        _fake_result(CE, 0.2, 0, [0.50, 0.80]),
        _fake_result(CE, 0.2, 1, [0.90, 0.60]),  # best 0.9 != final 0.6
        _fake_result(CE, 0.2, 2, [0.10], diverged=True),
        _fake_result(MAE, 0.2, 0, [0.70, 0.70]),
    ]
    rows = summarize(results)
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
    results = run_sweep(train_ds, test_ds, spec)
    summary = summarize(results)
    runs_path = tmp_path / "runs.csv"
    summary_path = tmp_path / "summary.csv"
    write_per_epoch_csv(runs_path, results)
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


def test_summarize_from_csv_infers_divergence(tmp_path):
    results = [
        _fake_result(CE, 0.0, 0, [0.5, 0.6, 0.7]),
        _fake_result(CE, 0.0, 1, [0.5], diverged=True),  # stopped after epoch 1
    ]
    path = tmp_path / "runs.csv"
    write_per_epoch_csv(path, results)
    rows = summarize_from_csv(path)
    assert len(rows) == 1
    assert rows[0]["n_seeds"] == 1 and rows[0]["n_diverged"] == 1
    assert rows[0]["mean_test_acc"] == 0.7


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
    rows = grid_search_lr(train_ds, test_ds, spec)
    assert [r.train_acc for out in outcomes for r in out] == [None, None] * len(rows)
    assert [r.test_acc is None for out in outcomes for r in out] == [True, False] * len(rows)
    expected = []
    for eta_index, eta in enumerate(spec.etas):
        for loss in spec.losses:
            runs = [run_cell(train_ds, test_ds, loss, eta, eta_index, spec.seeds[0], spec.hidden,
                             spec.batch_size, 2, lr, eval_every_epoch=False) for lr in spec.lr_grid]
            accs = [r.final_test_acc for r in runs]
            assert all(isinstance(r.train_acc, float) for run in runs for r in run.records)
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
    for r in run_sweep(train_ds, test_ds, _tiny_spec(eval_every_epoch=eval_every_epoch)):
        assert [type(rec.train_acc) for rec in r.records] == [float] * 3


def test_grid_search_scores_divergence_minus_one():
    a = 1e200
    feats = np.array([[a, 0.0], [a, 0.0], [0.0, a], [0.0, a]])
    ds = LabeledDataset(feats, np.array([0, 1, 0, 1]), 2)
    spec = _tiny_spec(losses=(CE,), etas=(0.0,), seeds=(2,), hidden=(),
                      batch_size=4, epochs=2, lr=None, lr_grid=(1e120, 1e-300))
    rows = grid_search_lr(ds, ds, spec)
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
    results, summary = run_experiment(spec, out_dir=str(out1))
    assert len(results) == 4 and len(summary) == 2
    run_experiment(spec, out_dir=str(out2))
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    header = (out1 / "summary.csv").read_text().splitlines()[0]
    assert header.split(",")[:6] == ["loss", "q", "eta", "mean_test_acc", "std_test_acc", "n_seeds"]
