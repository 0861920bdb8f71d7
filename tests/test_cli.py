import ast
import math
import os
import pathlib
import subprocess
import sys
import types
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import fisherrao
from fisherrao import cli
from fisherrao.bounds import bounds as bound_pair
from fisherrao.data import LabeledDataset, load_csv, save_csv
from fisherrao.experiment import (load_datasets, parse_config, read_lr_table, read_per_epoch_csv, summarize_from_csv,
                                  write_summary_csv)
from fisherrao.losses import FR, KINDS
from fisherrao.simplex import fisher_rao_distance, hellinger_distance
from test_data import _idx_header, _write_idx_images, _write_idx_labels


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ------------------------------------------------------------------- bounds


def test_bounds_alpha_sweep_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.run([
        "bounds", "--sweep", "alpha", "--losses", "mse,mae,ce",
        "--K", "10", "--points", "2", "--alpha-max", "0.9",
    ])
    assert code == 0
    rows = _read_rows(tmp_path / "bounds_alpha.csv")
    assert len(rows) == 6  # 2 alphas x 3 losses
    mse_hi = next(r for r in rows if r["loss"] == "mse" and float(r["alpha"]) == 0.9)
    assert float(mse_hi["eta"]) == 0.9 * (1 - 1 / 10)
    assert float(mse_hi["A"]) == float(mse_hi["eta"])  # A_mse is exactly eta
    mae = next(r for r in rows if r["loss"] == "mae" and float(r["alpha"]) == 0.9)
    assert float(mae["A"]) == 0.0 and float(mae["B"]) == 0.0
    ce = next(r for r in rows if r["loss"] == "ce" and float(r["alpha"]) == 0.9)
    assert math.isinf(float(ce["A"])) and math.isinf(float(ce["B"]))


def test_bounds_k_sweep_with_svg(tmp_path):
    out = tmp_path / "k.csv"
    code = cli.run([
        "bounds", "--sweep", "K", "--losses", "fr,hellinger", "--alpha", "0.8",
        "--K-grid", "2,10,100", "--out", str(out), "--svg",
    ])
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 6
    fr_k10 = next(r for r in rows if r["loss"] == "fr" and r["K"] == "10")
    want = bound_pair(FR, 10, 0.8 * 0.9)
    assert float(fr_k10["A"]) == want.A and float(fr_k10["B"]) == want.B
    for suffix in ("_A.svg", "_B.svg"):
        svg = tmp_path / f"k{suffix}"
        assert svg.exists()
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        assert len(svg.read_bytes()) > 500


def test_bounds_rejects_alpha_one(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["bounds", "--sweep", "K", "--alpha", "1.0"]) == 2


@pytest.mark.parametrize("args", [
    ["--sweep", "alpha", "--K", "10", "--alpha-max", "0.9999999999999999", "--points", "2"],
    ["--sweep", "K", "--alpha", "0.9999999999999999", "--K-grid", "10"],
])
def test_bounds_at_regime_edge_reports_infinite_b(tmp_path, args):
    out = tmp_path / "edge.csv"
    assert cli.run(["bounds", *args, "--out", str(out)]) == 0  # eta = 0.8999999999999999, K - 1 - eta K == 0
    rows = _read_rows(out)
    assert float(rows[-1]["eta"]) == 0.8999999999999999
    assert float(next(r for r in reversed(rows) if r["loss"] == "fr")["B"]) == -math.inf
    assert float(next(r for r in reversed(rows) if r["loss"] == "mae")["B"]) == 0.0


def test_bounds_alpha_near_one_stays_below_the_limit(tmp_path):
    # at K = 3, 0.9999999999999999 * (1 - 1/3) rounds to 2/3 itself
    out = tmp_path / "edge.csv"
    assert cli.run(["bounds", "--sweep", "alpha", "--K", "3", "--alpha-max", "0.9999999999999999",
                    "--points", "2", "--out", str(out)]) == 0
    assert float(_read_rows(out)[-1]["eta"]) == 0.6666666666666665


@pytest.mark.parametrize("command, module, name", [(["bounds", "--sweep", "alpha", "--out"], cli, "alpha_sweep"),
                                                   (["train", "--out-dir"], cli, "load_datasets"),
                                                   (["grid-lr", "--out"], cli, "load_datasets")])
def test_an_array_too_large_for_memory_is_data_error(tmp_path, capsys, monkeypatch, command, module, name):
    # numpy's message where memory runs out, as for a huge hidden width or --points; nothing large is allocated
    message = "Unable to allocate 74.5 GiB for an array with shape (100000000, 100) and data type float64"

    def allocate(*args):
        raise MemoryError(message)

    monkeypatch.setattr(module, name, allocate)
    config = [] if command[0] == "bounds" else ["--config", str(_write_config(tmp_path / "exp.cfg", lr_grid="0.1"))]
    assert cli.run([*command, str(tmp_path / "out"), *config]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bounds_unwritable_out_is_data_error(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.csv"
    for command in (["bounds", "--sweep", "alpha"], ["losses-table"]):
        assert cli.run([*command, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"  # not x.csv.tmp
        assert not out.parent.exists()


# ----------------------------------------------------------------- distance


def test_distance_output_matches_library(capsys):
    code = cli.run(["distance", "--p", "0.7,0.2,0.1", "--q", "0.1,0.2,0.7"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    got = {line.split("=")[0].strip(): float(line.split("=")[1]) for line in lines}
    p = np.array([0.7, 0.2, 0.1])
    q = np.array([0.1, 0.2, 0.7])
    # printed at 12 significant digits, so ~5e-12 absolute on values near pi/2
    assert abs(got["d_fr"] - fisher_rao_distance(p, q)) < 1e-11
    assert abs(got["d_h"] - hellinger_distance(p, q)) < 1e-11
    assert abs(got["4*asin(d_h/2)"] - got["d_fr"]) < 1e-9


def test_distance_rejects_bad_inputs(capsys):
    assert cli.run(["distance", "--p", "0.5,0.4", "--q", "0.5,0.5"]) == 2  # sums to 0.9
    assert cli.run(["distance", "--p", "0.5,0.5", "--q", "0.2,0.3,0.5"]) == 2  # length
    capsys.readouterr()
    assert cli.run(["distance", "--p", "", "--q", "0.5,0.5"]) == 2
    assert "--p must list at least one value" in capsys.readouterr().err


def test_distance_accepts_repeated_probabilities(capsys):
    assert cli.run(["distance", "--p", "0.25,0.25,0.5", "--q", "0.25,0.25,0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "d_fr          = 0"


# ----------------------------------------------------------------- gen-data


def test_gen_data_round_trips_through_load_csv(tmp_path):
    out = tmp_path / "data"
    code = cli.run([
        "gen-data", "--n-train", "30", "--n-test", "10", "--features", "4",
        "--classes", "3", "--seed", "5", "--out-dir", str(out),
    ])
    assert code == 0
    train_ds = load_csv(out / "train.csv")
    test_ds = load_csv(out / "test.csv")
    assert len(train_ds) == 30 and len(test_ds) == 10
    assert train_ds.num_features == 4
    assert set(np.unique(train_ds.labels)) <= {0, 1, 2}


# -------------------------------------------------------------- losses-table


def test_losses_table_values(tmp_path):
    out = tmp_path / "table.csv"
    code = cli.run(["losses-table", "--losses", "ce,fr", "--points", "4", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 8
    ce_at_1 = next(r for r in rows if r["loss"] == "ce" and float(r["p"]) == 1.0)
    assert float(ce_at_1["h"]) == 0.0 and float(ce_at_1["h_prime_abs"]) == 1.0
    fr_at_quarter = next(r for r in rows if r["loss"] == "fr" and float(r["p"]) == 0.25)
    assert abs(float(fr_at_quarter["h"]) - (math.pi / 3) ** 2) < 1e-12


def test_losses_table_rejects_mse(tmp_path):
    assert cli.run(["losses-table", "--losses", "mse", "--out", str(tmp_path / "t.csv")]) == 2


# -------------------------------------------------------------------- train


_SYNTHETIC_KEYS = ("n_train", "n_test", "features", "classes", "class_sep", "data_seed")


def _write_config(path, **over):
    """A small synthetic sweep's config with the given keys changed, and a key given as None left out; another
    dataset keeps only given synthetic keys."""
    base = {
        "dataset": "synthetic",
        "losses": "ce,fr",
        "etas": "0.0,0.4",
        "seeds": "0,1",
        "hidden": "4",
        "batch_size": "10",
        "epochs": "3",
        "lr": "0.1",
        "n_train": "40",
        "n_test": "20",
        "features": "2",
        "classes": "2",
        "class_sep": "2.5",
        "data_seed": "11",
    }
    base.update(over)
    if base["dataset"] != "synthetic":
        base = {k: v for k, v in base.items() if k not in _SYNTHETIC_KEYS or k in over}
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items() if v is not None))
    return path


def test_train_end_to_end_with_svg(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg")
    out = tmp_path / "runs"
    code = cli.run(["train", "--config", str(cfg), "--out-dir", str(out), "--svg"])
    assert code == 0
    rows = read_per_epoch_csv(out / "runs.csv")
    assert len(rows) == 2 * 2 * 2 * 3  # losses x etas x seeds x epochs
    summary = _read_rows(out / "summary.csv")
    assert len(summary) == 4
    assert all(s["acc_metric"] == "final" for s in summary)
    stdout = capsys.readouterr().out
    assert "mean_test_acc" in stdout
    for eta in ("0", "0.4"):
        svg = out / f"accuracy_eta{eta}.svg"
        assert svg.exists()
        ET.parse(svg)


def test_train_svg_of_one_epoch_draws_each_curve_as_one_point_at_the_left_edge(tmp_path):
    cfg = _write_config(tmp_path / "exp.cfg", epochs="1")
    out = tmp_path / "runs"
    assert cli.run(["train", "--config", str(cfg), "--out-dir", str(out), "--svg"]) == 0
    for eta in ("0", "0.4"):
        lines = ET.parse(out / f"accuracy_eta{eta}.svg").getroot().findall("{http://www.w3.org/2000/svg}polyline")
        assert len(lines) == 2  # ce and fr
        assert all(line.get("points").startswith("62.00,") and " " not in line.get("points") for line in lines)


def test_cells_that_run_id_tells_apart_print_apart(tmp_path, capsys):
    # 0.1000001 reads 0.1 under :g; every line and file name must tell the two etas apart as run_id does
    cfg = _write_config(tmp_path / "exp.cfg", losses="ce", etas="0.1,0.1000001", seeds="0", lr="0.1000001",
                        lr_grid="0.1000001")
    out = tmp_path / "runs"
    assert cli.run(["train", "--config", str(cfg), "--out-dir", str(out), "--svg"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "train loss=ce eta=0.1 seed=0 lr=0.1000001", "train loss=ce eta=0.1000001 seed=0 lr=0.1000001"]
    assert [line.split()[:2] for line in captured.out.splitlines()[3:5]] == [["ce", "0.1"], ["ce", "0.1000001"]]
    assert sorted(path.name for path in out.glob("*.svg")) == ["accuracy_eta0.1.svg", "accuracy_eta0.1000001.svg"]
    assert "eta = 0.1000001 (seed 0)" in (out / "accuracy_eta0.1000001.svg").read_text()
    assert cli.run(["grid-lr", "--config", str(cfg), "--out", str(tmp_path / "lr.csv")]) == 0
    best = [line.split(" (")[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert best == ["best lr for loss=ce eta=0.1: 0.1000001", "best lr for loss=ce eta=0.1000001: 0.1000001"]


def test_train_divergence_exit_code(tmp_path):
    a = 1e200
    feats = np.array([[a, 0.0], [a, 0.0], [0.0, a], [0.0, a]])
    ds = LabeledDataset(feats, np.array([0, 1, 0, 1]), 2)
    save_csv(ds, tmp_path / "train.csv")
    save_csv(ds, tmp_path / "test.csv")
    cfg = _write_config(
        tmp_path / "exp.cfg",
        dataset="csv",
        train_csv=str(tmp_path / "train.csv"),
        test_csv=str(tmp_path / "test.csv"),
        losses="ce", etas="0.0", seeds="2", hidden="none",
        batch_size="4", epochs="2", lr="1e120",
    )
    out = tmp_path / "runs"
    code = cli.run(["train", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 4
    summary = _read_rows(out / "summary.csv")
    assert summary[0]["n_diverged"] == "1"


def test_train_where_every_run_diverges_in_epoch_one_leaves_a_row_per_run(tmp_path):
    cfg = _write_config(tmp_path / "exp.cfg", etas="0.0", lr="1e300")  # 2 losses x 2 seeds
    out = tmp_path / "runs"
    assert cli.run(["train", "--config", str(cfg), "--out-dir", str(out)]) == 4
    rows = read_per_epoch_csv(out / "runs.csv")
    assert [row["run_id"] for row in rows] == ["ce-eta0-seed0", "ce-eta0-seed1", "fr-eta0-seed0", "fr-eta0-seed1"]
    assert all((row["epoch"], row["train_loss"], row["train_acc"], row["test_acc"]) == (1, None, None, None)
               for row in rows)
    summary = _read_rows(out / "summary.csv")
    assert [(s["loss"], s["n_seeds"], s["n_diverged"]) for s in summary] == [("ce", "0", "2"), ("fr", "0", "2")]
    write_summary_csv(tmp_path / "again.csv", summarize_from_csv(out / "runs.csv"))
    assert (tmp_path / "again.csv").read_bytes() == (out / "summary.csv").read_bytes()


def test_train_svg_where_every_run_diverges_in_epoch_one_draws_legend_only_plots(tmp_path):
    cfg = _write_config(tmp_path / "exp.cfg", etas="0.0", lr="1e300")
    out = tmp_path / "runs"
    assert cli.run(["train", "--config", str(cfg), "--out-dir", str(out), "--svg"]) == 4
    assert [path.name for path in out.glob("*.svg")] == ["accuracy_eta0.svg"]
    svg = ET.parse(out / "accuracy_eta0.svg").getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert svg.findall(f"{ns}polyline") == []
    assert [text.text for text in svg.findall(f"{ns}text")][-2:] == ["ce", "fr"]  # the legend, one entry per loss


def test_train_on_mnist_idx_files_keeps_train_limit_rows(tmp_path):
    rng = np.random.default_rng(0)
    files = {}
    for split, n in (("train", 30), ("test", 10)):
        files[f"{split}_images"], files[f"{split}_labels"] = tmp_path / f"{split}-images", tmp_path / f"{split}-labels"
        _write_idx_images(files[f"{split}_images"], rng.integers(0, 256, (n, 4, 4)).tolist())
        _write_idx_labels(files[f"{split}_labels"], [i % 10 for i in range(n)])
    cfg = _write_config(tmp_path / "exp.cfg", dataset="mnist", train_limit="20", **files)
    train_ds, test_ds = load_datasets(parse_config(cfg))
    assert (len(train_ds), len(test_ds), train_ds.num_features, train_ds.num_classes) == (20, 10, 16, 10)
    out = tmp_path / "runs"
    assert cli.run(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    run_ids = {row["run_id"] for row in read_per_epoch_csv(out / "runs.csv")}
    assert run_ids == {f"{loss}-eta{eta}-seed{seed}" for loss in ("ce", "fr") for eta in ("0", "0.4")
                       for seed in (0, 1)}


def test_train_on_an_idx_header_whose_size_passes_int64_is_data_error_naming_the_image_file(tmp_path, capsys):
    images, labels = tmp_path / "images", tmp_path / "labels"
    images.write_bytes(_idx_header(0x00000803, 4, 2**31, 2**31))  # 2**64 pixel bytes claimed, none there
    _write_idx_labels(labels, [0, 1, 2, 3])
    cfg = _write_config(tmp_path / "exp.cfg", dataset="mnist", train_images=images, train_labels=labels,
                        test_images=images, test_labels=labels)
    assert cli.run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
    message = f"truncated file: expected {16 + 2**64} bytes, found 16"
    assert capsys.readouterr().err == f"error: {images}: byte offset 16: {message}\n"


def test_train_missing_config_is_data_error(tmp_path):
    assert cli.run(["train", "--config", str(tmp_path / "nope.cfg")]) == 3


def test_train_bad_config_is_usage_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset = synthetic\nbogus = 1\n")
    assert cli.run(["train", "--config", str(cfg)]) == 2


def test_config_with_a_repeated_key_is_usage_error_naming_both_lines(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg")
    cfg.write_text(cfg.read_text() + "epochs = 5\n", encoding="utf-8")  # line 15; the first is line 7
    assert cli.run(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 15: key 'epochs' repeats line 7; give each key once\n"


@pytest.mark.parametrize("over, line, message", [
    ({"dataset": "mnist", "classes": "2", "train_images": "a", "train_labels": "b", "test_images": "c",
      "test_labels": "d"}, 9, "'classes' is for dataset = synthetic, not mnist"),
    ({"dataset": "csv", "n_train": "20", "train_csv": "a.csv", "test_csv": "b.csv"}, 9,
     "'n_train' is for dataset = synthetic, not csv"),
    ({"train_csv": "a.csv"}, 15, "'train_csv' is for dataset = csv, not synthetic"),
], ids=["mnist", "csv", "synthetic"])
def test_config_key_of_another_dataset_is_usage_error_naming_its_line(tmp_path, capsys, over, line, message):
    cfg = _write_config(tmp_path / "exp.cfg", **over)
    assert cli.run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line {line}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_synthetic_config_without_features_is_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg", features="0")
    assert cli.run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: num_features must be >= 1, got 0\n"


@pytest.mark.parametrize("command, out, key", [
    ("grid-lr", "--out", "grid_epochs"),
    ("train", "--out-dir", "train_limit"),
], ids=["grid_epochs", "train_limit"])
def test_config_count_below_one_is_usage_error_naming_its_key(tmp_path, capsys, command, out, key):
    cfg = _write_config(tmp_path / "exp.cfg", lr_grid="0.1", **{key: "0"})
    assert cli.run([command, "--config", str(cfg), out, str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {key} must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_utf8_is_usage_error_naming_the_file(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg")
    cfg.write_bytes(cfg.read_bytes().replace(b"losses = ce,fr", b"losses = ce,fr # \xe9"))
    assert cli.run(["train", "--config", str(cfg)]) == 2
    assert f"error: {cfg}: line 2: not utf-8 text: byte 0xe9" in capsys.readouterr().err


def test_config_that_starts_with_a_utf8_byte_order_mark_parses(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg")
    plain = parse_config(cfg)
    cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    assert parse_config(cfg) == plain
    cfg.write_bytes(cfg.read_bytes().replace(b"losses = ce,fr", b"losses = ce,fr # \xe9"))
    assert cli.run(["train", "--config", str(cfg)]) == 2
    assert f"error: {cfg}: line 2: not utf-8 text: byte 0xe9" in capsys.readouterr().err


def test_config_with_a_bad_boolean_names_the_accepted_spellings(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg", eval_every_epoch="maybe")  # line 15
    assert cli.run(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 15: expected true/1/yes or false/0/no, got 'maybe'\n"


@pytest.mark.parametrize("command", ["train", "grid-lr"])
def test_dataset_csv_that_is_not_ascii_is_data_error(tmp_path, capsys, command):
    ds = LabeledDataset(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]), np.array([0, 1, 0]), 2)
    for name in ("train.csv", "test.csv"):
        save_csv(ds, tmp_path / name)
    cfg = _write_config(tmp_path / "exp.cfg", dataset="csv", train_csv=str(tmp_path / "train.csv"),
                        test_csv=str(tmp_path / "test.csv"), lr_grid="0.1")
    edits = (("train.csv", 3, (b"1.0,0.0,1", b"1.0,0.0,1\xc3\xa9")), ("test.csv", 1, (b"f0", b"\xc3\xa90")))
    for name, line, edit in edits:  # a UTF-8 e-acute in a data row, then in the header
        path = tmp_path / name
        original = path.read_bytes()
        path.write_bytes(original.replace(*edit))
        assert cli.run([command, "--config", str(cfg), "--out" if command == "grid-lr" else "--out-dir",
                        str(tmp_path / "out")]) == 3
        assert f"error: {path}: line {line}: not ascii text: byte 0xc3" in capsys.readouterr().err
        path.write_bytes(original)
    assert not (tmp_path / "out").exists()


def test_dataset_csv_with_a_non_finite_feature_is_data_error_naming_its_line(tmp_path, capsys):
    ds = LabeledDataset(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]), np.array([0, 1, 0]), 2)
    for name in ("train.csv", "test.csv"):
        save_csv(ds, tmp_path / name)
    path = tmp_path / "train.csv"
    path.write_bytes(path.read_bytes().replace(b"1.0,0.0,1", b"0.1,nan,1"))  # line 3
    cfg = _write_config(tmp_path / "exp.cfg", dataset="csv", train_csv=str(path), test_csv=str(tmp_path / "test.csv"))
    assert cli.run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: {path}: line 3: features must be finite\n"


# ------------------------------------------------------------------ grid-lr


def test_grid_lr_then_train_from_table(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "exp.cfg",
        losses="ce", etas="0.0", seeds="3", lr="",  # lr comes from the grid
        class_sep="4.0", n_train="80", n_test="40", epochs="5",
    )
    # blank lr line is invalid; rewrite without it
    text = "".join(
        line for line in (tmp_path / "exp.cfg").read_text().splitlines(keepends=True)
        if not line.startswith("lr ")
    )
    (tmp_path / "exp.cfg").write_text(text + "lr_grid = 0.05, 0.2\ngrid_epochs = 5\n")
    table_path = tmp_path / "lr.csv"
    code = cli.run(["grid-lr", "--config", str(tmp_path / "exp.cfg"), "--out", str(table_path)])
    assert code == 0
    assert "best lr" in capsys.readouterr().out
    table = read_lr_table(table_path)
    assert ("ce", 0.0) in table
    # feed the selection back into a training run
    (tmp_path / "exp.cfg").write_text(text + f"lr_file = {table_path}\n")
    out = tmp_path / "runs"
    assert cli.run(["train", "--config", str(tmp_path / "exp.cfg"), "--out-dir", str(out)]) == 0
    assert (out / "summary.csv").exists()


def test_grid_lr_all_diverged_exits_4(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg", losses="ce", etas="0.0", seeds="0", lr_grid="1e300")
    table_path = tmp_path / "lr.csv"
    code = cli.run(["grid-lr", "--config", str(cfg), "--out", str(table_path)])
    assert code == 4
    assert "some grid runs diverged" in capsys.readouterr().err
    assert [row["final_test_acc"] for row in _read_rows(table_path)] == ["-1.0"]


def test_grid_lr_without_lr_grid_is_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg")
    assert cli.run(["grid-lr", "--config", str(cfg), "--out", str(tmp_path / "lr.csv")]) == 2
    assert "lr_grid" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "grid-lr"])
@pytest.mark.parametrize("over,named", [
    ({"seeds": "3,3"}, "'ce-eta0-seed3'"),
    ({"etas": "0.4,0.4"}, "'ce-eta0.4-seed0'"),
    ({"lr_grid": "0.1,0.1"}, "lr_grid entry 0.1"),
    ({"etas": "0.0,-0.0"}, "'ce-eta0-seed0'"),
], ids=["seeds", "etas", "lr_grid", "signed_zero_eta"])
def test_repeated_axis_entry_is_usage_error(tmp_path, capsys, command, over, named):
    cfg = _write_config(tmp_path / "exp.cfg", **{"lr_grid": "0.1,0.3", **over})
    assert cli.run([command, "--config", str(cfg), "--out" if command == "grid-lr" else "--out-dir",
                    str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "duplicate" in err and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "grid-lr"])
@pytest.mark.parametrize("over,message", [
    ({"epochs": "0"}, "epochs must be >= 1, got 0"),
    ({"batch_size": "0"}, "batch_size must be >= 1, got 0"),
    ({"hidden": "0"}, "layer_sizes needs >= 2 positive entries"),
    ({"lr": "-0.1", "lr_grid": "0.1,-0.1"}, "learning_rate must be finite and >= 0, got -0.1"),
    ({"seeds": "-1,0"}, "seed must be in [0, 2**64), got -1"),  # grid-lr trains the first seed only
    ({"seeds": "18446744073709551616,0"}, "seed must be in [0, 2**64), got 18446744073709551616"),
], ids=["epochs", "batch_size", "hidden", "lr", "seed_negative", "seed_2_64"])
def test_bad_run_setting_fails_before_training(tmp_path, capsys, command, over, message):
    # every cell's settings are checked before the first progress line, not after the cells before it
    cfg = _write_config(tmp_path / "exp.cfg", **{"lr_grid": "0.1,0.3", **over})
    assert cli.run([command, "--config", str(cfg), "--out" if command == "grid-lr" else "--out-dir",
                    str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()  # the error alone, no progress line
    assert line.startswith("error: ") and message in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, out, blocker, message", [
    ("train", "--out-dir", "file", "file", "[Errno 20] Not a directory"),
    ("train", "--out-dir", "file/runs", "file", "[Errno 20] Not a directory"),
    ("grid-lr", "--out", "dir", "dir", "[Errno 21] Is a directory"),
    ("grid-lr", "--out", "file/sub/lr.csv", "file", "[Errno 20] Not a directory"),
], ids=["train-file", "train-under_file", "grid_lr-dir", "grid_lr-under_file"])
def test_blocked_output_location_fails_before_training(tmp_path, capsys, command, flag, out, blocker, message):
    # an output path that cannot be written is found before the data load, and nothing is created
    (tmp_path / "file").write_bytes(b"kept")
    (tmp_path / "dir").mkdir()
    cfg = _write_config(tmp_path / "exp.cfg", lr_grid="0.1")
    assert cli.run([command, "--config", str(cfg), flag, str(tmp_path / out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}: {str(tmp_path / blocker)!r}\n" and captured.out == ""
    assert (tmp_path / "file").read_bytes() == b"kept" and list((tmp_path / "dir").iterdir()) == []


def test_train_corrupt_lr_file_is_data_error(tmp_path, capsys):
    table = tmp_path / "lr.csv"
    cfg = _write_config(tmp_path / "exp.cfg", losses="ce", etas="0.0", lr=None, lr_file=str(table))
    for rows, message in (
        ("ce,,0.0,0.1,0.9,0\nce,,0.0,abc,0.9,1", "could not convert string to float: 'abc'"),
        ("ce,,0.0,0.1,0.9,0\nce,,0.0,-0.1,0.9,1", "lr must be finite and >= 0, got -0.1"),
        ("ce,,0.0,0.1,0.9,0\nce,,0.0,nan,0.9,1", "lr must be finite and >= 0, got nan"),
        ("ce,,0.0,0.1,0.9,0\nce,,0.0,inf,0.9,1", "lr must be finite and >= 0, got inf"),
        ("ce,,0.0,0.1,0.9,1\nce,,0.0,0.3,0.9,1", "selected twice for loss=ce eta=0"),
        ("ce,,0.0,0.1,0.9,0\nce,,0.0,0.3,0.9,yes", "selected must be 0 or 1, got 'yes'"),
        ("ce,,0.0,0.1,0.9,0\nc\u00e9,,0.0,0.3,0.9,1", "not ascii text: byte 0xc3"),
    ):
        table.write_text(f"loss,q,eta,lr,final_test_acc,selected\n{rows}\n", encoding="utf-8")
        assert cli.run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "runs")]) == 3
        err = capsys.readouterr().err
        assert "line 3" in err and message in err


def test_train_config_with_both_lr_and_lr_file_is_usage_error(tmp_path, capsys):
    table = tmp_path / "lr.csv"
    table.write_text("loss,q,eta,lr,final_test_acc,selected\nce,,0.0,0.3,0.9,1\n")
    cfg = _write_config(tmp_path / "exp.cfg", losses="ce", etas="0.0", lr_file=str(table))
    assert cli.run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: config gives both lr = 0.1 and lr_file = {table}; give one\n"
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------------------- usage


@pytest.mark.parametrize("command", [["bounds", "--sweep", "alpha"], ["losses-table"]])
@pytest.mark.parametrize("points", ["0", "-2"])
def test_points_below_one_is_usage_error(tmp_path, capsys, command, points):
    out = tmp_path / "t.csv"
    assert cli.run([*command, "--points", points, "--out", str(out)]) == 2
    assert f"--points must be at least 1, got {points}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,flag", [
    (["bounds", "--sweep", "alpha", "--losses", ","], "--losses"),
    (["losses-table", "--losses", " "], "--losses"),
    (["bounds", "--sweep", "K", "--K-grid", ","], "--K-grid"),
])
def test_empty_list_is_usage_error(tmp_path, capsys, args, flag):
    out = tmp_path / "t.csv"
    assert cli.run([*args, "--out", str(out)]) == 2
    assert f"{flag} must list at least one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,flag,entry", [
    (["bounds", "--sweep", "alpha", "--losses", "fr,fr", "--points", "3", "--svg"], "--losses", "fr"),
    (["bounds", "--sweep", "K", "--losses", "qce:0.7,mse,qce:0.70", "--svg"], "--losses", "qce:0.7"),
    (["losses-table", "--losses", "fr,fr", "--points", "2"], "--losses", "fr"),
    (["bounds", "--sweep", "K", "--losses", "fr", "--K-grid", "10,10"], "--K-grid", "10"),
    (["bounds", "--sweep", "K", "--losses", "fr", "--K-grid", "3,10,010", "--svg"], "--K-grid", "10"),
], ids=["bounds_losses", "bounds_qce_spelled_twice", "losses_table", "K_grid", "K_grid_spelled_twice"])
def test_repeated_list_entry_is_usage_error(tmp_path, capsys, args, flag, entry):
    assert cli.run([*args, "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == f"error: {flag} lists {entry!r} more than once; give each entry once\n"
    assert list(tmp_path.iterdir()) == []  # neither the CSV nor an SVG


@pytest.mark.parametrize("args,error", [
    (["bounds", "--sweep", "K", "--K-grid", "2.5"], "--K-grid got '2.5': invalid literal for int() with base 10: '2.5'"),
    (["bounds", "--sweep", "K", "--K-grid", "1,5"], "--K-grid got '1': num_classes must be >= 2, got 1"),
    (["distance", "--p", "0.5,abc", "--q", "0.5,0.5"], "--p got 'abc': could not convert string to float: 'abc'"),
    (["bounds", "--sweep", "alpha", "--alpha-max", "1.5"], "--alpha-max got 1.5: alpha must lie in [0, 1), got 1.5"),
    (["bounds", "--sweep", "alpha", "--alpha-max", "-0.5"],
     "--alpha-max got -0.5: alpha must lie in [0, 1), got -0.5"),
    (["bounds", "--sweep", "alpha", "--K", "1"], "--K got 1: num_classes must be >= 2, got 1"),
    (["bounds", "--sweep", "K", "--alpha", "1.0"], "--alpha got 1.0: alpha must lie in [0, 1), got 1.0"),
    (["bounds", "--sweep", "K", "--losses", "fr,foo"],
     f"--losses got 'foo': unknown loss kind 'foo'; expected one of {KINDS}"),
], ids=["K_grid_not_int", "K_grid_one_class", "p_not_float", "alpha_max_above", "alpha_max_below", "K", "alpha",
        "losses"])
def test_value_error_names_its_flag_and_the_value_given(tmp_path, capsys, monkeypatch, args, error):
    monkeypatch.chdir(tmp_path)
    assert cli.run(args) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


def test_k_sweep_ignores_points(tmp_path):
    # --points sizes the alpha grid only, so the K sweep neither checks nor reads it
    for name, points in (("with.csv", ["--points", "0"]), ("without.csv", [])):
        assert cli.run(["bounds", "--sweep", "K", "--K-grid", "2,10", *points, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["train"])
    assert exc.value.code == 2


def test_importing_the_package_and_cli_leaves_numpy_random_unloaded():
    """numpy loads numpy.random on first use; only make_rng's first call needs it, not bounds or distance."""
    script = ("import sys, fisherrao, fisherrao.cli\n"
              "assert 'numpy.random' not in sys.modules, 'import fisherrao loaded numpy.random'\n"
              "from fisherrao.rng import make_rng\n"
              "print(make_rng(0, 1).random())\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert 0.0 <= float(result.stdout) < 1.0


def test_package_all_is_its_public_names_that_are_not_modules():
    public = [name for name, value in vars(fisherrao).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(fisherrao.__all__) == sorted(public)


def test_package_all_is_defined_by_the_package_own_modules():
    """__all__ is what __init__.py imports, so a stray import there (``from typing import Final``) would be exported:
    every name must be a def, a class or a top-level assignment of another module in the package."""
    defined = set()
    for path in pathlib.Path(fisherrao.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    stray = [name for name in fisherrao.__all__ if name not in defined]
    assert not stray, stray
