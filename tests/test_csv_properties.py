"""Property-based checks of the shared CSV format (``data.write_rows``/``read_rows``)."""

import math
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fisherrao.data import write_rows
from fisherrao.experiment import (PER_EPOCH_COLUMNS, _run_rows, read_per_epoch_csv, run_id, summarize,
                                  summarize_from_csv, write_per_epoch_csv)
from fisherrao.losses import KINDS, LossSpec
from fisherrao.mlp import TrainingDiverged, TrainRecord

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308)
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
losses = st.one_of(
    st.sampled_from([k for k in KINDS if k != "qce"]).map(LossSpec),
    st.floats(0.0, 1.0).map(lambda q: LossSpec("qce", q)),
)
records = st.builds(TrainRecord, st.integers(), finite, finite, st.none() | finite)
METRICS = ("epoch", "train_loss", "train_acc", "test_acc")


def _head(loss, eta, seed) -> dict:
    return {"run_id": run_id(loss, eta, seed), "loss": loss.kind, "q": loss.q, "eta": eta, "seed": seed}


@st.composite
def run_rows(draw):
    """A run's runs.csv rows: any cell, any epochs, any metric empty."""
    head = _head(draw(losses), draw(finite), draw(st.integers()))
    metrics = st.tuples(st.integers(), *[st.none() | finite] * 3)
    return [{**head, **dict(zip(METRICS, values))} for values in draw(st.lists(metrics, max_size=4))]


FEW_LOSSES = (LossSpec("ce"), LossSpec("fr"), LossSpec("qce", 0.5))


@st.composite
def sweep_runs(draw):
    """A run as a sweep leaves it: epochs 1..n, accuracies in [0, 1], at least one epoch unless it diverged."""
    diverged = draw(st.booleans())
    accs = draw(st.lists(st.none() | st.floats(0.0, 1.0), min_size=0 if diverged else 1, max_size=4))
    recs = [TrainRecord(epoch, draw(finite), draw(st.floats(0.0, 1.0)), acc) for epoch, acc in enumerate(accs, 1)]
    loss, eta = draw(st.sampled_from(FEW_LOSSES)), draw(st.sampled_from((0.0, 0.2, 0.5)))
    outcome = TrainingDiverged("non-finite scores", len(recs) + 1, recs) if diverged else recs
    return _run_rows(loss, eta, draw(st.integers(0, 3)), outcome)


def _bits(value):
    """Compare floats by bit pattern, so -0.0 != 0.0."""
    return struct.pack("<d", value) if isinstance(value, float) else value


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(run_rows(), max_size=4))
def test_per_epoch_csv_round_trip_is_bit_exact(tmp_path, runs):
    path = tmp_path / "runs.csv"
    write_per_epoch_csv(path, runs)
    got = [{k: _bits(v) for k, v in row.items()} for row in read_per_epoch_csv(path)]
    assert got == [{k: _bits(v) for k, v in row.items()} for run in runs for row in run]


@settings(max_examples=200, deadline=None)
@given(losses, finite, st.integers(), st.lists(records, max_size=4), st.integers())
def test_a_diverged_run_ends_with_a_row_at_its_failed_epoch(loss, eta, seed, recs, epoch):
    rows = _run_rows(loss, eta, seed, TrainingDiverged("non-finite scores", epoch=epoch, records=recs))
    head = _head(loss, eta, seed)
    assert all(list(row) == PER_EPOCH_COLUMNS.split(",") for row in rows)
    assert rows[:-1] == [{**head, "epoch": r.epoch, "train_loss": r.train_loss, "train_acc": r.train_acc,
                          "test_acc": r.test_acc} for r in recs]
    assert rows[-1] == {**head, "epoch": epoch, "train_loss": None, "train_acc": None, "test_acc": None}


def _same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(sweep_runs(), min_size=1, max_size=6))
def test_summary_from_the_file_equals_the_summary_of_the_runs(tmp_path, runs):
    path = tmp_path / "runs.csv"
    write_per_epoch_csv(path, runs)
    from_file, from_runs = summarize_from_csv(path), summarize(runs)
    assert [row.keys() for row in from_file] == [row.keys() for row in from_runs]
    assert all(_same(a[k], b[k]) for a, b in zip(from_file, from_runs) for k in a)


def test_numpy_float_cells_are_plain_digits(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, ("a", "b", "c"), [(np.float64(0.1), np.int64(3), None), {"a": 1, "b": np.float64(-0.0), "c": "x"}])
    assert path.read_text() == "a,b,c\n0.1,3,\n1,-0.0,x\n"
    run = _run_rows(LossSpec("fr"), 0.5, 0, [TrainRecord(1, np.float64(0.25), 0.5, np.float64(0.75))])
    write_per_epoch_csv(path, [run])
    assert path.read_text().splitlines()[1] == "fr-eta0.5-seed0,fr,,0.5,0,1,0.25,0.5,0.75"
