"""Property-based checks of the shared CSV format (``data.write_rows``/``read_rows``)."""

import math
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fisherrao.data import write_rows
from fisherrao.experiment import RunResult, read_per_epoch_csv, summarize, summarize_from_csv, write_per_epoch_csv
from fisherrao.losses import KINDS, LossSpec
from fisherrao.mlp import TrainRecord

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308)
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
losses = st.one_of(
    st.sampled_from([k for k in KINDS if k != "qce"]).map(LossSpec),
    st.floats(0.0, 1.0).map(lambda q: LossSpec("qce", q)),
)
records = st.builds(TrainRecord, st.integers(), finite, finite, st.none() | finite)
results = st.builds(
    RunResult, losses, finite, st.integers(), st.just(0.1), st.lists(records, max_size=4), st.booleans()
)

FEW_LOSSES = (LossSpec("ce"), LossSpec("fr"), LossSpec("qce", 0.5))


@st.composite
def sweep_runs(draw):
    """A run as a sweep leaves it: epochs 1..n, accuracies in [0, 1], at least one epoch unless it diverged."""
    diverged = draw(st.booleans())
    accs = draw(st.lists(st.none() | st.floats(0.0, 1.0), min_size=0 if diverged else 1, max_size=4))
    recs = [TrainRecord(epoch, draw(finite), draw(st.floats(0.0, 1.0)), acc) for epoch, acc in enumerate(accs, 1)]
    loss, eta = draw(st.sampled_from(FEW_LOSSES)), draw(st.sampled_from((0.0, 0.2, 0.5)))
    return RunResult(loss, eta, draw(st.integers(0, 3)), 0.1, recs, diverged)


def _bits(value):
    """Compare floats by bit pattern, so -0.0 != 0.0."""
    return struct.pack("<d", value) if isinstance(value, float) else value


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(results, max_size=4))
def test_per_epoch_csv_round_trip_is_bit_exact(tmp_path, runs):
    path = tmp_path / "runs.csv"
    write_per_epoch_csv(path, runs)
    expected = []
    for r in runs:
        head = (r.loss.kind, r.loss.q, r.eta, r.seed)
        expected += [head + (rec.epoch, rec.train_loss, rec.train_acc, rec.test_acc) for rec in r.records]
        if r.diverged:  # a diverged run ends with the row of the epoch that failed
            expected.append(head + (len(r.records) + 1, None, None, None))
    keys = ("loss", "q", "eta", "seed", "epoch", "train_loss", "train_acc", "test_acc")
    got = [tuple(row[k] for k in keys) for row in read_per_epoch_csv(path)]
    assert [tuple(map(_bits, row)) for row in got] == [tuple(map(_bits, row)) for row in expected]


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
    run = RunResult(LossSpec("fr"), 0.5, 0, 0.1, records=[TrainRecord(1, np.float64(0.25), 0.5, np.float64(0.75))])
    write_per_epoch_csv(path, [run])
    assert path.read_text().splitlines()[1] == "fr-eta0.5-seed0,fr,,0.5,0,1,0.25,0.5,0.75"
