"""Property-based round trip of the config format: ExperimentSpec -> 'key = value' text -> parse_config."""

import math
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fisherrao.experiment import ExperimentSpec, parse_config, run_id
from fisherrao.losses import KINDS, LossSpec, qce

losses = st.one_of(st.sampled_from([k for k in KINDS if k != "qce"]).map(LossSpec), st.floats(0.0, 1.0).map(qce))
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(1e-6, 10.0)
paths = st.text("abcXYZ019_-./", min_size=1, max_size=12)
counts = st.integers(1, 10_000)

specs = st.builds(
    ExperimentSpec,
    dataset=st.just("synthetic"),
    losses=st.lists(losses, min_size=1, max_size=4, unique=True).map(tuple),
    etas=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=4, unique=True).map(tuple),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True).map(tuple),
    hidden=st.lists(st.integers(1, 512), max_size=3).map(tuple),
    batch_size=counts,
    epochs=counts,
    lr=st.none() | positive,
    lr_file=st.none() | paths,
    lr_grid=st.lists(positive, max_size=4, unique=True).map(tuple),
    grid_epochs=st.none() | counts,
    eval_every_epoch=st.booleans(),
    out_dir=paths,
    n_train=counts,
    n_test=counts,
    features=counts,
    classes=st.integers(2, 100),
    class_sep=finite,
    data_seed=st.integers(0, 2**32 - 1),
    train_limit=st.none() | counts,
)


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_text, value)) if value else "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _config_text(spec: ExperimentSpec) -> str:
    """One line per set field; None and an empty lr_grid are left to their defaults, hidden = () is 'none'."""
    values = {f.name: getattr(spec, f.name) for f in fields(spec)}
    return "".join(f"{k} = {_text(v)}\n" for k, v in values.items() if k == "hidden" or v not in (None, ()))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs)
def test_parse_config_round_trip(tmp_path, spec):
    path = tmp_path / "exp.cfg"
    path.write_text(_config_text(spec))
    assert parse_config(path) == spec


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs, st.sampled_from(["seeds", "etas"]), st.data())
def test_parse_config_rejects_a_repeated_seed_or_eta(tmp_path, spec, axis, data):
    values = getattr(spec, axis)
    repeated = values + (data.draw(st.sampled_from(values)),)
    text = _config_text(spec).replace(f"{axis} = {_text(values)}\n", f"{axis} = {_text(repeated)}\n")
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match="duplicate run_id"):
        parse_config(path)


def _near(x: float, lo: float, hi: float):
    """x, or a float in [lo, hi] a few ulps, a relative 1e-5 or anything away from it."""
    return st.one_of(
        st.just(x),
        st.integers(-1000, 1000).map(lambda k: x + k * math.ulp(x)),
        st.floats(-1e-5, 1e-5).map(lambda r: x * (1 + r)),
        st.floats(lo, hi),
    ).filter(lambda v: lo <= v <= hi)


@settings(max_examples=300, deadline=None)
@given(losses, st.floats(0.0, 1.0), st.integers(0, 2**64 - 1), st.data())
def test_distinct_cells_get_distinct_run_ids(loss, eta, seed, data):
    # the other cell is mostly close to this one, where :g alone wrote equal text for distinct values
    near_loss = _near(loss.q, 0.0, 1.0).map(qce) if loss.kind == "qce" else st.just(loss)
    other = (data.draw(near_loss | losses), data.draw(_near(eta, 0.0, 1.0)),
             data.draw(st.just(seed) | st.integers(0, 2**64 - 1)))
    if other != (loss, eta, seed):
        assert run_id(*other) != run_id(loss, eta, seed)
