"""Property-based check of the one label rule: every label is a whole number in [0, K).

Each entry point that takes class labels accepts the edges 0 and K - 1 and
rejects -1 and K with the same ValueError, and rejects a fractional or NaN
label instead of truncating it.  The stacked loss kernel gathers t = p_y
through a flat index, where an unchecked label would read a neighbouring
row instead of failing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherrao.data import LabeledDataset
from fisherrao.losses import (
    CE, FR, HELLINGER, MAE, MSE, loss_gradient_scores, loss_value, loss_values, qce, score_gradients,
)
from fisherrao.mlp import MlpConfig, batch_grad, init_model
from fisherrao.noise import NoiseSpec, corrupt_labels
from fisherrao.simplex import one_hot


def _uniform(n, k):
    return np.full((n, k), 1.0 / k)


# name -> call(labels (n,), K, loss spec), one per entry point that takes class labels
ENTRY_POINTS = {
    "LabeledDataset": lambda y, k, spec: LabeledDataset(np.zeros((y.size, 1)), y, k),
    "corrupt_labels": lambda y, k, spec: corrupt_labels(y, NoiseSpec(0.1, 0, k)),
    "loss_values": lambda y, k, spec: loss_values(spec, _uniform(y.size, k), y),
    "score_gradients": lambda y, k, spec: score_gradients(spec, _uniform(y.size, k), y),
    "loss_value": lambda y, k, spec: [loss_value(spec, _uniform(1, k)[0], label) for label in y],
    "loss_gradient_scores": lambda y, k, spec: [loss_gradient_scores(spec, np.zeros(k), label) for label in y],
    "one_hot": lambda y, k, spec: [one_hot(label, k) for label in y],
    "batch_grad": lambda y, k, spec: batch_grad(
        init_model(MlpConfig((2, k), spec, 0.1, 1, 1, 0)), np.ones((y.size, 2)), y, spec
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(2, 50),
    spec=st.sampled_from((MSE, MAE, CE, qce(0.7), FR, HELLINGER)),
    above=st.booleans(),
)
def test_labels_outside_zero_to_k_raise_one_value_error(entry, k, spec, above):
    call = ENTRY_POINTS[entry]
    call(np.array([0, k - 1]), k, spec)  # the edges of [0, K) are accepted
    with pytest.raises(ValueError, match=rf"out of range \[0, {k}\)"):
        call(np.array([0, k - 1, k if above else -1]), k, spec)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(2, 50),
    spec=st.sampled_from((MSE, MAE, CE, qce(0.7), FR, HELLINGER)),
    bad=st.floats(-2.0, 60.0).filter(lambda v: v % 1) | st.sampled_from((np.nan, np.inf, -np.inf)),
)
def test_labels_that_are_not_whole_numbers_raise_a_value_error(entry, k, spec, bad):
    call = ENTRY_POINTS[entry]
    call(np.array([0.0, k - 1.0]), k, spec)  # whole numbers are accepted whatever their dtype
    with pytest.raises(ValueError, match="out of range" if np.isinf(bad) else "whole numbers"):
        call(np.array([0.0, k - 1.0, bad]), k, spec)
