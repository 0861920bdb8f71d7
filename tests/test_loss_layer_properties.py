"""Property-based checks of the lockstep loss layer (``losses._loss_layer``).

The stacked layer shares one softmax, one gather of t = p_y and one p - e_y
among all members, which train one loss, and stores one loss statistic per
sample (t, or ||p||^2 - 2 t for MSE).  Each member's score gradient must
still be its ``score_gradients(...) / n``, and each mean loss that
``losses._batch_mean_losses`` builds from the statistics, per batch of a drawn
size (the last one possibly partial), the ``loss_values(...).mean()`` of that
batch, bit for bit, whatever the other members hold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fisherrao.losses import (
    CE, FR, HELLINGER, MAE, MSE, _batch_mean_losses, _loss_layer, loss_values, qce, score_gradients,
)
from fisherrao.simplex import softmax

# Scores of +-700 drive t to 1 and below CLAMP_EPS (exp(-1400) is 0).
score_values = st.one_of(st.sampled_from((-700.0, 700.0, 0.0, -40.0, 40.0)), st.floats(-700.0, 700.0))
specs = st.one_of(st.sampled_from((MSE, MAE, CE, qce(0.0), FR, HELLINGER)), st.floats(0.0, 1.0).map(qce))


@st.composite
def stacks(draw):
    r, n, k = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(2, 5))
    scores = draw(arrays(np.float64, (r, n, k), elements=score_values))
    labels = draw(arrays(np.int64, (r, n), elements=st.integers(0, k - 1)))
    return scores, labels, draw(specs), draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_loss_layer_matches_per_member_losses_bit_for_bit(stack):
    scores, labels, spec, batch_size = stack
    n = scores.shape[1]
    stat = np.empty(labels.shape)
    delta = _loss_layer(scores.copy(), labels, spec, stat)  # the layer overwrites the scores
    mean_loss = _batch_mean_losses(stat, spec, batch_size)
    assert mean_loss.shape == (len(scores), -(-n // batch_size))
    assert np.isfinite(mean_loss).all() and np.isfinite(delta).all()
    for m in range(len(scores)):
        probs = softmax(scores[m])
        for b, start in enumerate(range(0, n, batch_size)):
            rows = slice(start, start + batch_size)
            assert mean_loss[m, b].tobytes() == loss_values(spec, probs[rows], labels[m, rows]).mean().tobytes()
        assert delta[m].tobytes() == (score_gradients(spec, probs, labels[m]) / n).tobytes()
