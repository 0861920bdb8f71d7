import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fisherrao import simplex
from fisherrao.losses import LossSpec, loss_values, score_gradients
from fisherrao.rng import make_rng
from fisherrao.simplex import (
    as_distribution,
    as_scores,
    fisher_rao_distance,
    fisher_rao_from_hellinger,
    hellinger_distance,
    one_hot,
    sample_simplex,
    softmax,
    sphere_embed,
)


def test_as_distribution_accepts_and_copies():
    p = as_distribution([0.25, 0.75])
    npt.assert_array_equal(p, [0.25, 0.75])
    src = np.array([0.5, 0.5])
    out = as_distribution(src)
    out[0] = 0.0
    assert src[0] == 0.5


def test_as_distribution_clamps_tiny_negatives():
    p = as_distribution([1.0, -1e-13])
    assert p[1] == 0.0


@pytest.mark.parametrize(
    "bad",
    [
        [0.5],  # too short
        [[0.5, 0.5]],  # not 1-D
        [0.5, np.nan],
        [0.5, np.inf],
        [1.0, -1e-11],  # negative beyond tolerance
        [0.6, 0.6],  # sum off by 0.2
        [0.5, 0.5 + 1e-8],  # sum off beyond 1e-9
    ],
)
def test_as_distribution_rejects(bad):
    with pytest.raises(ValueError):
        as_distribution(bad)


def test_as_distribution_sum_tolerance_boundary():
    as_distribution([0.5, 0.5 + 9e-10])  # inside 1e-9


def test_as_scores_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_scores([1.0, np.nan])
    with pytest.raises(ValueError):
        as_scores([1.0])


def test_one_hot():
    npt.assert_array_equal(one_hot(1, 3), [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        one_hot(3, 3)
    with pytest.raises(ValueError):
        one_hot(0, 1)


def test_softmax_uniform_and_shift():
    npt.assert_allclose(softmax([0.0, 0.0, 0.0]), np.full(3, 1 / 3), rtol=0, atol=1e-15)
    out = softmax([1000.0, 1000.0])
    npt.assert_allclose(out, [0.5, 0.5], rtol=0, atol=1e-15)


def test_softmax_log_ratios():
    npt.assert_allclose(softmax(np.log([7.0, 2.0, 1.0])), [0.7, 0.2, 0.1], rtol=0, atol=1e-15)


def test_softmax_rejects_nonfinite():
    with pytest.raises(ValueError):
        softmax([np.inf, 0.0])


@pytest.mark.parametrize("scores", [3.0, np.zeros((2, 0)), []], ids=["0-d", "empty last axis", "empty vector"])
def test_softmax_rejects_scores_without_a_class_axis(scores):
    with pytest.raises(ValueError, match="softmax requires scores with a non-empty last axis"):
        softmax(scores)


def test_softmax_batched_rows_sum_to_one():
    rng = make_rng(3, 99)
    s = rng.normal(size=(50, 7))
    p = softmax(s)
    npt.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    npt.assert_allclose(p[13], softmax(s[13]), rtol=0, atol=0)


def test_sphere_embed_values_and_norm():
    npt.assert_array_equal(sphere_embed([1.0, 0.0]), [2.0, 0.0])
    npt.assert_allclose(sphere_embed([0.5, 0.5]), [np.sqrt(2.0)] * 2, rtol=1e-15)
    npt.assert_allclose(sphere_embed([0.25, 0.75]), [1.0, 1.7320508075688772], rtol=0, atol=1e-15)
    rng = make_rng(4, 99)
    for k in (2, 5, 17):
        z = sphere_embed(sample_simplex(rng, k, 200))
        npt.assert_allclose(np.linalg.norm(z, axis=1), 2.0, rtol=0, atol=1e-9)


def test_softmax_embed_consistency():
    rng = make_rng(5, 99)
    z = sphere_embed(softmax(rng.normal(size=(300, 6)) * 3))
    npt.assert_allclose(np.linalg.norm(z, axis=1), 2.0, rtol=0, atol=1e-9)


def test_distance_examples():
    assert fisher_rao_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    npt.assert_allclose(fisher_rao_distance([1.0, 0.0], [0.0, 1.0]), np.pi, rtol=0, atol=0)
    npt.assert_allclose(
        fisher_rao_distance([0.9, 0.1], [0.1, 0.9]), 1.8545904360032245, rtol=0, atol=1e-12
    )
    assert hellinger_distance([0.3, 0.7], [0.3, 0.7]) == 0.0
    npt.assert_allclose(hellinger_distance([1.0, 0.0], [0.0, 1.0]), np.sqrt(2.0), rtol=0, atol=0)
    npt.assert_allclose(
        hellinger_distance([0.9, 0.1], [0.1, 0.9]), 0.8944271909999159, rtol=0, atol=1e-12
    )


def test_distance_shape_mismatch():
    with pytest.raises(ValueError):
        fisher_rao_distance([0.5, 0.5], [0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        hellinger_distance([0.5, 0.5], [0.2, 0.3, 0.5])


def test_distances_symmetric_exactly():
    rng = make_rng(6, 99)
    for k in (2, 3, 10):
        p = sample_simplex(rng, k, 100)
        q = sample_simplex(rng, k, 100)
        npt.assert_array_equal(fisher_rao_distance(p, q), fisher_rao_distance(q, p))
        npt.assert_array_equal(hellinger_distance(p, q), hellinger_distance(q, p))


def test_distance_ranges():
    rng = make_rng(7, 99)
    for k in range(2, 21):
        p = sample_simplex(rng, k, 200)
        q = sample_simplex(rng, k, 200)
        d_fr = fisher_rao_distance(p, q)
        d_h = hellinger_distance(p, q)
        assert np.all((0 <= d_fr) & (d_fr <= np.pi))
        assert np.all((0 <= d_h) & (d_h <= np.sqrt(2.0)))


def test_fisher_rao_hellinger_identity():
    rng = make_rng(8, 99)
    for k in range(2, 21):
        p = sample_simplex(rng, k, 600)
        q = sample_simplex(rng, k, 600)
        lhs = fisher_rao_distance(p, q)
        rhs = fisher_rao_from_hellinger(hellinger_distance(p, q))
        npt.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)


def test_arc_chord_bound_and_asymptotics():
    rng = make_rng(9, 99)
    for k in (2, 5, 12):
        p = sample_simplex(rng, k, 500)
        q = sample_simplex(rng, k, 500)
        assert np.all(2.0 * hellinger_distance(p, q) <= fisher_rao_distance(p, q) + 1e-15)
        # pairs at Hellinger distance <= 1e-3: ratio to the chord tends to 1.
        # Step size per pair targets a separation well above the arccos
        # conditioning floor (noise in the ratio scales like eps / d_h^2).
        d0 = hellinger_distance(p, q)
        t = 2e-4 / np.maximum(d0, 1e-3)
        near = p + t[:, None] * (q - p)  # convex combination, stays on the simplex
        d_h = hellinger_distance(p, near)
        keep = (d_h >= 1e-5) & (d_h <= 1e-3)
        assert keep.mean() > 0.9
        ratio = fisher_rao_distance(p, near)[keep] / (2.0 * d_h[keep])
        npt.assert_allclose(ratio, 1.0, rtol=0, atol=1e-4)


def test_triangle_inequality():
    rng = make_rng(10, 99)
    for k in (2, 4, 9):
        a = sample_simplex(rng, k, 300)
        b = sample_simplex(rng, k, 300)
        c = sample_simplex(rng, k, 300)
        ab = fisher_rao_distance(a, b)
        bc = fisher_rao_distance(b, c)
        ac = fisher_rao_distance(a, c)
        assert np.all(ac <= ab + bc + 1e-12)


def test_zero_iff_equal():
    rng = make_rng(11, 99)
    p = sample_simplex(rng, 5, 100)
    q = sample_simplex(rng, 5, 100)
    d = fisher_rao_distance(p, q)
    assert np.all(d > 1e-3)  # random pairs essentially never coincide
    # d(p, p) is bounded by arccos conditioning, ~sqrt(machine eps)
    assert np.all(fisher_rao_distance(p, p) <= 1e-7)
    assert np.all(hellinger_distance(p, p) == 0.0)


def test_boundary_points_finite():
    # zero entries are legitimate boundary points; closed forms stay finite
    p = np.array([0.0, 0.3, 0.7])
    q = np.array([0.5, 0.5, 0.0])
    assert np.isfinite(fisher_rao_distance(p, q))
    assert np.isfinite(hellinger_distance(p, q))


def test_sample_simplex_shapes_and_validity():
    rng = make_rng(12, 99)
    single = sample_simplex(rng, 4)
    assert single.shape == (4,)
    batch = sample_simplex(rng, 4, 1000)
    assert batch.shape == (1000, 4)
    assert batch.min() >= 0.0
    npt.assert_allclose(batch.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # flat coverage: each coordinate's mean is 1/K
    npt.assert_allclose(batch.mean(axis=0), 0.25, rtol=0, atol=0.05)


# ------------------------------------------------- bulk calls in row blocks


def _row_block(rows):
    """Patch ROW_BLOCK, the rows per block of a bulk call, to ``rows``."""
    return mock.patch.object(simplex, "ROW_BLOCK", rows)


BULK_CALLS = {
    "softmax": lambda d: softmax(d["scores"]),
    "fisher_rao_distance": lambda d: fisher_rao_distance(d["p"], d["q"]),
    "hellinger_distance": lambda d: hellinger_distance(d["p"], d["q"]),
    "loss_values": lambda d: loss_values(d["spec"], d["probs"], d["labels"]),
    "score_gradients": lambda d: score_gradients(d["spec"], d["probs"], d["labels"]),
}
BULK_LOSSES = ("mse", "mae", "ce", "qce:0", "qce:0.7", "fr", "hellinger")


def _outcome(call, data):
    """The bytes a call returns, or the type and message of what it raises."""
    try:
        return call(data).tobytes()
    except ValueError as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(
    block=st.integers(1, 6),
    blocks=st.integers(1, 5),
    delta=st.sampled_from((-1, 0, 1)),
    k=st.sampled_from((2, 10, 17, 33)),
    loss=st.sampled_from(BULK_LOSSES),
    bad=st.sampled_from((None, "score", "label")),
    bad_at=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_bulk_calls_match_the_single_call_bit_for_bit(block, blocks, delta, k, loss, bad, bad_at, seed):
    # blocks * block + delta rows covers one block and several, each +-1 row
    rows = max(blocks * block + delta, 0)
    rng = np.random.default_rng(seed)
    scores = rng.normal(0.0, 8.0, (rows, k))
    labels = rng.integers(0, k, rows)
    x = rng.standard_exponential((2, rows, k))
    data = {"scores": scores, "probs": softmax(scores), "labels": labels, "spec": LossSpec.parse(loss)}
    data["p"], data["q"] = x / x.sum(axis=-1, keepdims=True)
    if bad is not None and rows:
        row = int(bad_at * rows)
        if bad == "score":
            scores[row, row % k] = (np.nan, np.inf, -np.inf)[row % 3]
        else:
            labels[row] = k if row % 2 else -1
    with _row_block(rows + 1):
        serial = {name: _outcome(call, data) for name, call in BULK_CALLS.items()}
    with _row_block(block):
        blocked = {name: _outcome(call, data) for name, call in BULK_CALLS.items()}
    assert blocked == serial
    if bad is not None and rows:
        assert isinstance(serial["softmax" if bad == "score" else "loss_values"], tuple)


# 1-4 rows of 1 to 40 finite scores, with the float extremes, zeros of both signs and ties
_EDGE_ROWS = arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 40)),
                    elements=st.one_of(st.sampled_from((1.7e308, -1.7e308, 1.0, 0.0, -0.0)),
                                       st.floats(-1.7e308, 1.7e308)))


def _tiled(rows: np.ndarray) -> np.ndarray:
    """rows repeated past COLUMN_MIN_ROWS: such a block takes its row max and row sum by column when K <= 15."""
    return np.tile(rows, (simplex.COLUMN_MIN_ROWS // len(rows) + 1, 1))


@pytest.mark.parametrize("k", [2, 10, 15, 16, 32, 33])
def test_bulk_softmax_matches_the_training_kernel_bit_for_bit(k):
    # a bulk block of COLUMN_MIN_ROWS rows of K <= 15 takes its row max and sum by column; a training step's few rows
    # and more classes reduce
    scores = make_rng(5, k).normal(0.0, 8.0, (simplex.COLUMN_MIN_ROWS, k))
    scores[0] = 0.0
    scores[1] = -np.abs(scores[1])
    scores[1, k // 2] = -0.0  # the max is -0.0, with 0.0 nowhere in the row
    scores[2] = -np.abs(scores[2])
    scores[2, 0], scores[2, -1] = -0.0, 0.0  # a max of either sign of zero
    scores[3, :] = scores[3, 0]  # a row of ties
    steps = [simplex._softmax(step.copy()) for step in scores.reshape(-1, 8, k)]
    assert softmax(scores).tobytes() == np.concatenate(steps).tobytes()


@settings(max_examples=200, deadline=None)
@given(_EDGE_ROWS)
def test_softmax_of_finite_scores_past_the_float_range_is_exact_and_silent(scores):
    # s - max(s) overflows to -inf once a row spans more than the float maximum; exp(-inf) = 0 is exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = softmax(_tiled(scores))
    npt.assert_allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    with np.errstate(over="ignore"):  # as in the training step, which runs the kernel under np.errstate
        assert probs.tobytes() == _tiled(simplex._softmax(scores.copy())).tobytes()


@settings(max_examples=200, deadline=None)
@given(_EDGE_ROWS)
def test_softmax_of_a_column_form_block_matches_each_rows_own_call_bit_for_bit(rows):
    # a single row is a block of one row, so its own call reduces
    with np.errstate(over="ignore"):
        block = simplex._softmax(_tiled(rows))
        own = [simplex._softmax(row.copy()) for row in rows]
    assert block.tobytes() == _tiled(np.array(own)).tobytes()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, NaN in the same places, and the same bits (zero signs included) everywhere else."""
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


# 1-6 rows of 1 to 33 entries: zeros of both signs, subnormals, +-inf, +-1e308, NaN and any float
_SUM_ROWS = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 33)),
                   elements=st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, np.inf,
                                                       -np.inf, np.nan, 1.0)), st.floats()))


@settings(max_examples=300, deadline=None)
@given(rows=_SUM_ROWS, n=st.sampled_from((1, simplex.COLUMN_MIN_ROWS - 1, simplex.COLUMN_MIN_ROWS, 1031)),
       order=st.sampled_from("CF"))
@example(rows=np.full((2, 3), -0.0), n=simplex.COLUMN_MIN_ROWS, order="C")  # a row of -0.0 sums to +0.0
@example(rows=np.full((1, 10), -0.0), n=simplex.COLUMN_MIN_ROWS, order="C")
def test_row_sum_matches_numpys_reduction_bit_for_bit(rows, n, order):
    # n rows on both sides of COLUMN_MIN_ROWS; an F-ordered block is summed by numpy's reduction, as numpy sums it
    x = np.asarray(np.tile(rows, (n // len(rows) + 1, 1))[:n], order=order)
    with np.errstate(all="ignore"):
        assert _same_bits(simplex._row_sum(x), x.sum(axis=-1))


# p and q: 1-4 rows each of 2 to 33 non-negative entries, with zeros of both signs, subnormals and 1
_PROB_ROWS = arrays(np.float64, st.tuples(st.just(2), st.integers(1, 4), st.integers(2, 33)),
                    elements=st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1.0)), st.floats(0.0, 1.0)))


@settings(max_examples=200, deadline=None)
@given(_PROB_ROWS)
def test_distances_of_a_column_form_block_match_each_rows_own_call_bit_for_bit(pq):
    # a single row is a block of one row, so its own call reduces
    for distance in (fisher_rao_distance, hellinger_distance):
        own = np.array([[distance(p, q)] for p, q in zip(*pq)])
        assert distance(*map(_tiled, pq)).tobytes() == _tiled(own)[:, 0].tobytes()


@settings(max_examples=200, deadline=None)
@given(_PROB_ROWS, st.integers(0, 32))
def test_mse_loss_and_gradient_of_a_column_form_block_match_each_rows_own_call_bit_for_bit(pq, shift):
    probs = pq[0]
    labels = (np.arange(len(probs)) + shift) % probs.shape[1]
    mse, block_labels = LossSpec("mse"), _tiled(labels[:, None])[:, 0]
    own_losses = np.array([loss_values(mse, p[None], [y]) for p, y in zip(probs, labels)])
    own_grads = np.concatenate([score_gradients(mse, p[None], [y]) for p, y in zip(probs, labels)])
    assert loss_values(mse, _tiled(probs), block_labels).tobytes() == _tiled(own_losses)[:, 0].tobytes()
    assert score_gradients(mse, _tiled(probs), block_labels).tobytes() == _tiled(own_grads).tobytes()
