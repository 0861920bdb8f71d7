import math
import os
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fisherrao.data import (
    DataFormatError,
    LabeledDataset,
    SyntheticSpec,
    _class_vertices,
    generate_synthetic,
    load_csv,
    load_mnist,
    save_csv,
    write_rows,
)
from fisherrao.rng import STREAM_TEST, STREAM_TRAIN, make_rng

# ------------------------------------------------------------ LabeledDataset


def test_dataset_validation_and_immutability():
    ds = LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 1]), 2)
    assert len(ds) == 3 and ds.num_features == 2
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((0, 2)), np.array([], dtype=np.int64), 2)
    with pytest.raises(ValueError, match=r"nonempty \(N, m\) matrix, got shape \(3, 0\)"):
        LabeledDataset(np.zeros((3, 0)), np.array([0, 1, 0]), 2)  # save_csv would write a file load_csv rejects
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 2]), 2)
    for bad in (np.nan, np.inf, -np.inf):
        feats = np.zeros((2, 2))
        feats[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            LabeledDataset(feats, np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), 1)
    with pytest.raises(ValueError, match=r"labels shape \(3,\) does not match 2 samples"):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 1, 0]), 2)


def test_dataset_leaves_callers_arrays_writeable():
    feats, labels = np.zeros((3, 2)), np.array([0, 1, 0])
    ds = LabeledDataset(feats, labels, 2)
    assert feats.flags.writeable and labels.flags.writeable
    assert not ds.features.flags.writeable and not ds.labels.flags.writeable
    feats[0, 0] = 1.0  # the caller's array stays theirs to change
    # a frozen array is kept as is, so relabeled sets share one feature matrix
    assert ds.with_labels([1, 1, 0]).features is ds.features


def test_with_labels_and_take():
    ds = LabeledDataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), 2)
    relabeled = ds.with_labels([1, 1, 1, 1])
    npt.assert_array_equal(relabeled.labels, 1)
    npt.assert_array_equal(relabeled.features, ds.features)
    head = ds.take(2)
    assert len(head) == 2
    npt.assert_array_equal(head.features, ds.features[:2])
    with pytest.raises(ValueError):
        ds.take(5)


# ---------------------------------------------------------------- synthetic


def test_synthetic_spec_validation():
    SyntheticSpec(10, 10, 3, 8)  # 8 = 2^3 vertices, exactly enough
    with pytest.raises(ValueError):
        SyntheticSpec(10, 10, 3, 9)  # more classes than vertices
    with pytest.raises(ValueError):
        SyntheticSpec(0, 10, 3, 2)
    with pytest.raises(ValueError):
        SyntheticSpec(10, 10, 3, 2, class_sep=0.0)


def test_synthetic_shapes_and_coverage():
    train, test = generate_synthetic(SyntheticSpec(1000, 200, 100, 10, 1.0, seed=7))
    assert train.features.shape == (1000, 100)
    assert test.features.shape == (200, 100)
    assert set(np.unique(train.labels)) == set(range(10))


def test_synthetic_deterministic():
    spec = SyntheticSpec(200, 100, 30, 5, 1.0, seed=3)
    a_train, a_test = generate_synthetic(spec)
    b_train, b_test = generate_synthetic(spec)
    npt.assert_array_equal(a_train.features, b_train.features)
    npt.assert_array_equal(a_train.labels, b_train.labels)
    npt.assert_array_equal(a_test.features, b_test.features)


def test_synthetic_train_independent_of_test_size():
    a_train, _ = generate_synthetic(SyntheticSpec(300, 50, 20, 4, 1.0, seed=9))
    b_train, _ = generate_synthetic(SyntheticSpec(300, 5000, 20, 4, 1.0, seed=9))
    npt.assert_array_equal(a_train.features, b_train.features)
    npt.assert_array_equal(a_train.labels, b_train.labels)


def test_synthetic_class_frequencies():
    n = 100_000
    train, _ = generate_synthetic(SyntheticSpec(n, 10, 25, 10, 1.0, seed=1))
    sigma = np.sqrt(0.1 * 0.9 / n)
    for c in range(10):
        assert abs(np.mean(train.labels == c) - 0.1) <= 3 * sigma


def test_synthetic_centers_are_hypercube_vertices():
    sep = 2.5
    train, _ = generate_synthetic(SyntheticSpec(5000, 10, 8, 4, sep, seed=11))
    centers = np.stack([train.features[train.labels == c].mean(axis=0) for c in range(4)])
    # empirical means sit near +/- sep corners (sampling noise ~ 1/sqrt(n))
    snapped = np.where(centers > 0, sep, -sep)
    assert np.max(np.abs(centers - snapped)) < 0.15
    assert len({tuple(row) for row in snapped}) == 4  # distinct vertices


def test_synthetic_highdim_vertices_distinct():
    train, _ = generate_synthetic(SyntheticSpec(4000, 10, 100, 10, 1.0, seed=5))
    centers = np.stack([train.features[train.labels == c].mean(axis=0) for c in range(10)])
    snapped = np.where(centers > 0, 1.0, -1.0)
    assert len({tuple(row) for row in snapped}) == 10


def _traced_peak(fn, *args):
    """(fn(*args), peak bytes that tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dataset_validation_allocates_no_feature_sized_mask():
    feats = make_rng(0, STREAM_TRAIN).standard_normal((4800, 784))
    _, peak = _traced_peak(LabeledDataset, feats, np.zeros(4800, dtype=np.int64), 10)
    assert peak < feats.nbytes / 64  # an isfinite mask would be feats.nbytes / 8


def _reference_synthetic(spec):
    """The generator's law written out: vertices[labels] + noise, per (train, test) stream."""
    vertices = _class_vertices(spec)
    sets = []
    for n, stream in ((spec.n_train, STREAM_TRAIN), (spec.n_test, STREAM_TEST)):
        rng = make_rng(spec.seed, stream)
        labels = rng.integers(0, spec.num_classes, size=n, dtype=np.int64)
        sets.append((vertices[labels] + rng.standard_normal((n, spec.num_features)), labels))
    return sets


# row counts that are not multiples of the generator's row block; m <= 20 and
# m > 20 take the two vertex samplers
@pytest.mark.parametrize("spec", [SyntheticSpec(1000, 257, 12, 5, 0.7, seed=2),
                                  SyntheticSpec(300, 513, 40, 10, 1.3, seed=4)])
def test_synthetic_matches_reference_bit_for_bit(spec):
    for ds, (features, labels) in zip(generate_synthetic(spec), _reference_synthetic(spec)):
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()


def test_synthetic_holds_one_feature_matrix_per_set():
    (train, test), peak = _traced_peak(generate_synthetic, SyntheticSpec(2400, 500, 784, 10, seed=0))
    # a vertices[labels] array next to the noise draw would add another 15 MB
    assert peak < train.features.nbytes + test.features.nbytes + 4 * 2**20


def test_synthetic_noise_is_unit_variance():
    train, _ = generate_synthetic(SyntheticSpec(50_000, 10, 6, 2, 1.0, seed=13))
    centers = np.stack([train.features[train.labels == c].mean(axis=0) for c in range(2)])
    residual = train.features - centers[train.labels]
    assert abs(residual.std() - 1.0) < 0.02


# --------------------------------------------------------------------- IDX


def _idx_header(magic, *dims):
    return b"".join(v.to_bytes(4, "big") for v in (magic, *dims))


def _write_idx_images(path, arrays):
    n, rows, cols = len(arrays), len(arrays[0]), len(arrays[0][0])
    path.write_bytes(_idx_header(0x00000803, n, rows, cols) + b"".join(bytes(row) for img in arrays for row in img))


def _write_idx_labels(path, labels):
    path.write_bytes(_idx_header(0x00000801, len(labels)) + bytes(labels))


def _independent_first_label(path):
    """Deliberately separate one-off reader used to cross-check load_mnist."""
    raw = path.read_bytes()
    assert int.from_bytes(raw[0:4], "big") == 2049
    return raw[8]


@pytest.fixture
def idx_pair(tmp_path):
    images = [[[0, 128], [255, 3]], [[1, 2], [3, 4]], [[10, 20], [30, 40]]]
    labels = [7, 0, 9]
    img_path = tmp_path / "imgs.idx3-ubyte"
    lab_path = tmp_path / "labs.idx1-ubyte"
    _write_idx_images(img_path, images)
    _write_idx_labels(lab_path, labels)
    return img_path, lab_path


def test_load_idx_pair(idx_pair):
    img_path, lab_path = idx_pair
    ds = load_mnist(img_path, lab_path)
    assert ds.features.shape == (3, 4)
    assert ds.num_classes == 10
    npt.assert_allclose(ds.features[0], [0.0, 128 / 255, 1.0, 3 / 255], rtol=0, atol=1e-15)
    pixels = np.array([[0, 128, 255, 3], [1, 2, 3, 4], [10, 20, 30, 40]], dtype=np.uint8)
    assert ds.features.tobytes() == (pixels.astype(np.float64) / 255.0).tobytes()
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    npt.assert_array_equal(ds.labels, [7, 0, 9])
    assert ds.labels[0] == _independent_first_label(lab_path)


def test_load_idx_scales_in_place(tmp_path):
    pixels = np.random.default_rng(0).integers(0, 256, size=(500, 28, 28), dtype=np.uint8)
    img_path, lab_path = tmp_path / "imgs.idx3-ubyte", tmp_path / "labs.idx1-ubyte"
    img_path.write_bytes(_idx_header(0x00000803, *pixels.shape) + pixels.tobytes())
    _write_idx_labels(lab_path, [i % 10 for i in range(500)])
    ds, peak = _traced_peak(load_mnist, img_path, lab_path)
    assert ds.features.tobytes() == (pixels.reshape(500, -1).astype(np.float64) / 255.0).tobytes()
    assert peak < 1.5 * ds.features.nbytes  # a second float64 copy of the features would pass 2x


def test_load_idx_swapped_files_rejected(idx_pair):
    img_path, lab_path = idx_pair
    with pytest.raises(DataFormatError) as exc:
        load_mnist(lab_path, img_path)
    assert exc.value.offset == 0
    assert "magic" in str(exc.value)


def test_load_idx_truncated(idx_pair, tmp_path):
    img_path, lab_path = idx_pair
    raw = img_path.read_bytes()
    clipped = tmp_path / "clipped.idx3-ubyte"
    clipped.write_bytes(raw[:-5])
    with pytest.raises(DataFormatError) as exc:
        load_mnist(clipped, lab_path)
    assert exc.value.offset is not None
    assert "truncated" in str(exc.value)


def test_load_idx_count_mismatch(idx_pair, tmp_path):
    img_path, _ = idx_pair
    short = tmp_path / "short.idx1-ubyte"
    _write_idx_labels(short, [1, 2])
    with pytest.raises(DataFormatError) as exc:
        load_mnist(img_path, short)
    assert "does not match" in str(exc.value)


def test_load_idx_trailing_garbage(idx_pair, tmp_path):
    img_path, lab_path = idx_pair
    padded = tmp_path / "padded.idx1-ubyte"
    padded.write_bytes(lab_path.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError):
        load_mnist(img_path, padded)


def test_load_idx_label_out_of_range_is_data_error(idx_pair, tmp_path):
    img_path, _ = idx_pair
    bad = tmp_path / "bad.idx1-ubyte"
    _write_idx_labels(bad, [7, 10, 9])  # 10 is not a class of K = 10
    with pytest.raises(DataFormatError, match="out of range") as exc:
        load_mnist(img_path, bad)
    assert exc.value.path == bad


def test_load_idx_zero_dimension_is_data_error_of_the_image_file(idx_pair, tmp_path):
    _, lab_path = idx_pair  # 3 labels, as many as the images claim
    empty = tmp_path / "empty.idx3-ubyte"
    empty.write_bytes(_idx_header(0x00000803, 3, 0, 5))
    with pytest.raises(DataFormatError, match="dimension 1 is 0") as exc:
        load_mnist(empty, lab_path)
    assert (exc.value.path, exc.value.offset) == (empty, 8)


_IDX_SIZES = st.sampled_from((0, 1, 2, 3, 2**31, 2**32 - 1))


@st.composite
def _image_dims_and_payload_length(draw):
    """3 image dimensions and a payload length of at most 64: within a byte of their product when that fits."""
    dims = draw(st.tuples(_IDX_SIZES, _IDX_SIZES, _IDX_SIZES))
    size = math.prod(dims)
    return dims, draw(st.sampled_from(sorted({max(size - 1, 0), size, size + 1})) if size <= 64 else st.integers(0, 64))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(image=_image_dims_and_payload_length())
@example(image=((4, 2**31, 2**31), 0))  # 2**64 bytes: a product in int64 wraps to 0, which the header alone matches
def test_idx_image_file_loads_to_its_shape_or_is_a_data_error_of_its_own(tmp_path, image):
    dims, length = image
    img_path, lab_path = tmp_path / "imgs.idx3-ubyte", tmp_path / "labs.idx1-ubyte"
    pixels = bytes(range(length))  # never a drawn size: at most 64 bytes and 64 labels
    img_path.write_bytes(_idx_header(0x00000803, *dims) + pixels)
    _write_idx_labels(lab_path, [i % 10 for i in range(min(dims[0], 64))])
    try:
        ds = load_mnist(img_path, lab_path)
    except DataFormatError as exc:
        assert exc.path == img_path and 0 <= exc.offset <= 16 + length
    else:
        assert ds.features.shape == (dims[0], dims[1] * dims[2])
        assert ds.features.tobytes() == (np.frombuffer(pixels, dtype=np.uint8) / 255.0).tobytes()


# --------------------------------------------------------------------- CSV


def test_csv_round_trip(tmp_path):
    train, _ = generate_synthetic(SyntheticSpec(50, 10, 7, 3, 1.0, seed=21))
    path = tmp_path / "train.csv"
    save_csv(train, path)
    back = load_csv(path)
    npt.assert_array_equal(back.features, train.features)  # repr round-trips exactly
    npt.assert_array_equal(back.labels, train.labels)
    assert back.num_classes == train.num_classes
    header = path.read_text().splitlines()[0]
    assert header == ",".join([f"f{j}" for j in range(7)] + ["label"])


def test_write_rows_that_raises_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, ("a",), [(1,)])
    with pytest.raises(UnicodeEncodeError):
        write_rows(path, ("a",), [(2,), ("\u00e9",)])  # not ascii, on the second row
    assert path.read_bytes() == b"a\n1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]  # no temp file left
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask  # a plain open's mode, not mkstemp's 0o600


def test_csv_num_classes_override(tmp_path):
    ds = LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), 5)
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    assert load_csv(path).num_classes == 2  # inferred from labels
    assert load_csv(path, num_classes=5).num_classes == 5
    save_csv(LabeledDataset(np.zeros((2, 2)), np.array([0, 0]), 2), path)
    with pytest.raises(DataFormatError, match="line 1: num_classes must be >= 2") as exc:
        load_csv(path, num_classes=1)  # every label fits, but one class is too few
    assert exc.value.line == 1


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_csv_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("f0,f1,label\n")
    with pytest.raises(DataFormatError) as exc:
        load_csv(path)
    assert "no data rows" in str(exc.value)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,label\n0.0,0.0,0\n")
    with pytest.raises(DataFormatError) as exc:
        load_csv(path)
    assert exc.value.line == 1


def test_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "mal.csv"
    path.write_text("f0,f1,label\n0.0,1.0,0\n0.5,oops,1\n")
    with pytest.raises(DataFormatError) as exc:
        load_csv(path)
    assert exc.value.line == 3
    path.write_text("f0,f1,label\n0.0,1.0\n")
    with pytest.raises(DataFormatError) as exc:
        load_csv(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("text, num_classes, message, line", [
    ("0.0,1.0,0\n0.1,nan,1\n0.2,inf,1\n", None, "features must be finite", 3),
    ("0.0,1.0,0\n0.1,0.2,1\n0.3,0.4,1\n0.5,0.6,5\n1.0,1.0,7\n", 2, "labels out of range [0, 2)", 5),
    ("0.0,1.0,0\n0.1,0.2,-1\n0.3,0.4,-2\n", None, "negative label", 3),
])
def test_csv_bad_row_reports_its_own_line(tmp_path, text, num_classes, message, line):
    path = tmp_path / "rows.csv"
    path.write_text("f0,f1,label\n" + text)
    with pytest.raises(DataFormatError) as exc:
        load_csv(path, num_classes)
    assert exc.value.line == line and str(exc.value) == f"{path}: line {line}: {message}"
