import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcl.data import Dataset, load_idx_archive, make_permuted_stream, make_synthetic
from dpcl.errors import ConfigError, ParseError

from _oracles import (
    gathered,
    make_synthetic_reference,
    nearest_centroid_accuracy,
    write_idx_archive,
)


def test_loader_hand_built_fixture(tmp_path):
    pixels = np.array([[[0, 255], [128, 64]],
                       [[255, 0], [0, 255]]], dtype=np.uint8)
    labels = np.array([3, 7], dtype=np.uint8)
    write_idx_archive(tmp_path / "img", tmp_path / "lbl", pixels, labels)
    ds = load_idx_archive(tmp_path / "img", tmp_path / "lbl")
    assert len(ds) == 2 and ds.feature_dim == 4
    assert np.allclose(ds.x[0], [0.0, 1.0, 128 / 255, 64 / 255])
    assert ds.y.tolist() == [3, 7]
    assert ds.num_classes == 8


def test_loader_scales_bitwise_like_one_division(tmp_path):
    """The in-place scaling gives the bits of pixels.astype(float64) / 255."""
    pixels = np.arange(256 * 3, dtype=np.uint8).reshape(12, 8, 8)  # every value, thrice
    write_idx_archive(tmp_path / "img", tmp_path / "lbl", pixels, np.arange(12) % 4)
    ds = load_idx_archive(tmp_path / "img", tmp_path / "lbl")
    expected = pixels.reshape(12, 64).astype(np.float64) / 255.0
    assert ds.x.dtype == np.float64
    assert np.array_equal(ds.x.view(np.uint64), expected.view(np.uint64))


def test_loader_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(5, 3, 3), dtype=np.uint8)
    labels = rng.integers(0, 4, size=5, dtype=np.uint8)
    write_idx_archive(tmp_path / "img", tmp_path / "lbl", pixels, labels)
    ds = load_idx_archive(tmp_path / "img", tmp_path / "lbl")
    assert np.array_equal(ds.x * 255, pixels.reshape(5, 9).astype(float))
    assert np.array_equal(ds.y, labels)


def test_loader_rejects_swapped_magics(tmp_path):
    pixels = np.zeros((1, 2, 2), dtype=np.uint8)
    labels = np.zeros(1, dtype=np.uint8)
    write_idx_archive(tmp_path / "img", tmp_path / "lbl", pixels, labels)
    with pytest.raises(ParseError, match="magic"):
        load_idx_archive(tmp_path / "lbl", tmp_path / "img")


def test_loader_rejects_truncation_and_count_mismatch(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    write_idx_archive(tmp_path / "img", tmp_path / "lbl", pixels, labels)
    data = (tmp_path / "img").read_bytes()
    (tmp_path / "img_trunc").write_bytes(data[:-3])
    with pytest.raises(ParseError, match="offset"):
        load_idx_archive(tmp_path / "img_trunc", tmp_path / "lbl")
    write_idx_archive(tmp_path / "img3", tmp_path / "lbl3",
                      np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    with pytest.raises(ParseError, match="count"):
        load_idx_archive(tmp_path / "img3", tmp_path / "lbl")


def test_loader_zero_image_archive(tmp_path):
    write_idx_archive(tmp_path / "img", tmp_path / "lbl",
                      np.zeros((0, 2, 2), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
    ds = load_idx_archive(tmp_path / "img", tmp_path / "lbl")
    assert len(ds) == 0


@pytest.mark.parametrize("shape", [(300, 0, 0), (3, 0, 2), (3, 2, 0)])
def test_loader_rejects_zero_pixel_images(tmp_path, shape):
    """An image of rows x cols = 0 pixels gives a net no inputs, so the
    parser refuses it, naming the header offsets of rows and cols."""
    write_idx_archive(tmp_path / "img", tmp_path / "lbl",
                      np.zeros(shape, dtype=np.uint8), np.arange(shape[0]) % 3)
    with pytest.raises(ParseError, match="offsets 8 and 12"):
        load_idx_archive(tmp_path / "img", tmp_path / "lbl")


def test_stream_single_task_identity_permutation():
    base = make_synthetic(6, 3, 10, 0.6, seed=1)
    stream = make_permuted_stream(base, 1, seed=1, ref_fraction=0.2)
    assert stream.num_tasks == 1
    assert np.array_equal(stream.tasks[0][0].perm, np.arange(6))


def test_permutation_round_trip():
    base = make_synthetic(6, 3, 10, 0.6, seed=2)
    stream = make_permuted_stream(base, 3, seed=2, ref_fraction=0.2)
    _, _, test = stream.tasks[2]
    identity_test = stream.tasks[0][2]
    assert np.array_equal(gathered(test).x[:, np.argsort(test.perm)], gathered(identity_test).x)


@given(seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_permutation_bijective(seed):
    base = make_synthetic(16, 3, 4, 0.6, seed=0)
    stream = make_permuted_stream(base, 3, seed=seed, ref_fraction=0.2)
    for train, _, _ in stream.tasks:
        assert sorted(train.perm.tolist()) == list(range(16))


def test_different_seeds_different_permutations():
    base = make_synthetic(16, 3, 4, 0.6, seed=0)
    a = make_permuted_stream(base, 2, seed=1, ref_fraction=0.2)
    b = make_permuted_stream(base, 2, seed=2, ref_fraction=0.2)
    assert not np.array_equal(a.tasks[1][0].perm, b.tasks[1][0].perm)


def test_train_ref_disjoint():
    base = make_synthetic(6, 3, 20, 0.6, seed=3)
    stream = make_permuted_stream(base, 2, seed=3, ref_fraction=0.25)
    for train, ref, _ in stream.tasks:
        train_rows = {tuple(row) for row in gathered(train).x}
        ref_rows = {tuple(row) for row in gathered(ref).x}
        assert not train_rows & ref_rows
        assert len(ref) == round(0.25 * (len(train) + len(ref)))


def test_stream_rejects_bad_ref_fraction():
    base = make_synthetic(6, 3, 5, 0.6, seed=0)
    with pytest.raises(ConfigError):
        make_permuted_stream(base, 2, seed=0, ref_fraction=1.5)


def test_stream_rejects_empty_test_split():
    base = make_synthetic(6, 3, 5, 0.6, seed=0)
    with pytest.raises(ConfigError):  # carved: round(0.02 * 15) == 0
        make_permuted_stream(base, 2, seed=0, test_fraction=0.02)
    with pytest.raises(ConfigError):  # given
        make_permuted_stream(base, 2, seed=0, test=gathered(base, []))


@pytest.mark.parametrize("test_dim", [4, 9])
def test_stream_rejects_test_set_of_another_feature_size(test_dim):
    base = make_synthetic(6, 3, 5, 0.6, seed=0)
    test = make_synthetic(test_dim, 3, 2, 0.6, seed=1)
    with pytest.raises(ConfigError, match="features"):
        make_permuted_stream(base, 2, seed=0, test=test)


@pytest.mark.parametrize("given_test", [False, True])
def test_stream_rejects_examples_without_features(given_test):
    """Examples of 0 features give a net no inputs, so the stream is refused
    before any net is built, naming the feature dimension."""
    base = Dataset(np.zeros((50, 0)), np.arange(50) % 3, 3)
    test = Dataset(np.zeros((10, 0)), np.arange(10) % 3, 3) if given_test else None
    with pytest.raises(ConfigError, match="0 features; the feature dimension must be >= 1"):
        make_permuted_stream(base, 2, seed=0, test=test)


def test_synthetic_nearest_centroid_is_exact():
    ds = make_synthetic(10, 4, 50, 0.6, seed=5)
    assert nearest_centroid_accuracy(ds) == 1.0


def test_synthetic_empty():
    ds = make_synthetic(6, 3, 0, 0.6, seed=0)
    assert len(ds) == 0


def test_synthetic_deterministic():
    a = make_synthetic(6, 3, 10, 0.6, seed=9)
    b = make_synthetic(6, 3, 10, 0.6, seed=9)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


@pytest.mark.parametrize("d,classes,n_per_class,margin,seed", [
    (6, 3, 10, 0.6, 9), (10, 4, 50, 0.6, 5), (7, 3, 5, 0.8, 1), (16, 1, 7, 2.0, 3),
    (5, 5, 1, 12.0, 4), (6, 3, 0, 0.6, 0)])  # 3 classes do not divide 7 features
def test_synthetic_is_bitwise_the_reference_generator(d, classes, n_per_class, margin, seed):
    ds = make_synthetic(d, classes, n_per_class, margin, seed)
    x, y = make_synthetic_reference(d, classes, n_per_class, margin, seed)
    assert ds.x.shape == x.shape and ds.y.dtype == y.dtype
    for got, expected in ((ds.x, x), (ds.y, y)):
        assert hashlib.sha256(got.tobytes()).digest() == hashlib.sha256(expected.tobytes()).digest()


def test_synthetic_peak_is_about_twice_its_result():
    """The examples are drawn into one array; only the shuffle copies it."""
    tracemalloc.start()
    try:
        ds = make_synthetic(784, 10, 300, 0.8, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * (ds.x.nbytes + ds.y.nbytes)


def test_synthetic_balanced_labels_in_range():
    ds = make_synthetic(8, 4, 25, 0.6, seed=4)
    counts = np.bincount(ds.y, minlength=4)
    assert counts.tolist() == [25] * 4
    assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0


def view_streams():
    """Two streams of views: a carved-off test split, and a given test set."""
    base = make_synthetic(12, 3, 10, 0.6, seed=6)
    given = make_synthetic(12, 3, 4, 0.6, seed=7)
    return [(base, base, make_permuted_stream(base, 3, seed=6, ref_fraction=0.25)),
            (base, given, make_permuted_stream(base, 3, seed=6, ref_fraction=0.25, test=given))]


@pytest.mark.parametrize("case", [0, 1], ids=["carved_test", "given_test"])
def test_split_gathers_are_c_ordered_permuted_rows(case):
    base, given, stream = view_streams()[case]
    for train, ref, test in stream.tasks:
        perm = train.perm
        for split in (train, ref, test):
            rows = split.rows
            assert split.perm is perm and split.feature_dim == len(perm)
            assert len(split) == len(rows)
            idx = np.array([len(split) - 1, 0, 1, 0])
            x_out, y_out = np.full((len(idx), len(perm)), np.nan), np.zeros(len(idx), int)
            split.gather(idx, x_out, y_out)
            assert np.array_equal(x_out, split.src.x[rows][idx][:, perm])
            assert np.array_equal(y_out, split.src.y[rows][idx])
            whole = gathered(split)
            assert np.array_equal(whole.x, split.src.x[rows][:, perm])
            assert np.array_equal(whole.y, split.src.y[rows])


@pytest.mark.parametrize("case", [0, 1], ids=["carved_test", "given_test"])
def test_splits_share_the_callers_arrays(case):
    base, given, stream = view_streams()[case]
    for train, ref, test in stream.tasks:
        assert np.shares_memory(train.src.x, base.x) and np.shares_memory(ref.src.x, base.x)
        assert np.shares_memory(test.src.x, given.x)


def test_given_test_splits_share_one_row_array():
    """A given test set is read through np.arange(len(test)), made once and
    shared by every task's test split."""
    _, given, stream = view_streams()[1]
    rows = stream.tasks[0][2].rows
    assert np.array_equal(rows, np.arange(len(given)))
    assert all(test.rows is rows for _, _, test in stream.tasks)


def test_seventeen_task_stream_copies_no_examples():
    base = make_synthetic(784, 10, 200, 0.8, seed=0)
    tracemalloc.start()
    try:
        stream = make_permuted_stream(base, 17, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream.num_tasks == 17
    assert peak < base.x.nbytes / 4


def test_empty_subset_of_a_split():
    _, _, stream = view_streams()[0]
    empty = gathered(stream.tasks[1][1], [])
    assert len(empty) == 0 and empty.x.shape == (0, 12)
