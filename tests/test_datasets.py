from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from herdquad.datasets import (
    SPLIT_TAGS,
    IngestError,
    LabeledDataset,
    load_csv,
    load_dataset,
    load_libsvm,
    make_blobs,
    split_dataset,
    synthetic_blob_dataset,
)


def test_split_dataset_partitions_everything():
    X = np.arange(40, dtype=float).reshape(20, 2)
    y = np.tile([0, 1], 10)
    ds = split_dataset(X, y, seed=3)
    counts = Counter(ds.split)
    assert counts == {"train": 14, "validation": 2, "test": 4}
    assert sum(counts.values()) == 20
    train_X, train_y = ds.subset("train")
    assert train_X.shape == (14, 2)
    assert set(train_y) <= {0, 1}
    # rows keep their features attached to their labels
    for tag in ("train", "validation", "test"):
        Xs, ys = ds.subset(tag)
        np.testing.assert_array_equal(Xs[:, 0] % 2, 0)
        np.testing.assert_array_equal((Xs[:, 0] / 2) % 2, ys)


def test_split_dataset_is_seeded():
    X = np.random.default_rng(0).normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(int)
    a = split_dataset(X, y, seed=7)
    b = split_dataset(X, y, seed=7)
    np.testing.assert_array_equal(a.split, b.split)
    c = split_dataset(X, y, seed=8)
    assert not np.array_equal(a.split, c.split)


def test_labeled_dataset_validation():
    X = np.zeros((4, 2))
    y = np.array([0, 1, 0, 1])
    tags = np.array(["train", "train", "validation", "test"])
    LabeledDataset(features=X, labels=y, split=tags)
    with pytest.raises(ValueError):
        LabeledDataset(features=X, labels=np.array([0, 1, 2, 1]), split=tags)
    with pytest.raises(ValueError):
        LabeledDataset(features=X, labels=y, split=np.array(["train"] * 3 + ["dev"]))
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        LabeledDataset(features=bad, labels=y, split=tags)


@pytest.mark.parametrize("bad_label", [0.7, np.nan])
def test_labels_that_are_not_exactly_binary_raise(bad_label):
    X = np.zeros((3, 2))
    tags = np.array(["train", "validation", "test"])
    with pytest.raises(ValueError, match="labels must be one binary value per example"):
        LabeledDataset(features=X, labels=[bad_label, 1.0, 0.0], split=tags)
    ds = LabeledDataset(features=X, labels=[True, False, True], split=tags)
    np.testing.assert_array_equal(ds.labels, [1, 0, 1])
    assert ds.labels.dtype.kind == "i"


def test_labeled_dataset_owns_read_only_copies():
    X = np.zeros((4, 2))
    y = np.array([0, 1, 0, 1])
    tags = np.array(["train", "train", "validation", "test"])
    ds = LabeledDataset(features=X, labels=y, split=tags)
    for mine, theirs in ((ds.features, X), (ds.labels, y), (ds.split, tags)):
        assert not np.shares_memory(mine, theirs)
        with pytest.raises(ValueError, match="read-only"):
            mine[0] = mine[1]
    X[0, 0] = 5.0
    assert ds.features[0, 0] == 0.0


def test_split_rows_are_found_once_and_cannot_be_written():
    ds = synthetic_blob_dataset(n=120, dim=3, seed=4)
    for tag in SPLIT_TAGS:
        rows = ds.indices(tag)
        np.testing.assert_array_equal(rows, np.flatnonzero(ds.split == tag))
        assert ds.indices(tag) is rows
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = rows[-1]
        X, y = ds.subset(tag)
        np.testing.assert_array_equal(X, ds.features[rows])
        np.testing.assert_array_equal(y, ds.labels[rows])
    with pytest.raises(KeyError):
        ds.indices("holdout")


def test_a_dataset_equals_and_hashes_as_itself_only():
    ds = synthetic_blob_dataset(n=40, dim=2, seed=1)
    twin = replace(ds)
    assert ds == ds and ds != twin and not ds != ds
    assert {ds: "ds", twin: "twin"}[ds] == "ds"


def test_make_blobs_geometry():
    X, y = make_blobs(4000, dim=16, seed=5)
    assert X.shape == (4000, 16)
    assert set(np.unique(y)) == {0, 1}
    mean_gap = X[y == 1].mean(axis=0) - X[y == 0].mean(axis=0)
    # the class means sit 2.5 apart along the all-ones diagonal
    assert np.linalg.norm(mean_gap) == pytest.approx(2.5, abs=0.1)
    assert mean_gap.std() < 0.1  # every coordinate carries an equal share
    X2, y2 = make_blobs(4000, dim=16, seed=5)
    np.testing.assert_array_equal(X, X2)
    np.testing.assert_array_equal(y, y2)


def test_synthetic_blob_dataset_defaults():
    ds = synthetic_blob_dataset(n=500, dim=8, seed=0)
    assert ds.features.shape == (500, 8)
    counts = Counter(ds.split)
    assert counts["validation"] == 50
    assert counts["test"] == 100
    assert counts["train"] == 350


def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,label\n1.5,-2.0,1\n0.25,3.0,0\n-1.0,0.5,-1\n")
    X, y = load_csv(path)
    np.testing.assert_array_equal(X, [[1.5, -2.0], [0.25, 3.0], [-1.0, 0.5]])
    np.testing.assert_array_equal(y, [1, 0, 0])  # -1 maps to 0
    X2, y2 = load_dataset(path)
    np.testing.assert_array_equal(X, X2)
    np.testing.assert_array_equal(y, y2)


def test_csv_errors_cite_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1.0,2.0,1\n3.0,oops,0\n")
    with pytest.raises(IngestError, match="line 3"):
        load_csv(path)
    path.write_text("a,b,label\n1.0,2.0\n")
    with pytest.raises(IngestError, match="line 2"):
        load_csv(path)
    path.write_text("a,b,label\n1.0,2.0,7\n")
    with pytest.raises(IngestError, match="line 2"):
        load_csv(path)
    path.write_text("")
    with pytest.raises(IngestError, match="line 1"):
        load_csv(path)
    path.write_text("a,b,label\n")
    with pytest.raises(IngestError, match="line 2"):
        load_csv(path)


def test_csv_that_is_not_utf8_is_an_ingest_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b,label\n1.0,2.0\xff,1\n")
    with pytest.raises(IngestError, match=f"cannot read {path}: byte 0xff"):
        load_csv(path)


def test_libsvm_round_trip(tmp_path):
    path = tmp_path / "data.libsvm"
    path.write_text("+1 1:0.5 3:2.0\n-1 2:-1.5\n0 1:1.0 2:1.0 3:1.0\n")
    X, y = load_libsvm(path)
    np.testing.assert_array_equal(
        X, [[0.5, 0.0, 2.0], [0.0, -1.5, 0.0], [1.0, 1.0, 1.0]])
    np.testing.assert_array_equal(y, [1, 0, 0])
    X2, y2 = load_dataset(path)
    np.testing.assert_array_equal(X, X2)


def test_libsvm_errors_cite_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1:0.5\n1 nonsense\n")
    with pytest.raises(IngestError, match="line 2"):
        load_libsvm(path)
    path.write_text("1 0:0.5\n")
    with pytest.raises(IngestError, match="1-based"):
        load_libsvm(path)
    path.write_text("2 1:0.5\n")
    with pytest.raises(IngestError, match="label"):
        load_libsvm(path)
    path.write_text("\n\n")
    with pytest.raises(IngestError, match="no data rows"):
        load_libsvm(path)


def test_libsvm_that_is_not_utf8_is_an_ingest_error(tmp_path):
    path = tmp_path / "latin1.libsvm"
    path.write_bytes(b"1 1:0.5\n0 2:\xff\n")
    with pytest.raises(IngestError, match=f"cannot read {path}: byte 0xff"):
        load_libsvm(path)
