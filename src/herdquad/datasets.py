"""Labeled binary-classification datasets: synthesis, ingestion and a seeded
train / validation / test split in fixed proportions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPLIT_TAGS = ("train", "validation", "test")
# the shares of every dataset that ``split_dataset`` tags validation and test
VAL_FRACTION = 0.1
TEST_FRACTION = 0.2
BLOB_SEPARATION = 2.5  # distance between the class means of ``make_blobs``
BLOB_SPREAD = 1.0  # standard deviation of each of its classes along every coordinate


class IngestError(ValueError):
    """Unreadable or malformed dataset file; the message cites the path or the offending line."""


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix, binary labels and a split tag per example.

    The constructor copies its inputs into read-only arrays and finds the
    rows of each split tag once; ``indices`` returns them read-only.
    ``summarize`` keeps the dataset's fit in ``_fit``, which is not a field,
    so ``dataclasses.replace`` starts with none.  A dataset equals and
    hashes as itself only, since its fields are arrays.
    """

    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray

    def __post_init__(self):
        X = np.array(self.features, dtype=float)
        y = np.array(self.labels)
        tags = np.array(self.split)
        if X.ndim != 2:
            raise ValueError("features must form a 2-d array")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        # checked before the cast to int, which would truncate 0.7 to 0
        if y.shape != (X.shape[0],) or not np.all(np.isin(y, (0, 1))):
            raise ValueError("labels must be one binary value per example")
        if tags.shape != (X.shape[0],) or not np.all(np.isin(tags, SPLIT_TAGS)):
            raise ValueError(f"split tags must be one of {SPLIT_TAGS} per example")
        y = y.astype(int)
        rows = {tag: np.flatnonzero(tags == tag) for tag in SPLIT_TAGS}
        for arr in (X, y, tags, *rows.values()):
            arr.flags.writeable = False
        # past the frozen setattr
        vars(self).update(features=X, labels=y, split=tags, _rows=rows, _fit=None)

    def indices(self, tag: str) -> np.ndarray:
        """The rows tagged ``tag``, ascending; a tag outside ``SPLIT_TAGS`` raises ``KeyError``."""
        return self._rows[tag]

    def subset(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        idx = self.indices(tag)
        return self.features[idx], self.labels[idx]


def split_dataset(X, y, seed: int = 0) -> LabeledDataset:
    """Shuffle and tag examples as validation (``VAL_FRACTION``, at least
    one), test (``TEST_FRACTION``) and train (the rest)."""
    n = np.shape(X)[0]
    order = np.random.default_rng(seed).permutation(n)
    n_val = max(1, int(round(VAL_FRACTION * n)))
    n_test = int(round(TEST_FRACTION * n))
    tags = np.empty(n, dtype=object)
    tags[order[:n_val]] = "validation"
    tags[order[n_val:n_val + n_test]] = "test"
    tags[order[n_val + n_test:]] = "train"
    return LabeledDataset(features=X, labels=y, split=tags.astype(str))


def make_blobs(n: int, dim: int = 2, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two overlapping Gaussian blobs labeled 0 / 1.

    The class means sit ``BLOB_SEPARATION`` apart along the all-ones
    diagonal, so the offset is spread evenly over every coordinate and each
    feature carries part of the signal.  This geometry keeps the classes
    moderately entangled so subset choice visibly moves the downstream
    model quality.
    """
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(int)
    offset = BLOB_SEPARATION / (2.0 * np.sqrt(dim))
    centers = np.stack([np.full(dim, -offset), np.full(dim, offset)])
    X = centers[y] + BLOB_SPREAD * rng.standard_normal((n, dim))
    return X, y


def synthetic_blob_dataset(n: int = 500, dim: int = 2, seed: int = 0) -> LabeledDataset:
    """``make_blobs``, split by ``split_dataset``."""
    X, y = make_blobs(n, dim=dim, seed=seed)
    return split_dataset(X, y, seed=seed)


def _map_label(token: str, lineno: int) -> int:
    try:
        v = float(token)
    except ValueError:
        raise IngestError(f"line {lineno}: label {token!r} is not numeric") from None
    if v in (0.0, 1.0):
        return int(v)
    if v == -1.0:
        return 0
    raise IngestError(f"line {lineno}: label {v} not in {{-1, 0, 1}}")


def read_utf8(path, error: type[Exception]) -> str:
    """The file's text; an unreadable file or one that is not UTF-8 raises
    ``error`` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {path}: byte 0x{exc.object[exc.start]:02x} "
                    f"at offset {exc.start} is not UTF-8") from None


def load_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Dense CSV: one header row, features in order, label in the last column."""
    lines = read_utf8(path, IngestError).splitlines()
    if not lines:
        raise IngestError("line 1: file is empty")
    n_cols = len(lines[0].split(","))
    if n_cols < 2:
        raise IngestError("line 1: need at least one feature column and a label column")
    feats, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise IngestError(f"line {lineno}: expected {n_cols} columns, got {len(parts)}")
        try:
            feats.append([float(v) for v in parts[:-1]])
        except ValueError:
            raise IngestError(f"line {lineno}: non-numeric feature value") from None
        labels.append(_map_label(parts[-1], lineno))
    if not feats:
        raise IngestError("line 2: no data rows")
    return np.asarray(feats), np.asarray(labels)


def load_libsvm(path) -> tuple[np.ndarray, np.ndarray]:
    """Sparse text rows: ``label index:value ...`` with 1-based indices."""
    rows, labels, width = [], [], 0
    for lineno, line in enumerate(read_utf8(path, IngestError).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        labels.append(_map_label(tokens[0], lineno))
        entries = {}
        for tok in tokens[1:]:
            if ":" not in tok:
                raise IngestError(f"line {lineno}: malformed entry {tok!r} (expected index:value)")
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise IngestError(f"line {lineno}: malformed entry {tok!r}") from None
            if idx < 1:
                raise IngestError(f"line {lineno}: indices are 1-based, got {idx}")
            entries[idx] = val
            width = max(width, idx)
        rows.append(entries)
    if not rows:
        raise IngestError("line 1: no data rows")
    X = np.zeros((len(rows), width))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            X[i, idx - 1] = val
    return X, np.asarray(labels)


def load_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch on extension: ``.csv`` is dense, everything else is libsvm text."""
    loader = load_csv if str(path).lower().endswith(".csv") else load_libsvm
    return loader(path)
