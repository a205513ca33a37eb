"""Datasets, binary archive ingestion, and permuted-pixel task streams.

A stream copies no examples: each task split is a TaskSplit, the split's row
indices into the caller's Dataset and the task's feature permutation, which
gathers only the rows it is asked for when it is read. The caller must
therefore not modify the base or test Dataset of a stream afterwards.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError

IMAGE_MAGIC = 0x00000803  # 2051
LABEL_MAGIC = 0x00000801  # 2049


@dataclass
class Dataset:
    """A batch of samples stored as dense arrays.

    x has shape (n, d), y has shape (n,) with integer labels in [0, num_classes).
    """

    x: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.ndim != 1 or len(self.x) != len(self.y):
            raise ConfigError("dataset arrays must be (n, d) and (n,) with equal n")
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ConfigError("labels out of range for num_classes")

    def __len__(self):
        return len(self.y)

    @property
    def feature_dim(self):
        return self.x.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.x[idx], self.y[idx], self.num_classes)

    def gather(self, idx, x_out, y_out):
        """Write the rows idx into x_out and their labels into y_out."""
        np.take(self.x, idx, axis=0, out=x_out)
        np.take(self.y, idx, out=y_out)


class TaskSplit:
    """The rows `rows` of src (all of them when None), their features in the
    order perm. Reading x gathers the whole split and subset the rows asked
    for, each into a new C-ordered array; gather writes the rows asked for
    into the caller's arrays. Nothing is cached."""

    def __init__(self, src: Dataset, rows, perm):
        self.src, self.rows, self.perm = src, rows, perm

    def __len__(self):
        return len(self.src) if self.rows is None else len(self.rows)

    @property
    def num_classes(self):
        return self.src.num_classes

    @property
    def feature_dim(self):
        return len(self.perm)

    @property
    def y(self):
        return self.src.y if self.rows is None else self.src.y[self.rows]

    @property
    def x(self):
        return self._features(self.rows)

    def _features(self, rows, out=None):
        x = self.src.x if rows is None else self.src.x[rows]
        # take keeps C order, which x[:, perm] would not; the einsums of
        # nn._example_sq_norms sum an F-ordered batch in another order. perm
        # is a permutation, so "clip" never clips; it lets take write
        # straight into out, where "raise" fills a temporary copy first.
        return np.take(x, self.perm, axis=1, out=out, mode="clip")

    def _rows(self, idx):
        return idx if self.rows is None else self.rows[idx]

    def subset(self, idx) -> Dataset:
        rows = self._rows(idx)
        return Dataset(self._features(rows), self.src.y[rows], self.num_classes)

    def gather(self, idx, x_out, y_out):
        """Write the rows idx of the split into x_out and their labels into y_out."""
        rows = self._rows(idx)
        self._features(rows, out=x_out)
        np.take(self.src.y, rows, out=y_out)


@dataclass
class TaskStream:
    """A sequence of tasks, each with disjoint train/ref splits and a test split."""

    tasks: list = field(default_factory=list)  # (train, ref, test, permutation)

    @property
    def num_tasks(self):
        return len(self.tasks)


def _read_be_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise ParseError(f"{path}: truncated header at offset {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx_archive(images_path, labels_path) -> Dataset:
    """Parse a big-endian image/label archive pair into a Dataset.

    Layout: 4-byte magic (2051 for images, 2049 for labels), big-endian
    dimension counts, then raw bytes. Pixels are scaled into [0, 1].
    """
    images_path, labels_path = str(images_path), str(labels_path)
    with open(images_path, "rb") as f:
        img_buf = f.read()
    with open(labels_path, "rb") as f:
        lbl_buf = f.read()

    magic = _read_be_u32(img_buf, 0, images_path)
    if magic != IMAGE_MAGIC:
        raise ParseError(f"{images_path}: bad image magic {magic:#010x} at offset 0")
    n = _read_be_u32(img_buf, 4, images_path)
    rows = _read_be_u32(img_buf, 8, images_path)
    cols = _read_be_u32(img_buf, 12, images_path)
    expected = 16 + n * rows * cols
    if len(img_buf) != expected:
        raise ParseError(
            f"{images_path}: expected {expected} bytes, got {len(img_buf)} (data at offset 16)"
        )

    lmagic = _read_be_u32(lbl_buf, 0, labels_path)
    if lmagic != LABEL_MAGIC:
        raise ParseError(f"{labels_path}: bad label magic {lmagic:#010x} at offset 0")
    ln = _read_be_u32(lbl_buf, 4, labels_path)
    if len(lbl_buf) != 8 + ln:
        raise ParseError(
            f"{labels_path}: expected {8 + ln} bytes, got {len(lbl_buf)} (data at offset 8)"
        )
    if ln != n:
        raise ParseError(
            f"{labels_path}: label count {ln} != image count {n} (offset 4 of both headers)"
        )

    pixels = np.frombuffer(img_buf, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    labels = np.frombuffer(lbl_buf, dtype=np.uint8, offset=8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if n else 0
    x = pixels.astype(np.float64)
    x /= 255.0  # in place: one float64 copy, not two
    return Dataset(x, labels, num_classes)


def make_synthetic(d, num_classes, n_per_class, margin, seed) -> Dataset:
    """Image-like Gaussian class blobs: dark background, a bright block of
    coordinates per class, features clipped into [0, 1].

    Sparse means keep rectifier units alive across permuted variants of the
    data, mirroring pixel datasets. The blob std is margin/12, so a
    nearest-centroid rule is essentially exact for margin >= 10 sigma.
    """
    if not 1 <= num_classes <= d:
        raise ConfigError("need 1 <= num_classes <= d for disjoint class blocks")
    if not 0.0 < margin < np.inf:
        raise ConfigError("margin must be finite and positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(901,)))
    block = d // num_classes
    means = np.zeros((num_classes, d))
    for c in range(num_classes):
        means[c, c * block:(c + 1) * block] = margin
    sigma_blob = margin / 12.0
    if n_per_class == 0:
        return Dataset(np.zeros((0, d)), np.zeros(0, dtype=np.int64), num_classes)
    xs, ys = [], []
    for c in range(num_classes):
        xs.append(means[c] + sigma_blob * rng.standard_normal((n_per_class, d)))
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    x = np.clip(np.concatenate(xs), 0.0, 1.0)
    y = np.concatenate(ys)
    perm = rng.permutation(len(y))
    return Dataset(x[perm], y[perm], num_classes)


def make_permuted_stream(base: Dataset, n_tasks, seed, ref_fraction=0.1,
                         test: Dataset | None = None, test_fraction=0.2) -> TaskStream:
    """Build a permuted-pixel task stream from a base dataset.

    Task 1 uses the identity permutation; later tasks use independent seeded
    pixel permutations. Each task's train/ref split is disjoint, with
    |ref| = ref_fraction * (|train| + |ref|). If no held-out test set is
    given, test_fraction of the base is carved off first and permuted
    per task like the rest.

    Every split is a TaskSplit of base or test, so a task costs two index
    arrays and a permutation; base and test must not be modified afterwards.
    """
    if n_tasks < 1:
        raise ConfigError("n_tasks must be >= 1")
    if not 0.0 < ref_fraction < 1.0:
        raise ConfigError("ref_fraction must be in (0, 1)")
    d = base.feature_dim
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(902,)))

    if test is None:
        split = rng.permutation(len(base))
        n_test = int(round(test_fraction * len(base)))
        test, test_rows, pool = base, split[:n_test], split[n_test:]
    else:
        test_rows, pool = None, rng.permutation(len(base))
    if len(test if test_rows is None else test_rows) == 0:
        raise ConfigError("the test split is empty")
    if test.feature_dim != d:
        raise ConfigError(f"test examples have {test.feature_dim} features, "
                          f"training examples {d}")

    n_ref = int(round(ref_fraction * len(pool)))
    if not 0 < n_ref < len(pool):
        raise ConfigError(f"ref_fraction {ref_fraction} splits {len(pool)} examples "
                          f"into {len(pool) - n_ref} train and {n_ref} ref; both must be non-empty")
    tasks = []
    for t in range(1, n_tasks + 1):
        perm = np.arange(d) if t == 1 else rng.permutation(d)
        order = rng.permutation(len(pool))
        tasks.append((TaskSplit(base, pool[order[n_ref:]], perm),
                      TaskSplit(base, pool[order[:n_ref]], perm),
                      TaskSplit(test, test_rows, perm),
                      perm))
    return TaskStream(tasks)
