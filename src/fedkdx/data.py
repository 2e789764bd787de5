"""Dataset handling: the UCI-HAR raw-inertial archive, synthetic blobs,
and client partitioning.

The archive ships pre-windowed 128-sample rows, so the loader consumes it
directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

HAR_CHANNELS = (
    "body_acc_x", "body_acc_y", "body_acc_z",
    "body_gyro_x", "body_gyro_y", "body_gyro_z",
    "total_acc_x", "total_acc_y", "total_acc_z",
)

MODE_BY_SUBJECT = "by_subject"
MODE_IID = "iid_shuffle"
MODE_DIRICHLET = "dirichlet"

DIRICHLET_MAX_RETRIES = 100


class DataError(ValueError):
    """Dataset files or parameters are unusable."""


@dataclass
class Sample:
    window: np.ndarray  # (channels, length)
    label: int
    subject: int


@dataclass
class ClientShard:
    train: list[Sample]
    test: list[Sample]


@dataclass(frozen=True)
class PartitionSpec:
    mode: str = MODE_DIRICHLET
    num_clients: int = 30
    alpha: float | None = 0.1
    train_fraction: float = 0.8

    def __post_init__(self):
        if self.mode not in (MODE_BY_SUBJECT, MODE_IID, MODE_DIRICHLET):
            raise ValueError(f"unknown partition mode {self.mode!r}")
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.mode == MODE_DIRICHLET:
            if self.alpha is None or not (self.alpha > 0):
                raise ValueError(f"dirichlet mode needs alpha > 0, got {self.alpha}")
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")


def samples_to_xy(samples: list[Sample], dtype=np.float64,
                  what: str = "shard") -> tuple[np.ndarray, np.ndarray]:
    """Stack a shard into (N, channels, length) ``dtype`` and (N,) int64.

    The windows are finite, as the loaders check; one that holds a value
    beyond ``dtype``'s range is refused, naming ``what`` and its subject,
    rather than reaching the network as an infinity.
    """
    if not samples:
        raise DataError(f"{what} is empty")
    with np.errstate(over="ignore"):
        x = np.stack([s.window for s in samples]).astype(dtype, copy=False)
    out_of_range = ~np.isfinite(x).reshape(len(samples), -1).all(axis=1)
    if out_of_range.any():
        subject = samples[int(out_of_range.argmax())].subject
        raise DataError(f"{what}: a window of subject {subject} holds a value beyond "
                        f"the {x.dtype} range")
    y = np.array([s.label for s in samples], dtype=np.int64)
    return x, y


# ------------------------------------------------------------------ loader

def _read_matrix(path: str) -> np.ndarray:
    if not os.path.isfile(path):
        raise DataError(f"missing dataset file: {path}")
    try:
        mat = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except ValueError as e:
        raise DataError(f"unreadable dataset file {path}: {e}") from e
    if not np.isfinite(mat).all():
        raise DataError(f"{path}: non-finite value (NaN or Inf)")
    return mat


def _read_ids(path: str) -> np.ndarray:
    """A label or subject file: one integer per row."""
    ids = _read_matrix(path).ravel()
    if not (ids == np.round(ids)).all():
        raise DataError(f"{path}: expected one integer per row")
    return ids


def load_ucihar(root: str) -> list[Sample]:
    """Read both archive splits into one pooled sample list.

    Nine channel files per split, one 128-column row per window, aligned
    row-wise with the label and subject files.  Labels come 1-based on disk.
    """
    nested = os.path.join(root, "UCI HAR Dataset")
    if not os.path.isdir(os.path.join(root, "train")) and os.path.isdir(nested):
        root = nested
    samples: list[Sample] = []
    for split in ("train", "test"):
        base = os.path.join(root, split)
        channels = []
        for name in HAR_CHANNELS:
            path = os.path.join(base, "Inertial Signals", f"{name}_{split}.txt")
            mat = _read_matrix(path)
            if mat.shape[1] != 128:
                raise DataError(f"{path}: expected 128 columns, got {mat.shape[1]}")
            channels.append(mat)
        rows = channels[0].shape[0]
        for name, mat in zip(HAR_CHANNELS, channels):
            if mat.shape[0] != rows:
                raise DataError(
                    f"row-count mismatch in {split}: {name} has {mat.shape[0]} rows, "
                    f"{HAR_CHANNELS[0]} has {rows}")
        label_path = os.path.join(base, f"y_{split}.txt")
        labels = _read_ids(label_path)
        if labels.min(initial=1) < 1:
            raise DataError(f"{label_path}: labels count from 1, found {labels.min():g}")
        subjects = _read_ids(os.path.join(base, f"subject_{split}.txt"))
        if labels.shape[0] != rows or subjects.shape[0] != rows:
            raise DataError(
                f"row-count mismatch in {split}: {rows} windows vs "
                f"{labels.shape[0]} labels, {subjects.shape[0]} subjects")
        windows = np.stack(channels, axis=1)  # (rows, 9, 128)
        for i in range(rows):
            samples.append(Sample(windows[i], int(labels[i]) - 1, int(subjects[i])))
    return samples


# ------------------------------------------------------------- synthetic

def _simplex_means(num_classes: int, dims: int, separation: float) -> np.ndarray:
    """Regular simplex vertices with pairwise distance `separation`,
    centered, embedded in the first num_classes-1 coordinates."""
    if dims < num_classes - 1:
        raise DataError(
            f"dims must be >= num_classes-1 to hold a regular simplex, "
            f"got dims={dims}, num_classes={num_classes}")
    scale = separation / np.sqrt(2.0)
    verts = np.eye(num_classes) * scale
    verts -= verts.mean(axis=0)
    # rotate into num_classes-1 intrinsic coordinates
    u, s, _ = np.linalg.svd(verts, full_matrices=False)
    coords = u * s
    means = np.zeros((num_classes, dims))
    means[:, :num_classes - 1] = coords[:, :num_classes - 1]
    return means


def make_synthetic(num_classes: int, dims: int, samples_per_class: int,
                   separation: float, seed: int) -> list[Sample]:
    """Unit-variance Gaussian blobs with class means on a regular simplex.

    Windows come out as (1, dims) rows for the dense-network path; the
    subject id is the class index.  separation=0 degenerates to
    indistinguishable classes, which some robustness checks rely on.
    """
    if num_classes < 2:
        raise DataError(f"num_classes must be >= 2, got {num_classes}")
    if samples_per_class < 1:
        raise DataError(f"samples_per_class must be >= 1, got {samples_per_class}")
    if separation < 0:
        raise DataError(f"separation must be >= 0, got {separation}")
    means = _simplex_means(num_classes, dims, separation)
    rng = np.random.default_rng(seed)
    samples = []
    for c in range(num_classes):
        pts = means[c] + rng.standard_normal((samples_per_class, dims))
        for i in range(samples_per_class):
            samples.append(Sample(pts[i].reshape(1, dims), c, c))
    return samples


# ------------------------------------------------------------ partitioning

def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of `total` by quota, ties to the lowest index."""
    base = np.floor(quotas).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        order = np.argsort(-(quotas - base), kind="stable")
        base[order[:short]] += 1
    return base


def _dirichlet_counts(class_sizes: np.ndarray, alpha: float, k: int,
                      rng: np.random.Generator) -> np.ndarray:
    """(num_classes, k) sample counts; redraws every class until no client
    is left empty overall."""
    for _ in range(DIRICHLET_MAX_RETRIES):
        counts = np.zeros((class_sizes.size, k), dtype=np.int64)
        for c, n in enumerate(class_sizes):
            props = rng.dirichlet(np.full(k, alpha))
            counts[c] = _largest_remainder(props * n, int(n))
        if counts.sum(axis=0).min() > 0:
            return counts
    raise DataError(
        f"dirichlet partitioning left a client empty after "
        f"{DIRICHLET_MAX_RETRIES} redraws (alpha={alpha}, clients={k})")


def _stratified_split(shard: list[Sample], train_fraction: float,
                      rng: np.random.Generator) -> ClientShard:
    """Per-class largest-remainder split hitting round(f*N) exactly."""
    n = len(shard)
    labels = np.array([s.label for s in shard])
    classes = np.unique(labels)
    want_train = int(round(train_fraction * n))
    quotas = np.array([train_fraction * (labels == c).sum() for c in classes])
    take = _largest_remainder(quotas, want_train)
    train: list[Sample] = []
    test: list[Sample] = []
    for c, t in zip(classes, take):
        idx = np.nonzero(labels == c)[0]
        idx = idx[rng.permutation(idx.size)]
        train.extend(shard[i] for i in idx[:t])
        test.extend(shard[i] for i in idx[t:])
    return ClientShard(train, test)


def partition(samples: list[Sample], spec: PartitionSpec,
              rng: np.random.Generator) -> list[ClientShard]:
    """Distribute samples over clients per the spec mode, then split each
    client train/test stratified by class."""
    if not samples:
        raise DataError("cannot partition an empty dataset")
    k = spec.num_clients
    if spec.mode == MODE_BY_SUBJECT:
        subjects = sorted({s.subject for s in samples})
        if len(subjects) < k:
            raise DataError(
                f"by_subject needs >= {k} distinct subjects, found {len(subjects)}")
        client_of = {s: i % k for i, s in enumerate(subjects)}
        shards = [[] for _ in range(k)]
        for s in samples:
            shards[client_of[s.subject]].append(s)
    elif spec.mode == MODE_IID:
        if len(samples) < k:
            raise DataError(f"{len(samples)} samples cannot cover {k} clients")
        perm = rng.permutation(len(samples))
        sizes = np.full(k, len(samples) // k, dtype=np.int64)
        sizes[:len(samples) % k] += 1
        shards, pos = [], 0
        for sz in sizes:
            shards.append([samples[i] for i in perm[pos:pos + sz]])
            pos += sz
    else:  # dirichlet
        if len(samples) < k:
            raise DataError(f"{len(samples)} samples cannot cover {k} clients")
        labels = np.array([s.label for s in samples])
        classes = np.unique(labels)
        class_sizes = np.array([(labels == c).sum() for c in classes])
        counts = _dirichlet_counts(class_sizes, spec.alpha, k, rng)
        shards = [[] for _ in range(k)]
        for ci, c in enumerate(classes):
            idx = np.nonzero(labels == c)[0]
            idx = idx[rng.permutation(idx.size)]
            pos = 0
            for client in range(k):
                take = counts[ci, client]
                shards[client].extend(samples[i] for i in idx[pos:pos + take])
                pos += take
    return [_stratified_split(shard, spec.train_fraction, rng) for shard in shards]


def class_count_table(shards: list[ClientShard], num_classes: int) -> np.ndarray:
    """(num_clients, num_classes) combined train+test counts per client."""
    table = np.zeros((len(shards), num_classes), dtype=np.int64)
    for i, shard in enumerate(shards):
        for s in shard.train + shard.test:
            table[i, s.label] += 1
    return table
