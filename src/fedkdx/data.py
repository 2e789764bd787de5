"""Dataset handling: the UCI-HAR raw-inertial archive, synthetic blobs,
and client partitioning.

A dataset is one record array, a record per window, from load to shard;
partitioning hands out indices into it.  The archive ships pre-windowed
128-sample rows, so the loader consumes it directly.
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

HAR_ACTIVITIES = 6  # walking, upstairs, downstairs, sitting, standing, laying

MODE_BY_SUBJECT = "by_subject"
MODE_IID = "iid_shuffle"
MODE_DIRICHLET = "dirichlet"

DIRICHLET_MAX_RETRIES = 100


class DataError(ValueError):
    """Dataset files or parameters are unusable."""


@dataclass
class ClientShard:
    """A client's train and test windows, as indices into the dataset."""
    train: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class PartitionSpec:
    mode: str = MODE_DIRICHLET
    num_clients: int = 30
    alpha: float | None = 0.1
    train_fraction: float = 0.8

    def __post_init__(self):
        problems = self.problems(self)
        if problems:
            raise ValueError("; ".join(problems))

    @staticmethod
    def problems(s) -> list[str]:
        """Each rule that ``s`` (any object with these fields) breaks, as ``field: message``."""
        problems = []
        modes = (MODE_BY_SUBJECT, MODE_IID, MODE_DIRICHLET)
        if s.mode not in modes:
            problems.append(f"mode: must be one of {modes}, got {s.mode!r}")
        if s.num_clients < 1:
            problems.append(f"num_clients: must be >= 1, got {s.num_clients}")
        if s.mode == MODE_DIRICHLET and (s.alpha is None or not s.alpha > 0):
            problems.append(f"alpha: must be > 0 in dirichlet mode, got {s.alpha}")
        if not 0.0 < s.train_fraction < 1.0:
            problems.append(f"train_fraction: must lie in (0, 1), got {s.train_fraction}")
        return problems


def empty_dataset(n: int, window_shape: tuple[int, ...], dtype) -> np.recarray:
    """``n`` unfilled records: a ``dtype`` ``window`` of ``window_shape``
    (channels, length), and the int64 ``label`` and ``subject``."""
    fields = [("window", dtype, window_shape),
              ("label", np.int64),
              ("subject", np.int64)]
    return np.recarray(n, dtype=fields)


# ------------------------------------------------------------------ loader

def _read_matrix(path: str, dtype) -> np.ndarray:
    """The file's rows at ``dtype``, each value parsed as float64 and then
    rounded; a value beyond ``dtype``'s range arrives as an infinity."""
    if not os.path.isfile(path):
        raise DataError(f"missing dataset file: {path}")
    try:
        mat = np.loadtxt(path, dtype=dtype, ndmin=2)
    except ValueError as e:
        raise DataError(f"unreadable dataset file {path}: {e}") from e
    if not np.isfinite(mat).all():
        raise DataError(f"{path}: non-finite value (NaN, Inf, or beyond the "
                        f"{mat.dtype} range)")
    return mat


def _read_ids(path: str) -> np.ndarray:
    """A label or subject file: one int64 integer per row."""
    ids = _read_matrix(path, np.float64).ravel()
    if not (ids == np.round(ids)).all():
        raise DataError(f"{path}: expected one integer per row")
    if not ((-2.0 ** 63 <= ids) & (ids < 2.0 ** 63)).all():
        raise DataError(f"{path}: an id lies beyond the 64-bit integer range")
    return ids.astype(np.int64)


def load_ucihar(root: str) -> np.recarray:
    """Read both archive splits into one record array, train rows first.

    Nine channel files per split, one 128-column row per window, aligned
    row-wise with the label and subject files.  Labels come 1-based on disk,
    one per activity.  Windows are stored at float32, the dtype in which the
    HAR CNN computes and ships.
    """
    nested = os.path.join(root, "UCI HAR Dataset")
    if not os.path.isdir(os.path.join(root, "train")) and os.path.isdir(nested):
        root = nested
    ids = []
    for split in ("train", "test"):
        label_path = os.path.join(root, split, f"y_{split}.txt")
        labels = _read_ids(label_path)
        # the model has a class per label up to the largest: refuse strays
        stray = labels[(labels < 1) | (labels > HAR_ACTIVITIES)]
        if stray.size:
            raise DataError(f"{label_path}: labels count from 1 to {HAR_ACTIVITIES}, "
                            f"found {stray[0]}")
        subjects = _read_ids(os.path.join(root, split, f"subject_{split}.txt"))
        if subjects.size != labels.size:
            raise DataError(f"row-count mismatch in {split}: "
                            f"{labels.size} labels, {subjects.size} subjects")
        ids.append((split, labels - 1, subjects))
    total = sum(labels.size for _, labels, _ in ids)
    records = empty_dataset(total, (len(HAR_CHANNELS), 128), np.float32)
    # each channel file is copied into place as it is read: no stacked copy
    start = 0
    for split, labels, subjects in ids:
        rows = slice(start, start + labels.size)
        start = rows.stop
        records.label[rows] = labels
        records.subject[rows] = subjects
        signals = os.path.join(root, split, "Inertial Signals")
        for ch, name in enumerate(HAR_CHANNELS):
            path = os.path.join(signals, f"{name}_{split}.txt")
            mat = _read_matrix(path, np.float32)
            if mat.shape != (labels.size, 128):
                raise DataError(f"{path}: expected {labels.size} rows of 128 columns, "
                                f"got {mat.shape[0]} of {mat.shape[1]}")
            records.window[rows, ch] = mat
    return records


# ------------------------------------------------------------- synthetic

def _simplex_means(num_classes: int, dims: int, separation: float) -> np.ndarray:
    """Regular simplex vertices with pairwise distance `separation`,
    centered, embedded in the first num_classes-1 coordinates, of which
    ``dims`` must hold at least that many."""
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
                   separation: float, seed: int) -> np.recarray:
    """Unit-variance Gaussian blobs with class means on a regular simplex,
    as a record array in class order.

    Windows come out as (1, dims) float64 rows for the dense-network path; the
    subject id is the class index.  separation=0 degenerates to
    indistinguishable classes, which some robustness checks rely on.
    The caller has checked the settings, as ``config`` does: num_classes >=
    2, dims >= num_classes - 1, samples_per_class >= 1, separation >= 0.
    """
    means = _simplex_means(num_classes, dims, separation)
    records = empty_dataset(num_classes * samples_per_class, (1, dims), np.float64)
    records.label = np.repeat(np.arange(num_classes), samples_per_class)
    records.subject = records.label
    # one draw of every class's points, in class order
    noise = np.random.default_rng(seed).standard_normal((len(records), dims))
    records.window[:, 0] = means[records.label] + noise
    return records


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


def _stratified_split(idx: np.ndarray, labels: np.ndarray, train_fraction: float,
                      rng: np.random.Generator) -> ClientShard:
    """Per-class largest-remainder split of the indices ``idx`` hitting
    round(f*N) exactly."""
    shard_labels = labels[idx]
    classes, sizes = np.unique(shard_labels, return_counts=True)
    want_train = int(round(train_fraction * idx.size))
    take = _largest_remainder(train_fraction * sizes, want_train)
    train, test = [], []
    for c, t in zip(classes, take):
        members = idx[shard_labels == c]
        members = members[rng.permutation(members.size)]
        train.append(members[:t])
        test.append(members[t:])
    return ClientShard(np.concatenate(train), np.concatenate(test))


def partition(samples: np.recarray, spec: PartitionSpec,
              rng: np.random.Generator) -> list[ClientShard]:
    """Distribute the record array's windows over clients per the spec
    mode, then split each client train/test stratified by class.  Reads
    the label and subject columns; the shards hold indices into them."""
    n = len(samples)
    if n == 0:
        raise DataError("cannot partition an empty dataset")
    k = spec.num_clients
    labels = samples.label
    if spec.mode == MODE_BY_SUBJECT:
        subjects, rank = np.unique(samples.subject, return_inverse=True)
        if subjects.size < k:
            raise DataError(
                f"by_subject needs >= {k} distinct subjects, found {subjects.size}")
        # round-robin over the sorted subjects, windows in dataset order
        owner = rank % k
        shards = [np.flatnonzero(owner == client) for client in range(k)]
    elif n < k:
        raise DataError(f"{n} samples cannot cover {k} clients")
    elif spec.mode == MODE_IID:
        shards = np.array_split(rng.permutation(n), k)
    else:  # dirichlet
        classes, class_sizes = np.unique(labels, return_counts=True)
        counts = _dirichlet_counts(class_sizes, spec.alpha, k, rng)
        pieces = [[] for _ in range(k)]
        for ci, c in enumerate(classes):
            idx = np.flatnonzero(labels == c)
            idx = idx[rng.permutation(idx.size)]
            ends = np.cumsum(counts[ci])[:-1]
            for client, piece in enumerate(np.split(idx, ends)):
                pieces[client].append(piece)
        shards = [np.concatenate(p) for p in pieces]
    return [_stratified_split(idx, labels, spec.train_fraction, rng) for idx in shards]


def class_count_table(labels: np.ndarray, shards: list[ClientShard],
                      num_classes: int) -> np.ndarray:
    """(num_clients, num_classes) combined train+test counts per client."""
    table = np.zeros((len(shards), num_classes), dtype=np.int64)
    for i, shard in enumerate(shards):
        owned = np.concatenate((shard.train, shard.test))
        table[i] = np.bincount(labels[owned], minlength=num_classes)
    return table
