import os

import numpy as np
import pytest

from fedkdx.data import (
    HAR_CHANNELS,
    MODE_BY_SUBJECT,
    MODE_DIRICHLET,
    MODE_IID,
    DataError,
    PartitionSpec,
    Sample,
    class_count_table,
    load_ucihar,
    make_synthetic,
    partition,
    samples_to_xy,
)
from fedkdx.data import _largest_remainder, _simplex_means, _stratified_split


# ---------------------------------------------------------------- synthetic

def test_simplex_means_are_equidistant():
    for c, d in ((2, 1), (3, 2), (3, 6), (5, 4), (6, 10)):
        mu = _simplex_means(c, d, separation=2.5)
        assert mu.shape == (c, d)
        assert np.abs(mu.mean(axis=0)).max() < 1e-9  # centered
        for i in range(c):
            for j in range(i + 1, c):
                assert abs(np.linalg.norm(mu[i] - mu[j]) - 2.5) < 1e-9


def test_simplex_needs_enough_dimensions():
    with pytest.raises(DataError):
        _simplex_means(4, 2, separation=1.0)
    assert np.all(_simplex_means(3, 2, separation=0.0) == 0.0)


def test_make_synthetic_layout():
    samples = make_synthetic(num_classes=3, dims=6, samples_per_class=50,
                             separation=3.0, seed=0)
    assert len(samples) == 150
    labels = np.array([s.label for s in samples])
    assert [int((labels == c).sum()) for c in range(3)] == [50, 50, 50]
    for s in samples:
        assert s.window.shape == (1, 6)
        assert s.subject == s.label
    x, y = samples_to_xy(samples)
    assert x.shape == (150, 1, 6) and y.shape == (150,)


def test_make_synthetic_class_separation_controls_overlap():
    far = make_synthetic(3, 6, 200, separation=8.0, seed=1)
    x, y = samples_to_xy(far)
    x = x.reshape(len(far), -1)
    mu = np.stack([x[y == c].mean(axis=0) for c in range(3)])
    d01 = np.linalg.norm(mu[0] - mu[1])
    assert abs(d01 - 8.0) < 0.5  # empirical means sit near the design points
    # nearest-mean assignment should be nearly perfect this far apart
    assign = np.argmin(((x[:, None, :] - mu[None]) ** 2).sum(-1), axis=1)
    assert (assign == y).mean() > 0.99


def test_make_synthetic_is_seed_deterministic():
    a, _ = samples_to_xy(make_synthetic(3, 6, 20, 3.0, seed=7))
    b, _ = samples_to_xy(make_synthetic(3, 6, 20, 3.0, seed=7))
    c, _ = samples_to_xy(make_synthetic(3, 6, 20, 3.0, seed=8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ------------------------------------------------------------- partitioning

def windowless(label, subject):
    return Sample(np.zeros((1, 2)), label, subject)


def labeled_pool(counts, subjects=None):
    pool = []
    for c, n in enumerate(counts):
        for i in range(n):
            subj = subjects[c] if subjects else i % 5
            pool.append(windowless(c, subj))
    return pool


def test_largest_remainder_pinned_ties():
    assert _largest_remainder(np.array([1.5, 1.5, 1.0]), 4).tolist() == [2, 1, 1]
    assert _largest_remainder(np.array([2.5, 0.5]), 3).tolist() == [3, 0]
    assert _largest_remainder(np.array([1.2, 1.8]), 3).tolist() == [1, 2]


def test_stratified_split_hits_rounded_fraction():
    rng = np.random.default_rng(3)
    shard = labeled_pool([10, 5])
    out = _stratified_split(shard, 0.8, rng)
    assert len(out.train) == 12 and len(out.test) == 3
    train_labels = [s.label for s in out.train]
    assert train_labels.count(0) == 8 and train_labels.count(1) == 4
    assert {id(s) for s in out.train}.isdisjoint({id(s) for s in out.test})


def test_by_subject_round_robin_over_sorted_subjects():
    pool = [windowless(0, 5), windowless(1, 2), windowless(2, 9),
            windowless(0, 2), windowless(1, 9)]
    spec = PartitionSpec(mode=MODE_BY_SUBJECT, num_clients=2, train_fraction=0.5)
    shards = partition(pool, spec, np.random.default_rng(0))
    subj = [sorted({s.subject for s in sh.train + sh.test}) for sh in shards]
    assert subj == [[2, 9], [5]]


def test_by_subject_requires_enough_subjects():
    pool = [windowless(0, 1), windowless(1, 1)]
    with pytest.raises(DataError, match="subject"):
        partition(pool, PartitionSpec(mode=MODE_BY_SUBJECT, num_clients=2),
                  np.random.default_rng(0))


def test_iid_shuffle_sizes_and_coverage():
    pool = labeled_pool([5, 5])
    spec = PartitionSpec(mode=MODE_IID, num_clients=3, train_fraction=0.5)
    shards = partition(pool, spec, np.random.default_rng(1))
    sizes = [len(sh.train) + len(sh.test) for sh in shards]
    assert sizes == [4, 3, 3]  # remainder goes to the first clients
    seen = [id(s) for sh in shards for s in sh.train + sh.test]
    assert sorted(seen) == sorted(id(s) for s in pool)


def test_dirichlet_covers_everyone_and_skews():
    pool = labeled_pool([120, 120, 120])
    spec = PartitionSpec(mode=MODE_DIRICHLET, num_clients=6, alpha=0.1,
                         train_fraction=0.8)
    shards = partition(pool, spec, np.random.default_rng(2))
    table = class_count_table(shards, 3)
    assert table.sum() == 360
    assert table.sum(axis=1).min() > 0  # the retry loop forbids empty clients
    # alpha 0.1 should starve at least one client of at least one class
    assert (table == 0).any()
    # and a concentrated alpha should even things out
    flat_spec = PartitionSpec(mode=MODE_DIRICHLET, num_clients=6, alpha=1e6,
                              train_fraction=0.8)
    flat = class_count_table(partition(pool, flat_spec, np.random.default_rng(2)), 3)
    assert np.abs(flat - 20).max() <= 2


def test_dirichlet_is_seed_deterministic():
    pool = labeled_pool([60, 60])
    spec = PartitionSpec(mode=MODE_DIRICHLET, num_clients=4, alpha=0.5)
    a = class_count_table(partition(pool, spec, np.random.default_rng(9)), 2)
    b = class_count_table(partition(pool, spec, np.random.default_rng(9)), 2)
    assert np.array_equal(a, b)


def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(mode="random", num_clients=2)
    with pytest.raises(ValueError):
        PartitionSpec(mode=MODE_DIRICHLET, num_clients=2, alpha=None)
    with pytest.raises(ValueError):
        PartitionSpec(mode=MODE_IID, num_clients=0)
    with pytest.raises(ValueError):
        PartitionSpec(mode=MODE_IID, num_clients=2, train_fraction=1.0)
    with pytest.raises(DataError):
        partition([], PartitionSpec(mode=MODE_IID, num_clients=1),
                  np.random.default_rng(0))


# ------------------------------------------------------------------ loading

def write_fake_archive(root, nested=False, rows=(3, 2), cols=128,
                       break_channel=None, drop_file=None):
    rng = np.random.default_rng(0)
    base = os.path.join(root, "UCI HAR Dataset") if nested else root
    for split, n in zip(("train", "test"), rows):
        sig_dir = os.path.join(base, split, "Inertial Signals")
        os.makedirs(sig_dir, exist_ok=True)
        for name in HAR_CHANNELS:
            path = os.path.join(sig_dir, f"{name}_{split}.txt")
            if drop_file and drop_file in path:
                continue
            c = cols - 1 if break_channel == name else cols
            np.savetxt(path, rng.normal(size=(n, c)))
        np.savetxt(os.path.join(base, split, f"y_{split}.txt"),
                   rng.integers(1, 7, size=(n, 1)), fmt="%d")
        np.savetxt(os.path.join(base, split, f"subject_{split}.txt"),
                   rng.integers(1, 31, size=(n, 1)), fmt="%d")
    return base


def test_load_ucihar_pools_both_splits(tmp_path):
    write_fake_archive(str(tmp_path))
    samples = load_ucihar(str(tmp_path))
    assert len(samples) == 5
    for s in samples:
        assert s.window.shape == (9, 128)
        assert 0 <= s.label <= 5          # disk labels are 1-based
        assert 1 <= s.subject <= 30


def test_load_ucihar_descends_into_the_archive_directory(tmp_path):
    write_fake_archive(str(tmp_path), nested=True)
    assert len(load_ucihar(str(tmp_path))) == 5


def test_load_ucihar_rejects_malformed_trees(tmp_path):
    a = tmp_path / "badcols"
    write_fake_archive(str(a), break_channel="body_gyro_y")
    with pytest.raises(DataError, match="128 columns"):
        load_ucihar(str(a))

    b = tmp_path / "missing"
    write_fake_archive(str(b), drop_file="total_acc_z_test")
    with pytest.raises(DataError, match="missing dataset file"):
        load_ucihar(str(b))

    # disk labels count from 1, and labels and subjects are integers
    for label, (fname, text, match) in {
            "label0": ("y_train.txt", "1\n0\n2\n", "y_train.txt: labels count from 1"),
            "label_frac": ("y_test.txt", "1\n2.5\n", "y_test.txt: expected one integer"),
            "subject_frac": ("subject_train.txt", "1\n2\n3.5\n",
                             "subject_train.txt: expected one integer")}.items():
        root = write_fake_archive(str(tmp_path / label))
        split = "test" if "test" in fname else "train"
        with open(os.path.join(root, split, fname), "w") as fh:
            fh.write(text)
        with pytest.raises(DataError, match=match):
            load_ucihar(root)


def test_class_count_table_counts_train_and_test():
    shards = partition(labeled_pool([10, 6]),
                       PartitionSpec(mode=MODE_IID, num_clients=2,
                                     train_fraction=0.5),
                       np.random.default_rng(0))
    table = class_count_table(shards, 2)
    assert table.shape == (2, 2)
    assert table.sum() == 16
