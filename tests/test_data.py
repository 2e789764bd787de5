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
    class_count_table,
    empty_dataset,
    load_ucihar,
    make_synthetic,
    partition,
    samples_to_xy,
)
from fedkdx.data import _largest_remainder, _simplex_means, _stratified_split
from fedkdx.experiment import build_experiment
from helpers import make_config, write_fake_archive


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
    # config refuses dims < num_classes - 1 (test_config); the fewest it
    # accepts hold the simplex, and a zero separation puts every mean at 0
    mu = _simplex_means(4, 3, separation=1.0)
    assert np.abs(mu.mean(axis=0)).max() < 1e-9
    assert all(abs(np.linalg.norm(mu[i] - mu[j]) - 1.0) < 1e-9
               for i in range(4) for j in range(i + 1, 4))
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
    # one draw for all classes equals a draw per class, class by class
    rng = np.random.default_rng(7)
    means = _simplex_means(3, 6, 3.0)
    per_class = [means[k] + rng.standard_normal((20, 6)) for k in range(3)]
    assert np.array_equal(a[:, 0], np.concatenate(per_class))


# ------------------------------------------------------------- partitioning

def windowless(labels, subjects):
    pool = empty_dataset(len(labels), (1, 2))
    pool.window, pool.label, pool.subject = 0.0, labels, subjects
    return pool


def labeled_pool(counts):
    """Class c holds counts[c] windows, class by class; subjects cycle 0-4
    within each class."""
    return windowless(np.repeat(np.arange(len(counts)), counts),
                      np.concatenate([np.arange(n) % 5 for n in counts]))


def members(shard):
    return np.concatenate((shard.train, shard.test))


def test_largest_remainder_pinned_ties():
    assert _largest_remainder(np.array([1.5, 1.5, 1.0]), 4).tolist() == [2, 1, 1]
    assert _largest_remainder(np.array([2.5, 0.5]), 3).tolist() == [3, 0]
    assert _largest_remainder(np.array([1.2, 1.8]), 3).tolist() == [1, 2]


def test_stratified_split_hits_rounded_fraction():
    rng = np.random.default_rng(3)
    pool = labeled_pool([10, 5])
    out = _stratified_split(np.arange(15), pool.label, 0.8, rng)
    assert len(out.train) == 12 and len(out.test) == 3
    assert np.bincount(pool.label[out.train]).tolist() == [8, 4]
    assert sorted(members(out)) == list(range(15))


def test_by_subject_round_robin_over_sorted_subjects():
    pool = windowless([0, 1, 2, 0, 1], [5, 2, 9, 2, 9])
    spec = PartitionSpec(mode=MODE_BY_SUBJECT, num_clients=2, train_fraction=0.5)
    shards = partition(pool, spec, np.random.default_rng(0))
    subj = [sorted(set(pool.subject[members(sh)].tolist())) for sh in shards]
    assert subj == [[2, 9], [5]]


def test_by_subject_requires_enough_subjects():
    pool = windowless([0, 1], [1, 1])
    with pytest.raises(DataError, match="subject"):
        partition(pool, PartitionSpec(mode=MODE_BY_SUBJECT, num_clients=2),
                  np.random.default_rng(0))


def test_iid_shuffle_sizes_and_coverage():
    pool = labeled_pool([5, 5])
    spec = PartitionSpec(mode=MODE_IID, num_clients=3, train_fraction=0.5)
    shards = partition(pool, spec, np.random.default_rng(1))
    sizes = [len(members(sh)) for sh in shards]
    assert sizes == [4, 3, 3]  # remainder goes to the first clients
    seen = np.concatenate([members(sh) for sh in shards])
    assert sorted(seen) == list(range(len(pool)))


def test_dirichlet_covers_everyone_and_skews():
    pool = labeled_pool([120, 120, 120])
    spec = PartitionSpec(mode=MODE_DIRICHLET, num_clients=6, alpha=0.1,
                         train_fraction=0.8)
    shards = partition(pool, spec, np.random.default_rng(2))
    table = class_count_table(pool.label, shards, 3)
    assert table.sum() == 360
    assert table.sum(axis=1).min() > 0  # the retry loop forbids empty clients
    # alpha 0.1 should starve at least one client of at least one class
    assert (table == 0).any()
    # and a concentrated alpha should even things out
    flat_spec = PartitionSpec(mode=MODE_DIRICHLET, num_clients=6, alpha=1e6,
                              train_fraction=0.8)
    flat = class_count_table(pool.label,
                             partition(pool, flat_spec, np.random.default_rng(2)), 3)
    assert np.abs(flat - 20).max() <= 2


def test_dirichlet_is_seed_deterministic():
    pool = labeled_pool([60, 60])
    spec = PartitionSpec(mode=MODE_DIRICHLET, num_clients=4, alpha=0.5)
    a = partition(pool, spec, np.random.default_rng(9))
    b = partition(pool, spec, np.random.default_rng(9))
    assert all(np.array_equal(sa.train, sb.train) and np.array_equal(sa.test, sb.test)
               for sa, sb in zip(a, b))


# pool index order of every client's train and test windows on the pool
# below (26 windows, 3 labels, 6 subjects), seed 11, 3 clients, 0.7 train;
# recorded from the earlier implementation that moved one object per window
PINNED_PARTITIONS = {
    MODE_BY_SUBJECT: [([15, 18, 3, 24, 9, 12], [6, 21, 0]),
                      ([7, 22, 19, 1, 4, 25], [16, 10, 13]),
                      ([14, 8, 23, 5, 17, 11], [20, 2])],
    MODE_IID: [([0, 18, 15, 8, 22, 1], [9, 2, 4]),
               ([6, 3, 5, 23, 20, 25], [21, 11, 17]),
               ([24, 14, 10, 16, 19, 13], [12, 7])],
    MODE_DIRICHLET: [([3, 15, 20, 2, 11, 23, 5], [12, 17, 14]),
                     ([6, 24, 18, 9, 7, 1], [0, 19]),
                     ([21, 8, 10, 13, 4, 22], [16, 25])],
}


@pytest.mark.parametrize("mode", sorted(PINNED_PARTITIONS))
def test_partition_order_is_pinned(mode):
    i = np.arange(26)
    pool = windowless((i * 5) % 3, (i * 7) % 6 + 10)
    spec = PartitionSpec(mode=mode, num_clients=3, train_fraction=0.7,
                         alpha=0.5 if mode == MODE_DIRICHLET else None)
    shards = partition(pool, spec, np.random.default_rng(11))
    assert [(sh.train.tolist(), sh.test.tolist()) for sh in shards] == PINNED_PARTITIONS[mode]


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

def test_load_ucihar_pools_both_splits(tmp_path):
    write_fake_archive(str(tmp_path))
    samples = load_ucihar(str(tmp_path))
    assert len(samples) == 5
    for s in samples:
        assert s.window.shape == (9, 128)
        assert 0 <= s.label <= 5          # disk labels are 1-based
        assert 1 <= s.subject <= 30


def test_loaded_records_answer_the_recorded_sensor_gates_questions(tmp_path):
    # test_10 reads the loader's output by iterating it as records; its
    # first two asserts, on a tree whose ids are known
    root = write_fake_archive(str(tmp_path), rows=(16, 8))
    samples = load_ucihar(root)
    assert {s.label for s in samples} == set(range(6))
    disk = {name: np.concatenate([np.loadtxt(os.path.join(root, split, f"{name}_{split}.txt"))
                                  for split in ("train", "test")])
            for name in ("y", "subject")}
    assert len({s.subject for s in samples}) == len(set(disk["subject"])) > 1
    assert [s.label + 1 for s in samples] == disk["y"].tolist()
    assert [s.subject for s in samples] == disk["subject"].tolist()
    first = np.stack([np.loadtxt(os.path.join(root, "train", "Inertial Signals",
                                              f"{name}_train.txt"))[0] for name in HAR_CHANNELS])
    assert np.array_equal(samples[0].window, first)
    assert samples.dtype.fields["label"][0] == samples.dtype.fields["subject"][0] == np.int64


def test_synthetic_records_iterate_like_loaded_ones():
    samples = make_synthetic(3, 4, 5, 2.0, seed=0)
    assert samples.dtype.names == ("window", "label", "subject")
    assert [s.label for s in samples] == [s.subject for s in samples] == [0] * 5 + [1] * 5 + [2] * 5
    assert all(s.window.shape == (1, 4) and s.window.dtype == np.float64 for s in samples)


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

    # disk labels count from 1, labels and subjects are integers, and every
    # sensor value is finite
    row = " 0.5" * 127
    for label, (fname, text, match) in {
            "label0": ("y_train.txt", "1\n0\n2\n", "y_train.txt: labels count from 1"),
            "label_frac": ("y_test.txt", "1\n2.5\n", "y_test.txt: expected one integer"),
            "subject_frac": ("subject_train.txt", "1\n2\n3.5\n",
                             "subject_train.txt: expected one integer"),
            "channel_nan": ("Inertial Signals/body_acc_y_train.txt",
                            f"0.1{row}\nnan{row}\n0.2{row}\n",
                            "body_acc_y_train.txt: non-finite value"),
            "channel_inf": ("Inertial Signals/total_acc_z_test.txt",
                            f"0.1{row}\n-inf{row}\n",
                            "total_acc_z_test.txt: non-finite value")}.items():
        root = write_fake_archive(str(tmp_path / label))
        split = "test" if "test" in fname else "train"
        with open(os.path.join(root, split, fname), "w") as fh:
            fh.write(text)
        with pytest.raises(DataError, match=match):
            load_ucihar(root)


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_a_sensor_value_beyond_float32_is_refused_at_build(tmp_path, value):
    root = write_fake_archive(str(tmp_path), rows=(16, 8))
    path = os.path.join(root, "train", "Inertial Signals", "body_gyro_x_train.txt")
    mat = np.loadtxt(path)
    mat[5, 40] = value
    np.savetxt(path, mat)
    with open(os.path.join(root, "train", "subject_train.txt")) as fh:
        subject = int(fh.read().split()[5])
    # finite in float64, so the loader takes it; the CNN's float32 cast does not
    assert len(load_ucihar(root)) == 24
    cfg = make_config(dataset={"kind": "ucihar", "root": root},
                      partition={"mode": "iid_shuffle", "num_clients": 3})
    with pytest.raises(DataError, match=rf"client \d (train|test) shard: a window of subject "
                                        rf"{subject} holds a value beyond the float32 range"):
        build_experiment(cfg)


def test_samples_to_xy_casts_once_and_checks_the_range():
    samples = make_synthetic(3, 6, 4, 3.0, seed=0)
    x64, y = samples_to_xy(samples)
    x32, y32 = samples_to_xy(samples, np.float32)
    assert x32.dtype == np.float32 and np.array_equal(x32, x64.astype(np.float32))
    assert np.array_equal(y, y32)
    samples.window[3] = 3.5e38
    samples.subject[3] = 7
    assert np.isfinite(samples_to_xy(samples)[0]).all()
    with pytest.raises(DataError, match="probe: a window of subject 7 holds a value beyond"):
        samples_to_xy(samples, np.float32, "probe")
    with pytest.raises(DataError, match="probe is empty"):
        samples_to_xy(samples[:0], np.float32, "probe")


def test_class_count_table_counts_train_and_test():
    pool = labeled_pool([10, 6])
    shards = partition(pool, PartitionSpec(mode=MODE_IID, num_clients=2,
                                           train_fraction=0.5),
                       np.random.default_rng(0))
    table = class_count_table(pool.label, shards, 2)
    assert table.shape == (2, 2)
    assert table.sum() == 16
    for row, sh in zip(table, shards):
        labels = pool.label[members(sh)].tolist()
        assert row.tolist() == [labels.count(0), labels.count(1)]
