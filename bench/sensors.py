"""Seeded 9-channel x 128-sample windows in the recorded-sensor layout.

The tree written here is what ``fedkdx.data.load_ucihar`` reads: ``train/``
and ``test/``, each holding ``Inertial Signals/<channel>_<split>.txt`` (one
128-column row per window), ``y_<split>.txt`` (labels 1..6) and
``subject_<split>.txt``.  CNN workloads therefore go through the unchanged
loader, and reading these files is part of set-up time.

The values are a function of the workload alone: class spectra, per-window
phases and noise, each subject's gain and gravity direction, and the
split.  The seed draws only how the files spell those values (leading
padding and field separators, which the loader's whitespace split
ignores), so every seed gives the same numbers to the program.  When the
seed drew the values, the accuracy after one cnn_fedkdx round varied by
39% and the downlink bytes by 24% (quartile spread over five seeds), and
the run-to-run bounds could not hold.
"""

from __future__ import annotations

import os

import numpy as np

CHANNELS = (
    "body_acc_x", "body_acc_y", "body_acc_z",
    "body_gyro_x", "body_gyro_y", "body_gyro_z",
    "total_acc_x", "total_acc_y", "total_acc_z",
)
NUM_CLASSES = 6
WINDOW = 128
RATE_HZ = 50.0
NOISE = 0.35
TEST_SUBJECT_SHARE = 0.3

# the values come from this fixed stream, never from the benchmark's seed
_VALUES_SEED = 20260117


def _class_spectra() -> tuple[np.ndarray, np.ndarray]:
    """(frequency Hz, amplitude) per class and channel, shape (6, 9) each."""
    rng = np.random.default_rng(_VALUES_SEED)
    base = np.array([0.9, 1.6, 2.4, 3.3, 4.3, 5.4])
    freqs = base[:, None] * (1.0 + 0.12 * rng.standard_normal((NUM_CLASSES, len(CHANNELS))))
    amps = 0.4 + 1.2 * rng.random((NUM_CLASSES, len(CHANNELS)))
    return freqs, amps


def make_windows(subjects: int, per_class: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(windows (N, 9, 128), labels 0..5 (N,), subject ids 1.. (N,))."""
    freqs, amps = _class_spectra()
    rng = np.random.default_rng(np.random.SeedSequence([_VALUES_SEED, subjects, per_class]))
    t = np.arange(WINDOW) / RATE_HZ
    n = subjects * NUM_CLASSES * per_class
    labels = np.tile(np.repeat(np.arange(NUM_CLASSES), per_class), subjects)
    subject_ids = np.repeat(np.arange(1, subjects + 1), NUM_CLASSES * per_class)

    gain = rng.uniform(0.8, 1.25, subjects)[subject_ids - 1]
    gravity = rng.standard_normal((subjects, 3))
    gravity /= np.linalg.norm(gravity, axis=1, keepdims=True)
    phase = rng.uniform(0.0, 2.0 * np.pi, (n, len(CHANNELS)))
    f = freqs[labels]                                      # (N, 9)
    a = amps[labels] * gain[:, None]
    wave = np.sin(2.0 * np.pi * f[..., None] * t + phase[..., None])
    wave += 0.3 * np.sin(4.0 * np.pi * f[..., None] * t + 2.0 * phase[..., None])
    windows = a[..., None] * wave + NOISE * rng.standard_normal((n, len(CHANNELS), WINDOW))
    windows[:, 6:9, :] += gravity[subject_ids - 1][..., None]
    return windows, labels, subject_ids


def write_tree(root: str, seed: int, subjects: int, per_class: int) -> None:
    """Write the split tree under ``root``."""
    windows, labels, subject_ids = make_windows(subjects, per_class)
    rng = np.random.default_rng(np.random.SeedSequence([_VALUES_SEED, subjects, per_class, 1]))
    spelling = np.random.default_rng(seed)
    n_test = max(1, int(round(TEST_SUBJECT_SHARE * subjects)))
    test_subjects = set(rng.choice(np.arange(1, subjects + 1), n_test, replace=False).tolist())
    in_test = np.array([s in test_subjects for s in subject_ids])
    for split, mask in (("train", ~in_test), ("test", in_test)):
        rows = np.nonzero(mask)[0]
        rows = rows[rng.permutation(rows.size)]
        signals = os.path.join(root, split, "Inertial Signals")
        os.makedirs(signals, exist_ok=True)
        for ch, name in enumerate(CHANNELS):
            pad, sep = " " * spelling.integers(0, 3), " " * spelling.integers(1, 4)
            np.savetxt(os.path.join(signals, f"{name}_{split}.txt"),
                       windows[rows, ch, :], fmt=pad + "%.7e", delimiter=sep)
        for name, values in (("y", labels[rows] + 1), ("subject", subject_ids[rows])):
            pad = " " * spelling.integers(0, 3)
            np.savetxt(os.path.join(root, split, f"{name}_{split}.txt"), values, fmt=pad + "%d")
