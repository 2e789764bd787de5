"""Shared builders for the test suite."""

import os

import numpy as np

import fedkdx
from fedkdx.config import config_from_dict
from fedkdx.data import HAR_CHANNELS
from fedkdx.experiment import build_experiment

# small enough to keep every federated test under a second per round
SMALL_SYNTH = {
    "kind": "synthetic",
    "num_classes": 3,
    "dims": 6,
    "samples_per_class": 60,
    "separation": 3.0,
}


def make_config(**overrides):
    """RunConfig for a small synthetic experiment; overrides are raw
    config-dict keys (nested sections replace wholesale)."""
    raw = {
        "strategy": "FEDKDX",
        "seed": 0,
        "rounds": 3,
        "join_ratio": 0.5,
        "lr_teacher": 0.05,
        "lr_student": 0.05,
        "batch_size": 16,
        "deterministic_timing": True,
        "dataset": dict(SMALL_SYNTH),
        "partition": {"mode": "dirichlet", "num_clients": 4, "alpha": 0.5},
    }
    raw.update(overrides)
    return config_from_dict(raw)


def write_fake_archive(root, nested=False, rows=(3, 2), cols=128,
                       break_channel=None, drop_file=None):
    """A seeded recorded-sensor tree under ``root``: random sensor rows,
    labels 1-6 and subjects 1-30; ``break_channel`` gets one column too few
    and the file whose path holds ``drop_file`` is left out."""
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


def make_experiment(**overrides):
    return build_experiment(make_config(**overrides))


def rel_err(analytic, numeric, floor=1e-4):
    """Elementwise relative error with an absolute floor, so near-zero
    coordinates are judged on absolute terms."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return np.abs(a - n) / denom


def params_equal(a, b):
    """Bitwise equality of two ModelParams."""
    if a.names() != b.names():
        return False
    return all(np.array_equal(la.values, lb.values)
               for la, lb in zip(a.layers, b.layers))


def package_env(**extra) -> dict[str, str]:
    """The environment of a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(fedkdx.__file__))
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}
