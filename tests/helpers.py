"""Shared builders for the test suite."""

import os

import numpy as np

import fedkdx
from fedkdx.config import config_from_dict
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
