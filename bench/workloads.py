"""The benchmark's workloads and the configs it generates for them.

Every workload is a closed loop from one process with serial clients: the
next round starts when the previous one ends.  On the 2-core machine the
workloads were sized on, cnn_fedavg with 2 client threads spread 10% in
round time across interleaved runs against 3.4% serially, so measured runs
are serial and only traced runs exercise the client thread pool.

The program seed inside each config is part of the workload and stays
fixed, so the training trajectory, and with it ``time_to_target_s``,
measures the code rather than the luck of a seed (program seeds 0-5 of the
reference config first reach 0.95 at rounds 52, 47, never, 26, 33 and 12).  The benchmark's ``--seed`` draws how the
generated files are written: the key order of the config file and the
padding of the sensor files.  The values the program reads are the
workload's alone, so the deterministic metrics repeat across seeds.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import yaml

import sensors


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                 # overrides on top of ``base_config``
    base_config: str = ""        # repo config file the workload starts from
    sensor_subjects: int = 0     # > 0: generate CNN windows for this many subjects
    sensor_per_class: int = 0
    # None: the workload trains too briefly for an accuracy target, and
    # time_to_target_s is the summed time of all its rounds
    target_accuracy: float | None = None
    # > 0: traced runs also run this many client threads, check that the
    # deterministic columns match, and take the thread-pool metrics from it
    check_threads: int = 0


WORKLOADS = {w.name: w for w in (
    # tiny tensors, many cheap rounds: per-call overhead and the Jacobi SVD
    # dominate; the only workload that trains to 0.95, so it carries time to target
    Workload(
        name="mlp_fedkdx",
        base_config="scripts/configs/synthetic_fedkdx.yaml",
        # 0.95 is first reached at round 52; the threshold schedule is flat
        # (eps 0.9 throughout), so these rounds equal the 100-round config's
        config={"rounds": 60},
        target_accuracy=0.95,
    ),
    # 1664x256 and 256x128 gradients: the large end of the SVD size range
    # beside mlp_fedkdx, plus factored packets through the codec
    Workload(
        name="cnn_fedkdx",
        config={"strategy": "FEDKDX", "seed": 0, "rounds": 1, "join_ratio": 0.5,
                "lr_teacher": 0.03, "lr_student": 0.03, "batch_size": 32,
                "compress": True, "eps_start": 0.9, "eps_end": 0.9,
                "partition": {"mode": "by_subject", "num_clients": 4}},
        sensor_subjects=8, sensor_per_class=6,
    ),
    # no SVD and no distillation loss: nn, raw 1.9 MB packets and the 24-client
    # downlink fan-out (traced runs add a 2-thread pool); SVD and loss
    # changes must not move it
    Workload(
        name="cnn_fedavg",
        config={"strategy": "FEDAVG", "seed": 0, "rounds": 6, "join_ratio": 0.25,
                "lr_teacher": 0.03, "lr_student": 0.03, "batch_size": 32,
                "compress": False,
                "partition": {"mode": "by_subject", "num_clients": 24}},
        sensor_subjects=24, sensor_per_class=6,
        check_threads=2,
    ),
)}


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _shuffled(d: dict, rng: random.Random) -> dict:
    keys = list(d)
    rng.shuffle(keys)
    return {k: _shuffled(d[k], rng) if isinstance(d[k], dict) else d[k] for k in keys}


def generate_inputs(w: Workload, repo_root: str, work_dir: str, seed: int) -> str:
    """Write the workload's input files under ``work_dir``; returns the
    path of the config file the program is given."""
    raw: dict = {}
    if w.base_config:
        with open(os.path.join(repo_root, w.base_config)) as fh:
            raw = yaml.safe_load(fh)
    raw = _merge(raw, w.config)
    if w.sensor_subjects:
        data_root = os.path.join(work_dir, "sensors")
        sensors.write_tree(data_root, seed, w.sensor_subjects, w.sensor_per_class)
        raw["dataset"] = {"kind": "ucihar", "root": data_root}
    path = os.path.join(work_dir, "config.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(_shuffled(raw, random.Random(seed)), fh, sort_keys=False)
    return path
