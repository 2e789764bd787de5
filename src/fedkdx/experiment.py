"""Wiring from a validated config to a running federation, plus the
result writers (per-round CSV, summary document, final checkpoint)."""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import functools
import json
import os
import subprocess

import numpy as np

from . import __version__, data
from . import federation as fed
from . import nn
from .config import RunConfig
from .losses import LossConfig

# one row per round: every RoundRecord field but the participant list
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(fed.RoundRecord)
                    if f.name != "participants")


@dataclasses.dataclass
class Experiment:
    server: fed.ServerState
    clients: dict[int, fed.ClientState]
    loss_cfg: LossConfig
    eval_x: np.ndarray
    eval_y: np.ndarray
    num_classes: int


def _load_samples(cfg: RunConfig) -> np.recarray:
    ds = cfg.dataset
    if ds.kind == "synthetic":
        return data.make_synthetic(ds.num_classes, ds.dims, ds.samples_per_class,
                                   ds.separation,
                                   seed=fed.derive_seed(cfg.seed, fed.STREAM_DATA))
    return data.load_ucihar(ds.root)


def _derive_shards(cfg: RunConfig
                   ) -> tuple[np.recarray, list[data.ClientShard], int]:
    """The run's record array, its client shards and its class count."""
    samples = _load_samples(cfg)
    shards = data.partition(samples, cfg.partition,
                            fed.derive_rng(cfg.seed, fed.STREAM_PARTITION))
    return samples, shards, int(samples.label.max()) + 1


def build_experiment(cfg: RunConfig) -> Experiment:
    """Materialize dataset, shards, models, and rng streams for one run.

    Everything computes in the dtype the loader stored the windows at:
    float32 for the CNN on the sensor archive, the dtype its packets carry
    by default, and float64 for the MLP on synthetic blobs.  Client shards
    and the evaluation set are gathers of the loaded windows.
    """
    samples, shards, num_classes = _derive_shards(cfg)

    channels, length = samples.window.shape[1:]
    synthetic = cfg.dataset.kind == "synthetic"

    def make_model(*tags):
        seed = fed.derive_seed(cfg.seed, *tags)
        if synthetic:
            return nn.build_mlp(channels * length, num_classes, seed)
        return nn.build_cnn_har(channels, length, num_classes, seed, samples.window.dtype)

    student = make_model(fed.STREAM_STUDENT_INIT)
    # averaging runs build no teacher; each teacher has its own stream, so no other moves
    distilling = cfg.strategy in fed._DISTILLING

    clients: dict[int, fed.ClientState] = {}
    for cid, shard in enumerate(shards):
        if not shard.train.size:
            raise data.DataError(f"client {cid} train shard is empty")
        clients[cid] = fed.ClientState(
            client_id=cid,
            teacher=make_model(fed.STREAM_TEACHER_INIT, cid) if distilling else None,
            student_view=student,
            x_train=samples.window[shard.train], y_train=samples.label[shard.train],
            rng=fed.derive_rng(cfg.seed, fed.STREAM_CLIENT, cid),
            teacher_lr=cfg.lr_teacher, batch_size=cfg.batch_size)
    test = np.concatenate([shard.test for shard in shards])
    if not test.size:
        raise data.DataError("no test samples anywhere; lower train_fraction")

    loss_cfg = cfg.loss_config()
    if cfg.strategy == fed.STRATEGY_FEDKD:
        # the plain-distillation baseline is this pipeline with the two
        # extra terms switched off; same code path by construction
        loss_cfg = dataclasses.replace(loss_cfg, enable_nkd=False, enable_ctl=False)

    server = fed.ServerState(
        student=student, strategy=cfg.strategy, policy=cfg.policy(),
        total_rounds=cfg.rounds, join_ratio=cfg.join_ratio,
        student_lr=cfg.lr_student, compress=cfg.compress,
        fedprox_mu=cfg.fedprox_mu if cfg.strategy == fed.STRATEGY_FEDPROX else 0.0,
        local_epochs=cfg.local_epochs,
        sampler_rng=fed.derive_rng(cfg.seed, fed.STREAM_SAMPLER))

    return Experiment(server=server, clients=clients, loss_cfg=loss_cfg,
                      eval_x=samples.window[test], eval_y=samples.label[test],
                      num_classes=num_classes)


# once per process: the code that runs is the code imported at its start
@functools.cache
def version_string() -> str:
    """The package version, with ``+g<git describe>`` when the package runs
    from its own checkout, ``<root>/src/fedkdx`` beside ``<root>/.git``.  A
    copy anywhere else, inside another work tree too, runs no git."""
    base = f"fedkdx-{__version__}"
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.dirname(src)
    if os.path.basename(src) != "src" or not os.path.exists(os.path.join(root, ".git")):
        return base
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0 and out.stdout.strip():
            return f"{base}+g{out.stdout.strip()}"
    except OSError:
        pass
    return base


# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep the memory one client step frees mapped for the next one.

    A CNN client step allocates and frees tens of MiB of arrays.  glibc
    returns the free top of its heap to the kernel past a trim threshold
    that rises only when a block it mapped on its own is freed, and the
    next step faults the same pages back in: 29 000 minor faults per
    cnn_fedavg round once evaluation stopped freeing 20 MiB blocks.  Fixed
    thresholds (32 MiB for an own mapping, 128 MiB of free top) keep the
    pages.  A no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def run_experiment(cfg: RunConfig, out_dir: str, threads: int = 1) -> dict:
    """Run all rounds, streaming metrics.csv; returns the summary dict
    (also written to summary.json next to the checkpoint)."""
    _keep_freed_memory()
    os.makedirs(out_dir, exist_ok=True)
    exp = build_experiment(cfg)
    records: list[fed.RoundRecord] = []
    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for _ in range(cfg.rounds):
            current = exp.server.round_index
            try:
                rec = fed.run_round(exp.server, exp.clients, exp.loss_cfg,
                                    exp.eval_x, exp.eval_y, threads=threads,
                                    measure_time=not cfg.deterministic_timing)
            except Exception as e:
                raise RuntimeError(f"round {current} of {cfg.rounds}: {e}") from e
            records.append(rec)
            writer.writerow([getattr(rec, col) for col in CSV_COLUMNS])
            fh.flush()

    final = records[-1]
    summary = {
        "version": version_string(),
        "config": cfg.to_dict(),
        "rounds_completed": len(records),
        "final": {"round": final.round, "accuracy": final.accuracy,
                  "f1_macro": final.f1_macro, "recall_macro": final.recall_macro,
                  "auc_macro": final.auc_macro},
        "totals": {"bytes_up": sum(r.bytes_up for r in records),
                   "bytes_down": sum(r.bytes_down for r in records),
                   "wall_seconds": sum(r.wall_seconds for r in records),
                   "svd_fallbacks": sum(r.svd_fallbacks for r in records)},
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    nn.save_checkpoint(exp.server.student, os.path.join(out_dir, "student.ckpt"))
    return summary


def write_partition_table(cfg: RunConfig, out_dir: str) -> str:
    """Per-client class-count CSV for distribution inspection."""
    os.makedirs(out_dir, exist_ok=True)
    samples, shards, num_classes = _derive_shards(cfg)
    table = data.class_count_table(samples.label, shards, num_classes)
    path = os.path.join(out_dir, "partition.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client"] + [f"class_{c}" for c in range(num_classes)]
                        + ["total"])
        for cid, row in enumerate(table):
            writer.writerow([cid] + [int(v) for v in row] + [int(row.sum())])
    return path
