"""Run configuration: parsing, validation, and the resolved echo form.

Configs are YAML documents (JSON parses as a YAML subset, so an echoed
summary can be fed straight back in).  Validation is total before any
compute starts: every unknown key, wrong type, or out-of-range value is
reported with its dotted path, all at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import yaml

from . import data
from .compression import CompressionPolicy
from .federation import STRATEGIES
from .losses import LossConfig

DATASET_KINDS = ("synthetic", "ucihar")
SWEEP_AXES = ("join_ratio", "components")

DEFAULT_JOIN_SWEEP = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
COMPONENT_LABELS = ("base", "base+nkd", "base+ct+nkd")


class ConfigError(ValueError):
    """One or more configuration problems; message lists all of them."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


@dataclass(frozen=True)
class DatasetConfig:
    kind: str
    num_classes: int = 3
    dims: int = 6
    samples_per_class: int = 200
    separation: float = 3.0
    root: str = ""


@dataclass(frozen=True)
class PartitionConfig:
    mode: str = data.MODE_DIRICHLET
    num_clients: int = 30
    alpha: float = 0.1
    train_fraction: float = 0.8


@dataclass(frozen=True)
class SweepConfig:
    axis: str
    values: tuple = ()


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetConfig
    partition: PartitionConfig = PartitionConfig()
    strategy: str = "FEDKDX"
    seed: int = 0
    rounds: int = 500
    join_ratio: float = 0.4
    lr_teacher: float = 0.01
    lr_student: float = 0.01
    batch_size: int = 32
    local_epochs: int = 1
    tau: float = 0.8
    gamma: float = 0.9
    kd_weight: float = 1.0
    nkd_weight: float = 1.0
    ctl_weight: float = 1.0
    eps_start: float = 0.9
    eps_end: float = 0.9
    enable_nkd: bool = True
    enable_ctl: bool = True
    compress: bool = True
    wire_precision: str = "f32"
    fedprox_mu: float = 0.01
    deterministic_timing: bool = False
    sweep: SweepConfig | None = None

    def loss_config(self) -> LossConfig:
        return LossConfig(tau=self.tau, gamma=self.gamma,
                          enable_nkd=self.enable_nkd, enable_ctl=self.enable_ctl,
                          kd_weight=self.kd_weight, nkd_weight=self.nkd_weight,
                          ctl_weight=self.ctl_weight)

    def policy(self) -> CompressionPolicy:
        return CompressionPolicy(eps_start=self.eps_start, eps_end=self.eps_end,
                                 wire_precision=self.wire_precision)

    def partition_spec(self) -> data.PartitionSpec:
        p = self.partition
        return data.PartitionSpec(mode=p.mode, num_clients=p.num_clients,
                                  alpha=p.alpha, train_fraction=p.train_fraction)

    def to_dict(self) -> dict:
        """Fully resolved echo; feeding it back reproduces this config."""
        d = {
            "strategy": self.strategy, "seed": self.seed, "rounds": self.rounds,
            "join_ratio": self.join_ratio, "lr_teacher": self.lr_teacher,
            "lr_student": self.lr_student, "batch_size": self.batch_size,
            "local_epochs": self.local_epochs, "tau": self.tau, "gamma": self.gamma,
            "kd_weight": self.kd_weight, "nkd_weight": self.nkd_weight,
            "ctl_weight": self.ctl_weight, "eps_start": self.eps_start,
            "eps_end": self.eps_end, "enable_nkd": self.enable_nkd,
            "enable_ctl": self.enable_ctl, "compress": self.compress,
            "wire_precision": self.wire_precision, "fedprox_mu": self.fedprox_mu,
            "deterministic_timing": self.deterministic_timing,
            "partition": {"mode": self.partition.mode,
                          "num_clients": self.partition.num_clients,
                          "alpha": self.partition.alpha,
                          "train_fraction": self.partition.train_fraction},
        }
        ds: dict = {"kind": self.dataset.kind}
        if self.dataset.kind == "synthetic":
            ds.update(num_classes=self.dataset.num_classes, dims=self.dataset.dims,
                      samples_per_class=self.dataset.samples_per_class,
                      separation=self.dataset.separation)
        else:
            ds["root"] = self.dataset.root
        d["dataset"] = ds
        if self.sweep is not None:
            d["sweep"] = {"axis": self.sweep.axis}
            if self.sweep.axis == "join_ratio":
                # the components axis has fixed rows, so echoing its values
                # back would be rejected on re-parse
                d["sweep"]["values"] = list(self.sweep.values)
        return d


# ----------------------------------------------------------------- parsing

_SCHEMA = {
    "strategy": str, "seed": int, "rounds": int, "join_ratio": float,
    "lr_teacher": float, "lr_student": float, "batch_size": int,
    "local_epochs": int, "tau": float, "gamma": float, "kd_weight": float,
    "nkd_weight": float, "ctl_weight": float, "eps_start": float,
    "eps_end": float, "enable_nkd": bool, "enable_ctl": bool, "compress": bool,
    "wire_precision": str, "fedprox_mu": float, "deterministic_timing": bool,
    "dataset": dict, "partition": dict, "sweep": dict,
}

_DATASET_KEYS = {"kind": str, "num_classes": int, "dims": int,
                 "samples_per_class": int, "separation": float, "root": str}
_PARTITION_KEYS = {"mode": str, "num_clients": int, "alpha": float,
                   "train_fraction": float}
_SWEEP_KEYS = {"axis": str, "values": list}


def _coerce(value, want, path, problems):
    if want is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if want is int and isinstance(value, bool):
        problems.append(f"{path}: expected {want.__name__}, got bool")
        return None
    if not isinstance(value, want):
        problems.append(f"{path}: expected {want.__name__}, got {type(value).__name__}")
        return None
    if want is float and not math.isfinite(value):
        problems.append(f"{path}: must be a finite number")
        return None
    return value


def _take_section(raw: dict, schema: dict, section: str, problems: list[str]) -> dict:
    out = {}
    for key, value in raw.items():
        path = f"{section}.{key}" if section else key
        if key not in schema:
            problems.append(f"{path}: unknown key")
            continue
        coerced = _coerce(value, schema[key], path, problems)
        if coerced is not None:
            out[key] = coerced
    return out


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError([f"top level must be a mapping, got {type(raw).__name__}"])
    problems: list[str] = []
    top = _take_section(raw, _SCHEMA, "", problems)

    if "dataset" not in raw:
        problems.append("dataset: required section missing")
    ds_raw = top.pop("dataset", {})
    ds = _take_section(ds_raw, _DATASET_KEYS, "dataset", problems)
    kind = ds.get("kind")
    if "kind" in ds and kind not in DATASET_KINDS:
        problems.append(f"dataset.kind: must be one of {DATASET_KINDS}, got {kind!r}")
    elif "dataset" in raw and "kind" not in ds_raw:
        problems.append("dataset.kind: required")
    if kind == "ucihar" and not ds.get("root"):
        problems.append("dataset.root: required for ucihar")

    part = _take_section(top.pop("partition", {}), _PARTITION_KEYS, "partition", problems)

    sweep_cfg = None
    if "sweep" in raw:
        sw = _take_section(top.pop("sweep", {}), _SWEEP_KEYS, "sweep", problems)
        axis = sw.get("axis")
        if axis not in SWEEP_AXES:
            problems.append(f"sweep.axis: must be one of {SWEEP_AXES}, got {axis!r}")
        else:
            values = sw.get("values")
            if axis == "join_ratio":
                if values is None:
                    values = list(DEFAULT_JOIN_SWEEP)
                if not values:
                    problems.append("sweep.values: empty list")
                elif not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                             and 0 < v <= 1 for v in values):
                    problems.append("sweep.values: join ratios must lie in (0, 1]")
            else:
                if values:
                    problems.append("sweep.values: the components axis has fixed rows; "
                                    "leave values unset")
                values = list(COMPONENT_LABELS)
            if not problems or all("sweep" not in p for p in problems):
                sweep_cfg = SweepConfig(axis=axis, values=tuple(values))

    cfg = None
    try:
        cfg = RunConfig(dataset=DatasetConfig(**ds), partition=PartitionConfig(**part),
                        sweep=sweep_cfg, **top)
    except (TypeError, ValueError) as e:
        problems.append(str(e))
    if cfg is not None:
        problems.extend(_range_problems(cfg))
        # constructor-level validation of the derived objects
        for build in (cfg.loss_config, cfg.policy, cfg.partition_spec):
            try:
                build()
            except ValueError as e:
                problems.append(str(e))
    if problems:
        raise ConfigError(problems)
    return cfg


def _range_problems(cfg: RunConfig) -> list[str]:
    problems = []
    if cfg.strategy not in STRATEGIES:
        problems.append(f"strategy: must be one of {STRATEGIES}, got {cfg.strategy!r}")
    if cfg.rounds < 1:
        problems.append(f"rounds: must be >= 1, got {cfg.rounds}")
    if not (0 < cfg.join_ratio <= 1):
        problems.append(f"join_ratio: must lie in (0, 1], got {cfg.join_ratio}")
    if cfg.batch_size < 1:
        problems.append(f"batch_size: must be >= 1, got {cfg.batch_size}")
    if cfg.local_epochs < 1:
        problems.append(f"local_epochs: must be >= 1, got {cfg.local_epochs}")
    if cfg.lr_teacher < 0 or cfg.lr_student < 0:
        problems.append("lr_teacher/lr_student: must be >= 0")
    if cfg.fedprox_mu < 0:
        problems.append(f"fedprox_mu: must be >= 0, got {cfg.fedprox_mu}")
    if cfg.seed < 0:
        problems.append(f"seed: must be >= 0, got {cfg.seed}")
    if cfg.dataset.kind == "synthetic":
        if cfg.dataset.num_classes < 2:
            problems.append(f"dataset.num_classes: must be >= 2, got {cfg.dataset.num_classes}")
        # the class means sit on a regular simplex in num_classes-1 dims
        need = max(1, cfg.dataset.num_classes - 1)
        if cfg.dataset.dims < need:
            problems.append(f"dataset.dims: must be >= {need} for "
                            f"{cfg.dataset.num_classes} classes, got {cfg.dataset.dims}")
        if cfg.dataset.samples_per_class < 1:
            problems.append("dataset.samples_per_class: must be >= 1")
        if cfg.dataset.separation < 0:
            problems.append(f"dataset.separation: must be >= 0, got {cfg.dataset.separation}")
    return problems


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError([f"cannot read config: {e}"]) from e
    except yaml.YAMLError as e:
        raise ConfigError([f"cannot parse config: {e}"]) from e
    if raw is None:
        raise ConfigError(["config file is empty"])
    return config_from_dict(raw)
