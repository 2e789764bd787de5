"""Run configuration: parsing, validation, and the resolved echo form.

Configs are YAML documents (JSON parses as a YAML subset, so an echoed
summary can be fed straight back in).  Validation is total before any
compute starts: every unknown key, wrong type, or out-of-range value is
reported with its dotted path, all at once.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import typing
from dataclasses import dataclass

import yaml

from . import data
from .compression import CompressionPolicy
from .federation import STRATEGIES
from .losses import LossConfig

DATASET_KINDS = ("synthetic", "ucihar")
SWEEP_AXES = ("join_ratio", "components", "strategy")

DEFAULT_JOIN_SWEEP = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
# the rows of the components sweep: label -> (enable_nkd, enable_ctl)
COMPONENT_FLAGS = {"base": (False, False), "base+nkd": (True, False),
                   "base+ct+nkd": (True, True)}


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
class SweepConfig:
    axis: str
    values: tuple = ()


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetConfig
    partition: data.PartitionSpec = data.PartitionSpec()
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

    def _build(self, cls):
        """An instance of ``cls`` from the settings its fields name."""
        return cls(**{f.name: getattr(self, f.name) for f in dataclasses.fields(cls)})

    def loss_config(self) -> LossConfig:
        return self._build(LossConfig)

    def policy(self) -> CompressionPolicy:
        return self._build(CompressionPolicy)

    def to_dict(self) -> dict:
        """Fully resolved echo; feeding it back reproduces this config."""
        d = dataclasses.asdict(self)
        if self.dataset.kind == "synthetic":
            del d["dataset"]["root"]
        else:
            d["dataset"] = {"kind": self.dataset.kind, "root": self.dataset.root}
        if self.sweep is None:
            del d["sweep"]
        elif self.sweep.axis == "components":
            # the components axis has fixed rows, so echoing its values
            # back would be rejected on re-parse
            del d["sweep"]["values"]
        else:
            d["sweep"]["values"] = list(self.sweep.values)
        return d


# ----------------------------------------------------------------- parsing

def _schema(cls) -> dict[str, type]:
    """The YAML type each field of a config dataclass accepts: ``X | None``
    reads as X, a tuple as a list and a nested dataclass as a mapping."""
    schema = {}
    for name, hint in typing.get_type_hints(cls).items():
        hint = next((a for a in typing.get_args(hint) if a is not type(None)), hint)
        if hint is tuple:
            hint = list
        elif dataclasses.is_dataclass(hint):
            hint = dict
        schema[name] = hint
    return schema


# built once: resolving the type hints on every load would slow each run's setup
_SCHEMAS = {cls: _schema(cls)
            for cls in (RunConfig, DatasetConfig, data.PartitionSpec, SweepConfig)}


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


def _take_section(raw: dict, cls: type, section: str, problems: list[str]) -> dict:
    schema = _SCHEMAS[cls]
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


def _sweep_point(axis: str, value) -> tuple[str, dict]:
    """The label of a sweep point and the settings it overrides."""
    if axis == "join_ratio":
        return f"join_{value:g}", {"join_ratio": float(value)}
    if axis == "strategy":
        return value.lower(), {"strategy": value}
    nkd, ctl = COMPONENT_FLAGS[value]
    return value.replace("+", "_"), {"strategy": "FEDKDX", "enable_nkd": nkd,
                                     "enable_ctl": ctl}


def _sweep_values(axis: str, values, problems: list[str]) -> tuple:
    """The points of a valid axis; ``values`` as given, None when unset."""
    if axis == "components":
        if values:
            problems.append("sweep.values: the components axis has fixed rows; "
                            "leave values unset")
        return tuple(COMPONENT_FLAGS)
    if values is None:
        values = DEFAULT_JOIN_SWEEP if axis == "join_ratio" else STRATEGIES
    if not values:
        problems.append("sweep.values: empty list")
    elif axis == "join_ratio" and not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v <= 1
            for v in values):
        problems.append("sweep.values: join ratios must lie in (0, 1]")
    elif axis == "strategy" and not all(v in STRATEGIES for v in values):
        problems.append(f"sweep.values: strategies must be among {STRATEGIES}, "
                        f"got {list(values)!r}")
    else:
        # each point writes to a directory named by its label, so two values
        # with one label would overwrite each other's artifacts
        labels = [_sweep_point(axis, v)[0] for v in values]
        problems += [f"sweep.values: {v!r} repeats the point {label}"
                     for i, (v, label) in enumerate(zip(values, labels))
                     if label in labels[:i]]
    return tuple(values)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError([f"top level must be a mapping, got {type(raw).__name__}"])
    problems: list[str] = []
    top = _take_section(raw, RunConfig, "", problems)

    if "dataset" not in raw:
        problems.append("dataset: required section missing")
    ds_raw = top.pop("dataset", None)
    ds = _take_section(ds_raw or {}, DatasetConfig, "dataset", problems)
    kind = ds.get("kind")
    if "kind" in ds and kind not in DATASET_KINDS:
        problems.append(f"dataset.kind: must be one of {DATASET_KINDS}, got {kind!r}")
    elif ds_raw is not None and "kind" not in ds_raw:
        problems.append("dataset.kind: required")
    if kind == "ucihar" and not ds.get("root"):
        problems.append("dataset.root: required for ucihar")

    part = _take_section(top.pop("partition", {}), data.PartitionSpec, "partition", problems)
    try:
        spec = data.PartitionSpec(**part)
    except ValueError as e:
        problems.append(str(e))
        spec = data.PartitionSpec()

    sweep_cfg = None
    # a sweep that is not a mapping is already reported by its type
    if "sweep" in top:
        sw = _take_section(top.pop("sweep"), SweepConfig, "sweep", problems)
        axis = sw.get("axis")
        if axis not in SWEEP_AXES:
            problems.append(f"sweep.axis: must be one of {SWEEP_AXES}, got {axis!r}")
        else:
            sweep_cfg = SweepConfig(axis=axis,
                                    values=_sweep_values(axis, sw.get("values"), problems))

    # a missing kind is already reported; the placeholder names no kind, so
    # only the checks that need none run on the dataset
    cfg = RunConfig(dataset=DatasetConfig(**{"kind": "", **ds}), partition=spec,
                    sweep=sweep_cfg, **top)
    problems.extend(_range_problems(cfg))
    # constructor-level validation of the derived objects
    for build in (cfg.loss_config, cfg.policy):
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


def sweep_points(cfg: RunConfig, seeds: list[int] | None = None
                 ) -> tuple[str, list[tuple[str, RunConfig]]]:
    """The sweep's axis and each (label, config) it runs, every value of
    the axis once at each seed, a value's seeds in a row.

    A config without a ``sweep:`` section sweeps the join ratios of
    ``DEFAULT_JOIN_SWEEP``; without ``seeds`` every point runs at the
    config's own seed.
    """
    sweep = cfg.sweep or SweepConfig(axis="join_ratio", values=DEFAULT_JOIN_SWEEP)
    seeds = [cfg.seed] if seeds is None else seeds
    problems = [f"--seed: must be >= 0, got {s}" for s in seeds if s < 0]
    problems += [f"--seed: {s} given twice" for i, s in enumerate(seeds)
                 if s in seeds[:i]]
    if problems:
        raise ConfigError(problems)
    points = []
    for value in sweep.values:
        label, settings = _sweep_point(sweep.axis, value)
        points += [(label, dataclasses.replace(cfg, sweep=None, seed=s, **settings))
                   for s in seeds]
    return sweep.axis, points
