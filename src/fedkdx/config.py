"""Run configuration: parsing, validation, and the resolved echo form.

Configs are YAML documents (JSON parses as a YAML subset, so an echoed
summary can be fed straight back in).  Validation is total before any
compute starts: every unknown key, wrong type, or out-of-range value is
reported with its dotted path, all at once, a sweep's points included.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
import typing
from dataclasses import dataclass
from types import SimpleNamespace

import yaml

from . import data
from .compression import CompressionPolicy
from .federation import STRATEGIES
from .losses import LossConfig

# libyaml's parser where PyYAML was built with it: the same documents, a
# several times faster load
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

DATASET_KINDS = ("synthetic", "ucihar")

# seeds are 64-bit, and a sweep point runs in ``<label>_seed<k>/``: the
# name must fit the usual 255-byte limit with room for any seed
SEED_LIMIT = 2**64
MAX_LABEL_BYTES = 255 - len("_seed") - len(str(SEED_LIMIT - 1))


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
    sweep: list | None = None

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
        return d


# ----------------------------------------------------------------- parsing

def _schema(cls) -> dict[str, type]:
    """The YAML type each field of a config dataclass accepts: ``X | None``
    reads as X and a nested dataclass as a mapping."""
    schema = {}
    for name, hint in typing.get_type_hints(cls).items():
        hint = next((a for a in typing.get_args(hint) if a is not type(None)), hint)
        if dataclasses.is_dataclass(hint):
            hint = dict
        schema[name] = hint
    return schema


# built once: resolving the type hints on every load would slow each run's setup
_SCHEMAS = {cls: _schema(cls)
            for cls in (RunConfig, DatasetConfig, data.PartitionSpec)}


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
    part_problems = data.PartitionSpec.problems(
        SimpleNamespace(**{**dataclasses.asdict(data.PartitionSpec()), **part}))
    problems += [f"partition.{p}" for p in part_problems]
    spec = data.PartitionSpec() if part_problems else data.PartitionSpec(**part)

    # a missing kind is already reported; the placeholder names no kind, so
    # only the checks that need none run on the dataset
    cfg = RunConfig(dataset=DatasetConfig(**{"kind": "", **ds}), partition=spec, **top)
    problems += _range_problems(cfg) + LossConfig.problems(cfg) + CompressionPolicy.problems(cfg)
    # a sweep that is not a list is already reported by its type
    if cfg.sweep is not None:
        problems += _sweep_problems(cfg, raw, problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def seed_problems(seed: int, path: str) -> list[str]:
    """The seed rule, for the config's ``seed`` and the CLI's ``--seed``."""
    if 0 <= seed < SEED_LIMIT:
        return []
    return [f"{path}: must be {'>= 0' if seed < 0 else '< 2**64'}, got {seed}"]


def _range_problems(cfg: RunConfig) -> list[str]:
    """Every run-setting rule: what is built from a config trusts its values."""
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
    problems += seed_problems(cfg.seed, "seed")
    if cfg.dataset.kind == "synthetic":
        if cfg.dataset.num_classes < 2:
            problems.append(f"dataset.num_classes: must be >= 2, got {cfg.dataset.num_classes}")
        # the class means sit on a regular simplex in num_classes-1 dims
        need = max(1, cfg.dataset.num_classes - 1)
        if cfg.dataset.dims < need:
            problems.append(f"dataset.dims: must be >= {need} for "
                            f"{cfg.dataset.num_classes} classes, got {cfg.dataset.dims}")
        if cfg.dataset.samples_per_class < 1:
            problems.append(f"dataset.samples_per_class: must be >= 1, "
                            f"got {cfg.dataset.samples_per_class}")
        if cfg.dataset.separation < 0:
            problems.append(f"dataset.separation: must be >= 0, got {cfg.dataset.separation}")
    return problems


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as e:
        raise ConfigError([f"cannot read config: {e}"]) from e
    except yaml.YAMLError as e:
        raise ConfigError([f"cannot parse config: {e}"]) from e
    if raw is None:
        raise ConfigError(["config file is empty"])
    return config_from_dict(raw)


def _merged(base: dict, entry: dict) -> dict:
    """``base`` with ``entry`` laid over it, nested mappings key by key."""
    nested = {key: _merged(base[key], value) for key, value in entry.items()
              if isinstance(value, dict) and isinstance(base.get(key), dict)}
    return {**base, **entry, **nested}


def _settings(entry: dict, prefix: str = ""):
    """Each ``key=value`` an entry sets, in the order given, with dotted
    keys for nested settings and values spelled as in YAML."""
    for key, value in entry.items():
        if isinstance(value, dict):
            yield from _settings(value, f"{prefix}{key}.")
        elif isinstance(value, str):
            yield f"{prefix}{key}={value}"
        else:
            yield f"{prefix}{key}={json.dumps(value, default=str)}"


def point_label(entry: dict) -> str:
    """The entry's settings joined by ``+``, ``base`` for none; floats keep
    their shortest round-trip form and a character unsafe in a path
    becomes ``_``."""
    return re.sub(r"[^A-Za-z0-9_.=+-]", "_", "+".join(_settings(entry))) or "base"


def _sweep_problems(cfg: RunConfig, raw: dict, base_problems: list[str]) -> list[str]:
    """What each sweep entry adds to the base's problems, prefixed by its index."""
    if not cfg.sweep:
        return ["sweep: empty list"]
    # each point is checked as sweep_points builds it; a dataset the base
    # does not resolve stays as written, so that its problem reads alike
    # in every point and is reported once
    base = dataclasses.replace(cfg, sweep=None).to_dict()
    if cfg.dataset.kind not in DATASET_KINDS:
        del base["dataset"]
        if "dataset" in raw:
            base["dataset"] = raw["dataset"]
    problems, labels = [], []
    for i, entry in enumerate(cfg.sweep):
        where = f"sweep[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: expected dict, got {type(entry).__name__}")
        elif "sweep" in entry:
            problems.append(f"{where}: a point cannot hold a sweep")
        else:
            # each point writes to the directory its label names
            label = point_label(entry)
            if label in labels:
                problems.append(f"{where}: repeats the point {label}")
            if len(label) > MAX_LABEL_BYTES:
                problems.append(f"{where}: its label is {len(label)} bytes, at most "
                                f"{MAX_LABEL_BYTES} fit a run directory's name")
            labels.append(label)
            try:
                config_from_dict(_merged(base, entry))
            except ConfigError as e:
                problems += [f"{where}: {p}" for p in e.problems if p not in base_problems]
    return problems


def sweep_points(cfg: RunConfig) -> list[tuple[str, RunConfig]]:
    """Each (label, config) the sweep runs, in the order of its entries;
    a config without a sweep is the one point ``base``."""
    if cfg.sweep is None:
        return [("base", cfg)]
    base = dataclasses.replace(cfg, sweep=None).to_dict()
    return [(point_label(entry), config_from_dict(_merged(base, entry)))
            for entry in cfg.sweep]
