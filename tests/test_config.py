import copy
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedkdx.cli import main
from fedkdx.data import PartitionSpec
from fedkdx.config import (MAX_LABEL_BYTES, ConfigError, DatasetConfig, config_from_dict,
                           load_config, point_label, sweep_points)
from fedkdx.experiment import (CSV_COLUMNS, build_experiment, run_experiment,
                               version_string, write_partition_table)
from fedkdx.federation import STRATEGIES, RoundError, evaluate, run_round
from fedkdx.nn import build_cnn_har, load_checkpoint
from helpers import (SMALL_SYNTH, make_config, package_env, params_equal,
                     write_fake_archive)
from test_acceptance import STUDY_RAW


MINIMAL = {"dataset": {"kind": "synthetic"}}


def write_yaml(tmp_path, raw, name="cfg.yaml"):
    import yaml
    path = tmp_path / name
    # keys in the order given, which a sweep point's label spells
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return str(path)


def fast_raw(**overrides):
    raw = {
        "strategy": "FEDKDX", "seed": 0, "rounds": 2, "join_ratio": 0.5,
        "lr_teacher": 0.05, "lr_student": 0.05, "batch_size": 16,
        "deterministic_timing": True,
        "dataset": dict(SMALL_SYNTH),
        "partition": {"mode": "dirichlet", "num_clients": 4, "alpha": 0.5},
    }
    raw.update(overrides)
    return raw


# ------------------------------------------------------------------ parsing

def test_minimal_document_fills_defaults():
    cfg = config_from_dict(copy.deepcopy(MINIMAL))
    assert cfg.strategy == "FEDKDX"
    assert cfg.rounds == 500
    assert cfg.join_ratio == 0.4
    assert cfg.partition.num_clients == 30
    assert cfg.dataset.num_classes == 3
    assert cfg.compress is True
    assert cfg.sweep is None


def test_echo_round_trips_exactly():
    cfg = make_config(rounds=7, tau=1.25, enable_ctl=False)
    assert config_from_dict(cfg.to_dict()) == cfg
    swept = config_from_dict({**fast_raw(), "sweep": [{"join_ratio": 0.25},
                                                      {"join_ratio": 0.5}]})
    assert config_from_dict(swept.to_dict()) == swept
    nested = config_from_dict({**fast_raw(), "sweep": [
        {"strategy": "FEDKD", "partition": {"alpha": 0.5}},
        {"enable_nkd": False, "enable_ctl": False}]})
    assert config_from_dict(nested.to_dict()) == nested


# every top-level default, as the echo spells it
ECHO_TOP = {
    "strategy": "FEDKDX", "seed": 0, "rounds": 500, "join_ratio": 0.4,
    "lr_teacher": 0.01, "lr_student": 0.01, "batch_size": 32, "local_epochs": 1,
    "tau": 0.8, "gamma": 0.9, "kd_weight": 1.0, "nkd_weight": 1.0, "ctl_weight": 1.0,
    "eps_start": 0.9, "eps_end": 0.9, "enable_nkd": True, "enable_ctl": True,
    "compress": True, "wire_precision": "f32", "fedprox_mu": 0.01,
    "deterministic_timing": False,
}
ECHO_SYNTH = {"kind": "synthetic", "num_classes": 3, "dims": 6,
              "samples_per_class": 200, "separation": 3.0}
ECHO_PARTITION = {"mode": "dirichlet", "num_clients": 30, "alpha": 0.1,
                  "train_fraction": 0.8}


def test_echo_is_pinned():
    # no root for synthetic data, no sweep key when none is set
    assert config_from_dict(copy.deepcopy(MINIMAL)).to_dict() == {
        **ECHO_TOP, "dataset": ECHO_SYNTH, "partition": ECHO_PARTITION}
    har = config_from_dict({"dataset": {"kind": "ucihar", "root": "/data/har"},
                            "partition": {"mode": "by_subject"}, "rounds": 50})
    assert har.to_dict() == {
        **ECHO_TOP, "rounds": 50, "dataset": {"kind": "ucihar", "root": "/data/har"},
        "partition": {**ECHO_PARTITION, "mode": "by_subject"}}
    # the sweep echoes its entries as written
    entries = [{"join_ratio": 0.25}, {"strategy": "FEDKD", "partition": {"alpha": 1}}]
    swept = config_from_dict({**copy.deepcopy(MINIMAL), "tau": 2,
                              "sweep": copy.deepcopy(entries)})
    assert swept.to_dict() == {
        **ECHO_TOP, "tau": 2.0, "dataset": ECHO_SYNTH, "partition": ECHO_PARTITION,
        "sweep": entries}


def test_readme_config_block_lists_every_key_with_its_default():
    import yaml
    from fedkdx.config import DatasetConfig, RunConfig
    from fedkdx.data import PartitionSpec
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    block = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
    assert config_from_dict(copy.deepcopy(block)) == config_from_dict(copy.deepcopy(MINIMAL))
    assert set(block) == {f.name for f in dataclasses.fields(RunConfig)} - {"sweep"}
    assert set(block["partition"]) == {f.name for f in dataclasses.fields(PartitionSpec)}
    assert set(block["dataset"]) == {f.name for f in dataclasses.fields(DatasetConfig)} - {"root"}


def test_unknown_keys_are_reported_with_their_path():
    with pytest.raises(ConfigError) as err:
        config_from_dict({**copy.deepcopy(MINIMAL), "learning_rate": 0.1,
                          "partition": {"clients": 4}})
    msg = str(err.value)
    assert "learning_rate: unknown key" in msg
    assert "partition.clients: unknown key" in msg


def test_type_rules_bool_is_not_int_but_int_widens_to_float():
    cfg = config_from_dict({**copy.deepcopy(MINIMAL), "tau": 2})
    assert cfg.tau == 2.0 and isinstance(cfg.tau, float)
    with pytest.raises(ConfigError, match="rounds: expected int, got bool"):
        config_from_dict({**copy.deepcopy(MINIMAL), "rounds": True})
    with pytest.raises(ConfigError, match="expected float, got str"):
        config_from_dict({**copy.deepcopy(MINIMAL), "tau": "hot"})


FLOAT_KEYS = ("join_ratio", "lr_teacher", "lr_student", "tau", "gamma", "kd_weight",
              "nkd_weight", "ctl_weight", "eps_start", "eps_end", "fedprox_mu",
              "dataset.separation", "partition.alpha", "partition.train_fraction")


@pytest.mark.parametrize("path", FLOAT_KEYS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "1e400-int"])
def test_non_finite_and_oversized_floats_are_config_errors(path, value):
    raw = fast_raw()
    section, _, key = path.rpartition(".")
    (raw[section] if section else raw)[key] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.problems == [f"{path}: must be a finite number"]


def test_cli_rejects_non_finite_floats_before_running(tmp_path, capsys):
    for text in ("lr_student: .nan", "tau: 1" + "0" * 400):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"{text}\ndataset:\n  kind: synthetic\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert "must be a finite number" in captured.err
    assert not (tmp_path / "o").exists()


def test_every_problem_is_collected_into_one_report():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"dataset": {"kind": "synthetic", "num_classes": 1},
                          "rounds": 0, "join_ratio": 1.5, "bogus": 1})
    assert str(err.value).startswith("invalid configuration:\n  ")
    assert len(err.value.problems) == 4


def test_dataset_section_rules():
    with pytest.raises(ConfigError, match="dataset: required section missing"):
        config_from_dict({"rounds": 3})
    with pytest.raises(ConfigError, match="dataset.kind: required"):
        config_from_dict({"dataset": {"num_classes": 3}})
    with pytest.raises(ConfigError, match="dataset.kind: must be one of"):
        config_from_dict({"dataset": {"kind": "mnist"}})
    with pytest.raises(ConfigError, match="dataset.root: required for ucihar"):
        config_from_dict({"dataset": {"kind": "ucihar"}})
    # three classes fit a simplex in two dims; five do not
    config_from_dict({"dataset": {"kind": "synthetic", "num_classes": 3, "dims": 2}})
    with pytest.raises(ConfigError, match="dataset.dims: must be >= 4"):
        config_from_dict({"dataset": {"kind": "synthetic", "num_classes": 5, "dims": 2}})
    # ucihar root is not touched at config time; loading checks it
    cfg = config_from_dict({"dataset": {"kind": "ucihar", "root": "/nonexistent"}})
    assert cfg.dataset.root == "/nonexistent"
    # a bad section is reported once, in the config's own words
    for raw, problem in [({"rounds": 3}, "dataset: required section missing"),
                         ({"dataset": 5}, "dataset: expected dict, got int"),
                         ({"dataset": {}}, "dataset.kind: required"),
                         ({"dataset": {"kind": 3}}, "dataset.kind: expected str, got int")]:
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.problems == [problem]


@pytest.mark.parametrize("raw, problem", [
    ({"join_ratio": 0}, "join_ratio: must lie in (0, 1], got 0.0"),
    ({"dataset": {**SMALL_SYNTH, "samples_per_class": 0}},
     "dataset.samples_per_class: must be >= 1, got 0"),
    ({"dataset": {**SMALL_SYNTH, "separation": -1}},
     "dataset.separation: must be >= 0, got -1.0"),
])
def test_a_run_setting_out_of_range_names_its_path(raw, problem):
    # config is the one check of these rules: the round loop and the
    # synthetic generator take the values as given
    with pytest.raises(ConfigError) as err:
        config_from_dict({**fast_raw(), **raw})
    assert err.value.problems == [problem]


def test_a_missing_dataset_kind_hides_no_other_problem():
    for dataset, problem in (({}, "dataset.kind: required"),
                             (5, "dataset: expected dict, got int")):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"dataset": dataset, "rounds": 0, "strategy": "X",
                              "eps_start": 0.0})
        assert err.value.problems == [
            problem,
            "strategy: must be one of ('FEDAVG', 'FEDPROX', 'FEDKD', 'FEDKDX'), got 'X'",
            "rounds: must be >= 1, got 0",
            "eps_start: must lie in (0, 1], got 0.0"]


def test_every_problem_of_the_derived_objects_is_reported_with_its_path():
    raw = {**fast_raw(), "tau": -1, "gamma": 2, "kd_weight": -1, "eps_start": 2,
           "eps_end": 0, "wire_precision": "f16",
           "partition": {"num_clients": 0, "train_fraction": 2}}
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.problems == [
        "partition.num_clients: must be >= 1, got 0",
        "partition.train_fraction: must lie in (0, 1), got 2.0",
        "tau: must be positive, got -1.0",
        "gamma: must lie in [0, 1], got 2.0",
        "kd_weight: must be non-negative, got -1.0",
        "eps_start: must lie in (0, 1], got 2.0",
        "eps_end: must lie in (0, 1], got 0.0",
        "wire_precision: must be f32 or f64, got 'f16'"]
    # a direct caller still gets every problem at once
    with pytest.raises(ValueError, match="^num_clients: .*; alpha: .*"):
        PartitionSpec(mode="dirichlet", num_clients=0, alpha=None)


def test_a_non_mapping_sweep_is_reported_once():
    # a sweep is a list, and each of its entries a mapping
    for sweep, problem in ((5, "sweep: expected list, got int"),
                           (None, "sweep: expected list, got NoneType"),
                           ({"axis": "join_ratio"}, "sweep: expected list, got dict"),
                           ([5], "sweep[0]: expected dict, got int"),
                           ([{"tau": 2}, "FEDAVG"], "sweep[1]: expected dict, got str")):
        with pytest.raises(ConfigError) as err:
            config_from_dict({**copy.deepcopy(MINIMAL), "sweep": sweep})
        assert err.value.problems == [problem]


def test_derived_object_problems_surface_in_the_same_error():
    with pytest.raises(ConfigError, match="wire_precision"):
        config_from_dict({**copy.deepcopy(MINIMAL), "wire_precision": "f16"})
    with pytest.raises(ConfigError, match="eps_start"):
        config_from_dict({**copy.deepcopy(MINIMAL), "eps_start": 0.0})


def test_sweep_section_rules():
    for sweep, problem in (([], "sweep: empty list"),
                           ([{"tau": 2}, {"sweep": [{"tau": 3}]}],
                            "sweep[1]: a point cannot hold a sweep")):
        with pytest.raises(ConfigError) as err:
            config_from_dict({**copy.deepcopy(MINIMAL), "sweep": sweep})
        assert err.value.problems == [problem]
    # a base problem is reported once, unprefixed, whatever the points set;
    # a problem only a point adds carries the point's index
    with pytest.raises(ConfigError) as err:
        config_from_dict({**copy.deepcopy(MINIMAL), "rounds": 0, "sweep": [
            {"join_ratio": 0.5}, {"join_ratio": 2.0}, {"rounds": 3},
            {"strategy": "fedkd", "bogus": 1, "partition": {"alpha": True}}]})
    assert err.value.problems == [
        "rounds: must be >= 1, got 0",
        "sweep[1]: join_ratio: must lie in (0, 1], got 2.0",
        "sweep[3]: bogus: unknown key",
        "sweep[3]: partition.alpha: expected float, got bool",
        "sweep[3]: strategy: must be one of ('FEDAVG', 'FEDPROX', 'FEDKD', 'FEDKDX'), "
        "got 'fedkd'"]
    # each point is the config with its entry laid over it, nested mappings
    # key by key, at the config's seed
    cfg = config_from_dict({**fast_raw(seed=5), "sweep": [
        {"partition": {"alpha": 2}}, {"strategy": "FEDAVG", "join_ratio": 1}]})
    points = sweep_points(cfg)
    assert [label for label, _ in points] == ["partition.alpha=2",
                                              "strategy=FEDAVG+join_ratio=1"]
    base = config_from_dict(fast_raw(seed=5))
    assert points[0][1] == dataclasses.replace(
        base, partition=dataclasses.replace(base.partition, alpha=2.0))
    assert points[1][1] == dataclasses.replace(base, strategy="FEDAVG", join_ratio=1.0)
    # a config without a sweep is its own single point
    assert sweep_points(base) == [("base", base)]


def test_sweep_points_need_distinct_labels(tmp_path, capsys):
    assert point_label({"enable_nkd": False, "enable_ctl": False}) == \
        "enable_nkd=false+enable_ctl=false"
    assert point_label({"strategy": "FEDKD", "partition": {"alpha": 0.5}}) == \
        "strategy=FEDKD+partition.alpha=0.5"
    assert point_label({}) == "base"
    # floats in their shortest round-trip form: distinct values, distinct labels
    assert point_label({"join_ratio": 0.1 + 0.2}) == "join_ratio=0.30000000000000004"
    config_from_dict({**copy.deepcopy(MINIMAL),
                      "sweep": [{"join_ratio": 0.2500001}, {"join_ratio": 0.25000012}]})
    # each point writes to the directory its label names, so a repeated
    # label is refused, also where path-unsafe characters made it
    har = {"dataset": {"kind": "ucihar", "root": "/data/har"}}
    for raw, problem in (
            ({**copy.deepcopy(MINIMAL), "sweep": [
                {"join_ratio": 0.5}, {"join_ratio": 0.25}, {"join_ratio": 0.5}]},
             "sweep[2]: repeats the point join_ratio=0.5"),
            ({**copy.deepcopy(har), "sweep": [{"dataset": {"root": "/data/a b"}},
                                              {"dataset": {"root": "/data/a_b"}}]},
             "sweep[1]: repeats the point dataset.root=_data_a_b")):
        with pytest.raises(ConfigError) as err:
            config_from_dict({**raw, "rounds": 0})
        assert err.value.problems == ["rounds: must be >= 1, got 0", problem]

    out = str(tmp_path / "s")
    cfg_path = write_yaml(tmp_path, {**fast_raw(rounds=1),
                                     "sweep": [{"tau": 2.0}, {"tau": 2.0}]})
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 2
    assert "sweep[1]: repeats the point tau=2.0" in capsys.readouterr().err
    ok_path = write_yaml(tmp_path, fast_raw(rounds=1), name="ok.yaml")
    assert main(["sweep", "--config", ok_path, "--out", out,
                 "--seed", "3", "1", "3", "-2"]) == 2
    err = capsys.readouterr().err
    assert "--seed: must be >= 0, got -2" in err
    assert "--seed: 3 given twice" in err
    assert not os.path.exists(out)


def test_sweep_points_are_checked_as_they_run(tmp_path, capsys):
    # a ucihar base echoes its dataset as {kind, root}: a point that switches
    # it to synthetic is checked, and runs, with the synthetic defaults
    har = {"kind": "ucihar", "root": "x"}
    for num_classes in (5, 1):
        cfg = config_from_dict({**fast_raw(), "dataset": {**har, "num_classes": num_classes},
                                "sweep": [{"dataset": {"kind": "synthetic"}}]})
        assert cfg.dataset.num_classes == num_classes
        [(_, point)] = sweep_points(cfg)
        assert point.dataset == DatasetConfig(kind="synthetic", root="x")
    cfg_path = write_yaml(tmp_path, {**fast_raw(rounds=1), "dataset": {**har, "num_classes": 5},
                                     "sweep": [{"dataset": {"kind": "synthetic"}}]})
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "dataset.kind=synthetic_seed0" / "summary.json") as fh:
        assert json.load(fh)["config"]["dataset"]["num_classes"] == 3
    capsys.readouterr()
    # a base that names no dataset kind reports it once, not once per point
    for dataset, problem in (({"root": "x"}, "dataset.kind: required"),
                             (5, "dataset: expected dict, got int")):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"dataset": dataset,
                              "sweep": [{"join_ratio": 0.5}, {"join_ratio": 1.0}]})
        assert err.value.problems == [problem]


def test_a_point_label_too_long_for_a_file_name_is_refused(tmp_path, capsys):
    # <label>_seed<k> must fit 255 bytes for any 64-bit seed k
    root = "r" * (MAX_LABEL_BYTES - len("dataset.root="))
    config_from_dict({**fast_raw(), "sweep": [{"dataset": {"root": root}}]})
    cfg_path = write_yaml(tmp_path, {**fast_raw(rounds=1), "sweep": [
        {"join_ratio": 0.5}, {"dataset": {"kind": "ucihar", "root": "r" * 300}}]})
    out = tmp_path / "long"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    assert (f"sweep[1]: its label is 333 bytes, at most {MAX_LABEL_BYTES} fit a run "
            "directory's name") in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match=r"sweep\[0\]: its label is 231 bytes"):
        config_from_dict({**fast_raw(), "sweep": [{"dataset": {"root": root + "r"}}]})


CONFIG_DIR = Path(__file__).parent.parent / "scripts" / "configs"

# the points each committed sweep config runs
# the α study's FEDAVG trains 1 and 5 local epochs, FEDPROX 5 with mu 1.0
ALPHA_LOCAL = {"FEDAVG": ["local_epochs=1+", "local_epochs=5+"],
               "FEDPROX": ["local_epochs=5+fedprox_mu=1.0+"]}
SWEEP_LABELS = {
    "sweep_join.yaml": [f"join_ratio=0.{k}" for k in range(2, 9)],
    "sweep_components.yaml": ["enable_nkd=false+enable_ctl=false",
                              "enable_nkd=true+enable_ctl=false",
                              "enable_nkd=true+enable_ctl=true"],
    "sweep_alpha.yaml": [f"strategy={s}+{local}partition.alpha={a}"
                         for a in ("0.1", "0.5", "1.0") for s in STRATEGIES
                         for local in ALPHA_LOCAL.get(s, [""])],
}


def test_committed_configs_load_and_echo():
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        cfg = load_config(str(path))
        assert config_from_dict(cfg.to_dict()) == cfg, path.name
    # the label-skew study runs the acceptance gates' setup
    assert dataclasses.replace(load_config(str(CONFIG_DIR / "sweep_alpha.yaml")),
                               sweep=None) == config_from_dict(copy.deepcopy(STUDY_RAW))


def test_committed_sweeps_run_each_point_at_each_seed_alike_on_one_and_two_threads(
        tmp_path, capsys):
    import yaml
    assert {p.name for p in CONFIG_DIR.glob("sweep_*.yaml")} == set(SWEEP_LABELS)
    for name, labels in SWEEP_LABELS.items():
        raw = yaml.safe_load((CONFIG_DIR / name).read_text())
        cut = write_yaml(tmp_path, {**raw, "rounds": 2, "deterministic_timing": True},
                         name=name)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-t{threads}"
            assert main(["sweep", "--config", cut, "--out", str(out),
                         "--seed", "0", "1", "--threads", threads]) == 0
            outs.append(out)
        with open(outs[0] / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["point"], r["seed"]) for r in rows] == [
            (label, seed) for label in labels for seed in ("0", "1")], name
        for rel in ["sweep.csv"] + [f"{r['point']}_seed{r['seed']}/metrics.csv"
                                    for r in rows]:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel
    capsys.readouterr()


def test_committed_configs_parse_alike_with_either_yaml_loader():
    import yaml
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    paths = sorted(CONFIG_DIR.glob("*.yaml"))
    assert len(paths) == 5
    for path in paths:
        text = path.read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_load_config_file_failures(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("strategy: [unclosed\n")
    with pytest.raises(ConfigError, match="cannot parse config"):
        load_config(str(bad))
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError, match="config file is empty"):
        load_config(str(empty))
    good = write_yaml(tmp_path, fast_raw())
    assert load_config(good) == config_from_dict(fast_raw())


# ----------------------------------------------------------------- building

def test_build_gives_every_client_its_own_teacher():
    for strategy in ("FEDKD", "FEDKDX"):
        exp = build_experiment(make_config(strategy=strategy))
        assert len(exp.clients) == 4
        teachers = [st.teacher.params.flatten() for st in exp.clients.values()]
        for i in range(len(teachers)):
            for j in range(i + 1, len(teachers)):
                assert not np.array_equal(teachers[i], teachers[j])
    # the averaging strategies train a copy of the student and keep no teacher;
    # only FEDPROX reads the proximal weight
    for strategy, mu in (("FEDAVG", 0.0), ("FEDPROX", 0.25)):
        avg = build_experiment(make_config(strategy=strategy, fedprox_mu=0.25))
        assert all(st.teacher is None for st in avg.clients.values())
        assert avg.server.fedprox_mu == mu
    exp = build_experiment(make_config())
    # one student, shared by the server and every client
    for st in exp.clients.values():
        assert st.student_view is exp.server.student
    assert exp.num_classes == 3
    # default split keeps a fifth of each shard for evaluation
    assert len(exp.eval_y) == 36
    assert exp.eval_x.shape == (36, 1, 6)


def test_build_replaces_flags_for_the_plain_distillation_baseline():
    cfg = make_config(strategy="FEDKD")
    kd = build_experiment(cfg)
    assert kd.loss_cfg.enable_nkd is False and kd.loss_cfg.enable_ctl is False
    assert cfg.enable_nkd is True  # config itself is untouched
    kdx = build_experiment(make_config(strategy="FEDKDX"))
    assert kdx.loss_cfg.enable_nkd is True and kdx.loss_cfg.enable_ctl is True


def test_an_averaging_cnn_build_allocates_no_teachers(tmp_path):
    write_fake_archive(str(tmp_path), rows=(16, 8))
    cfg = make_config(strategy="FEDAVG",
                      dataset={"kind": "ucihar", "root": str(tmp_path)},
                      partition={"mode": "iid_shuffle", "num_clients": 6})
    one_cnn = build_cnn_har(9, 128, 6, seed=0).params.flatten().nbytes
    tracemalloc.start()
    try:
        exp = build_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(exp.clients) == 6
    # the student and the windows; six teachers would add six more CNNs
    assert peak < 2 * one_cnn, (peak, one_cnn)


# 24 random windows leave some class out of the evaluation set
@pytest.mark.filterwarnings("ignore:class .* has no positives")
def test_a_cnn_run_computes_in_float32_and_its_checkpoint_rescores_bitwise(tmp_path):
    write_fake_archive(str(tmp_path / "har"), rows=(16, 8))
    cfg = make_config(dataset={"kind": "ucihar", "root": str(tmp_path / "har")},
                      partition={"mode": "iid_shuffle", "num_clients": 3}, rounds=2)
    exp = build_experiment(cfg)
    assert exp.server.student.params.dtype == np.float32
    assert exp.eval_x.dtype == np.float32
    for st in exp.clients.values():
        assert st.x_train.dtype == np.float32 and st.teacher.params.dtype == np.float32
        assert {v.dtype for v in st.teacher.bn.values()} == {np.dtype(np.float32)}

    out = tmp_path / "run"
    run_experiment(cfg, str(out))
    model = load_checkpoint(str(out / "student.ckpt"))
    assert model.params.dtype == np.float32
    assert {v.dtype for v in model.bn.values()} == {np.dtype(np.float32)}
    with open(out / "metrics.csv", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    scores = evaluate(model, exp.eval_x, exp.eval_y)
    assert scores == {k: float(last[k]) for k in scores}


def test_synthetic_runs_use_the_dense_architecture():
    exp = build_experiment(make_config())
    assert exp.server.student.params.meta["in_dim"] == 6
    assert exp.server.student.params.meta["num_classes"] == 3


# ------------------------------------------------------------------ running

def test_run_experiment_writes_the_three_artifacts(tmp_path):
    out = str(tmp_path / "run")
    summary = run_experiment(config_from_dict(fast_raw(rounds=3)), out)

    with open(os.path.join(out, "metrics.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[0] == ["round", "strategy", "accuracy", "f1_macro",
                       "recall_macro", "auc_macro", "bytes_up", "bytes_down",
                       "wall_seconds", "svd_fallbacks"]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    # float cells carry full precision, so they parse back exactly
    assert float(rows[-1][2]) == summary["final"]["accuracy"]
    assert rows[1][8] == "0.0"  # deterministic timing pins the clock column

    with open(os.path.join(out, "summary.json")) as fh:
        text = fh.read()
    assert text.endswith("\n")
    loaded = json.loads(text)
    assert set(loaded) == {"version", "config", "rounds_completed", "final", "totals"}
    assert loaded["rounds_completed"] == 3
    assert loaded == summary
    assert config_from_dict(loaded["config"]) == config_from_dict(fast_raw(rounds=3))

    model = load_checkpoint(os.path.join(out, "student.ckpt"))
    assert model.params.meta["num_classes"] == 3


def test_round_failures_carry_the_round_number(tmp_path, monkeypatch):
    import fedkdx.experiment as ex

    calls = {"n": 0}
    real = run_round

    def explode(*a, **kw):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ValueError("boom")
        return real(*a, **kw)

    monkeypatch.setattr(ex.fed, "run_round", explode)
    with pytest.raises(RuntimeError, match="round 2 of 3: boom"):
        run_experiment(config_from_dict(fast_raw(rounds=3)), str(tmp_path / "x"))
    # the first round's row was already streamed out
    with open(tmp_path / "x" / "metrics.csv") as fh:
        assert len(list(csv.reader(fh))) == 2


def test_a_client_that_raises_is_named(tmp_path, monkeypatch, capsys):
    import fedkdx.experiment as ex

    real = ex.fed.client_local_step_fedkdx

    def explode(state, *a, **kw):
        if state.client_id == 2:
            raise ValueError("boom")
        return real(state, *a, **kw)

    monkeypatch.setattr(ex.fed, "client_local_step_fedkdx", explode)
    raw = fast_raw(rounds=3, join_ratio=1.0)
    for threads in (1, 2):
        with pytest.raises(RuntimeError, match=r"^round 1 of 3: client 2: boom$"):
            run_experiment(config_from_dict(raw), str(tmp_path / f"t{threads}"), threads)
    code = main(["run", "--config", write_yaml(tmp_path, raw), "--out",
                 str(tmp_path / "cli"), "--threads", "2"])
    assert code == 1
    assert capsys.readouterr().err == "error: RuntimeError: round 1 of 3: client 2: boom\n"


@pytest.mark.parametrize("strategy, compress, step", [
    ("FEDKDX", True, "client_local_step_fedkdx"),
    ("FEDKDX", False, "client_local_step_fedkdx"),
    ("FEDAVG", False, "client_local_step_fedavg"),
])
def test_a_non_finite_uplink_is_named(tmp_path, monkeypatch, strategy, compress, step):
    import fedkdx.experiment as ex

    real = getattr(ex.fed, step)

    def poison(state, *a, **kw):
        grad = real(state, *a, **kw)
        if state.client_id == 2:
            grad.layers[0].values[0, 0] = np.nan
        return grad

    monkeypatch.setattr(ex.fed, step, poison)
    raw = fast_raw(rounds=3, join_ratio=1.0, strategy=strategy, compress=compress)
    # a compressing client fails its own SVD input check; a raw uplink is
    # refused when the server decodes it
    where = "" if compress else "undecodable uplink: "
    for threads in (1, 2):
        with pytest.raises(RuntimeError, match=rf"^round 1 of 3: client 2: {where}"
                                               r"layer 'fc1.w' has non-finite values$"):
            run_experiment(config_from_dict(raw), str(tmp_path / f"t{threads}"), threads)


@pytest.mark.parametrize("compress", [True, False])
def test_a_non_finite_teacher_fails_its_round_at_the_uplink(compress):
    # the minibatch path scans no values: a NaN teacher weight poisons the
    # student gradient, and the uplink check refuses it with the client
    # named, before the student changes
    where = "" if compress else "undecodable uplink: "
    for threads in (1, 2):
        exp = build_experiment(config_from_dict(fast_raw(join_ratio=1.0, compress=compress)))
        exp.clients[2].teacher.params.layers[0].values[0, 0] = np.nan
        before = copy.deepcopy(exp.server.student.params)
        with pytest.raises(RoundError, match=rf"^client 2: {where}"
                                             r"layer 'fc1.w' has non-finite values$"):
            run_round(exp.server, exp.clients, exp.loss_cfg, exp.eval_x, exp.eval_y, threads)
        assert params_equal(exp.server.student.params, before)


def test_version_string_names_the_package():
    v = version_string()
    assert v.startswith("fedkdx-0.1.0")


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_version_string_names_only_its_own_checkout(tmp_path):
    package = Path(sys.modules[version_string.__module__].__file__).parent

    def version_of_a_copy(repo, rel):
        site = repo / rel
        shutil.copytree(package, site / "fedkdx",
                        ignore=shutil.ignore_patterns("__pycache__"))
        git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
               "-c", "commit.gpgsign=false"]
        for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "c"]):
            subprocess.run(git + args, check=True, capture_output=True)
        head = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
        probe = ("import fedkdx.experiment as e; "
                 "print(e.__file__); print(e.version_string())")
        env = {**os.environ, "PYTHONPATH": str(site), "PYTHONDONTWRITEBYTECODE": "1"}
        where, version = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                        capture_output=True, text=True).stdout.split()
        assert Path(where).is_relative_to(site)
        return version, head

    # a copy inside another repository names no commit of that repository
    version, _ = version_of_a_copy(tmp_path / "outer", "site")
    assert version == "fedkdx-0.1.0"
    # a checkout, <root>/src/fedkdx beside <root>/.git, names its own
    version, head = version_of_a_copy(tmp_path / "checkout", "src")
    commit = version.removeprefix("fedkdx-0.1.0+g")
    assert commit != version and head.startswith(commit)


def test_partition_table_lists_counts_per_client(tmp_path):
    path = write_partition_table(make_config(), str(tmp_path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["client", "class_0", "class_1", "class_2", "total"]
    assert len(rows) == 5
    body = np.array([[int(v) for v in row] for row in rows[1:]])
    assert body[:, -1].sum() == 180  # 3 classes x 60 samples
    assert (body[:, 1:-1].sum(axis=1) == body[:, -1]).all()


# ---------------------------------------------------------------------- cli

def test_cli_run_reports_and_exits_clean(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path, fast_raw())
    out = str(tmp_path / "out")
    code = main(["run", "--config", cfg_path, "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("FEDKDX: 2 rounds, final accuracy 0.")
    assert captured.out.strip().endswith(f"results in {out}")
    assert os.path.exists(os.path.join(out, "metrics.csv"))


def test_cli_config_error_exits_two(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path, {**fast_raw(), "rounds": -1})
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: invalid configuration:")
    assert captured.out == ""


def test_cli_runtime_error_exits_one(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path, {"dataset": {"kind": "ucihar",
                                                 "root": str(tmp_path / "nowhere")},
                                     "rounds": 1})
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: DataError:")


@pytest.mark.parametrize("command", ["run", "partition"])
def test_cli_negative_seed_is_a_config_error(tmp_path, capsys, command):
    cfg_path = write_yaml(tmp_path, fast_raw())
    out = tmp_path / "o"
    code = main([command, "--config", cfg_path, "--out", str(out), "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: invalid configuration:\n  --seed: must be >= 0, got -1\n"
    assert not out.exists()


def test_seeds_are_64_bit_in_the_config_and_on_the_command_line(tmp_path, capsys):
    config_from_dict(fast_raw(seed=2**64 - 1))
    with pytest.raises(ConfigError) as err:
        config_from_dict(fast_raw(seed=2**64))
    assert err.value.problems == [f"seed: must be < 2**64, got {2**64}"]
    big = write_yaml(tmp_path, fast_raw(rounds=1, seed=10**30), name="big.yaml")
    ok = write_yaml(tmp_path, fast_raw(rounds=1), name="ok.yaml")
    for command in ("run", "partition", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", big, "--out", str(out)]) == 2
        assert f"seed: must be < 2**64, got {10**30}" in capsys.readouterr().err
        assert main([command, "--config", ok, "--out", str(out), "--seed", str(2**64)]) == 2
        assert f"--seed: must be < 2**64, got {2**64}" in capsys.readouterr().err
        assert not out.exists()


def test_the_longest_label_runs_at_the_largest_seed(tmp_path):
    root = "r" * (MAX_LABEL_BYTES - len("dataset.root="))
    cfg_path = write_yaml(tmp_path, {**fast_raw(rounds=1),
                                     "sweep": [{"dataset": {"root": root}}]})
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--seed", str(2**64 - 1)]) == 0
    [run] = [name for name in os.listdir(out) if name != "sweep.csv"]
    assert run == f"dataset.root={root}_seed{2**64 - 1}" and len(run) == 255
    assert (out / run / "metrics.csv").exists()


def test_cli_seed_override_changes_the_run(tmp_path):
    cfg_path = write_yaml(tmp_path, fast_raw())
    main(["run", "--config", cfg_path, "--out", str(tmp_path / "a")])
    main(["run", "--config", cfg_path, "--out", str(tmp_path / "b"), "--seed", "0"])
    main(["run", "--config", cfg_path, "--out", str(tmp_path / "c"), "--seed", "9"])
    read = lambda d: (tmp_path / d / "metrics.csv").read_bytes()
    assert read("a") == read("b")
    assert read("a") != read("c")
    with open(tmp_path / "c" / "summary.json") as fh:
        assert json.load(fh)["config"]["seed"] == 9


def test_blas_thread_count_does_not_change_the_run(tmp_path):
    # 128 input dims make fc1.w a 128x64 matrix, large enough for OpenBLAS
    # to split its products and SVDs across threads
    dataset = {**SMALL_SYNTH, "dims": 128, "samples_per_class": 200}
    cfg_path = write_yaml(tmp_path, fast_raw(rounds=6, dataset=dataset))
    outs = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}"
        subprocess.run([sys.executable, "-m", "fedkdx.cli", "run", "--config", cfg_path,
                        "--out", str(out)], env=package_env(OPENBLAS_NUM_THREADS=blas),
                       check=True, timeout=300, capture_output=True)
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 7


# prints the minor page faults of five CNN client steps after two warm-up
# steps, with the allocator setting a run makes, or "no mallopt"
_STEP_FAULTS = """
import ctypes, resource
import numpy as np
from fedkdx import experiment
from fedkdx.nn import backward, build_cnn_har, forward
try:
    ctypes.CDLL(None).mallopt
except (OSError, AttributeError, TypeError):
    print("no mallopt")
    raise SystemExit
experiment._keep_freed_memory()
model = build_cnn_har(9, 128, 6, seed=0)
rng = np.random.default_rng(0)
x, grad_logits = rng.normal(size=(32, 9, 128)), rng.normal(size=(32, 6))
def step():
    local = model.copy()
    backward(local.params, forward(local, x, "train"), grad_logits)
for _ in range(2):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_a_run_keeps_the_memory_a_client_step_frees():
    # with glibc's default thresholds the five steps fault about 30 000
    # pages back in, the ones the step before handed back to the kernel
    out = subprocess.run([sys.executable, "-c", _STEP_FAULTS], env=package_env(),
                         check=True, timeout=120, capture_output=True, text=True)
    if out.stdout.strip() == "no mallopt":
        pytest.skip("the C library has no mallopt")
    assert int(out.stdout) < 500


_RUN_PATH_SCIPY = """
import sys
import numpy as np
from fedkdx import cli, compression, linalg
factored = []
def counted_svd(g):
    factored.append(g.shape)
    return linalg.thin_svd(g)
compression.thin_svd = counted_svd
assert cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert factored, "the run compressed no matrix"
print("run:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
gesdd = np.linalg.svd
def no_gesdd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")
# gesdd fails inside every compression SVD; the build's own SVD still runs
def failing_svd(g):
    np.linalg.svd = no_gesdd
    try:
        return counted_svd(g)
    finally:
        np.linalg.svd = gesdd
compression.thin_svd = failing_svd
factored.clear()
assert cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[3]]) == 0
assert factored, "the run compressed no matrix"
print("failed svd:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_the_run_path_loads_no_scipy_subpackage(tmp_path):
    # scipy is a test dependency only: a run loads none of it, and neither
    # does a run whose every SVD fails, as each such layer ships raw
    cfg_path = write_yaml(tmp_path, fast_raw())
    out = subprocess.run([sys.executable, "-c", _RUN_PATH_SCIPY, cfg_path,
                          str(tmp_path / "out"), str(tmp_path / "failed")],
                         env=package_env(), check=True, timeout=120,
                         capture_output=True, text=True)
    lines = out.stdout.splitlines()
    assert lines[-3].split() == ["run:"]
    assert lines[-1].split() == ["failed", "svd:"]
    with open(tmp_path / "failed" / "metrics.csv", newline="") as f:
        assert all(int(row["svd_fallbacks"]) > 0 for row in csv.DictReader(f))


def test_cli_threads_flag(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path, fast_raw())
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "t2"),
                 "--threads", "2"]) == 0
    capsys.readouterr()
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "tn"),
                 "--threads", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--threads: must be >= 0" in captured.err
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "t0"),
                 "--threads", "0"]) == 0


def test_threads_zero_means_one_per_usable_cpu(tmp_path, monkeypatch, capsys):
    from fedkdx import cli
    seen = []

    def record(cfg, out, threads):
        seen.append(threads)
        return {"rounds_completed": 0, "final": {"accuracy": 0.0}}

    # no run starts, so no thread does
    monkeypatch.setattr(cli, "run_experiment", record)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # the process may use one of the machine's two CPUs, as under taskset -c 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg_path = write_yaml(tmp_path, fast_raw())
    args = ["run", "--config", cfg_path, "--out", str(tmp_path / "out"), "--threads"]
    assert main(args + ["0"]) == 0
    # a platform with no affinity set counts every CPU
    monkeypatch.delattr(os, "sched_getaffinity")
    assert main(args + ["0"]) == 0
    assert main(args + ["3"]) == 0
    assert seen == [1, 2, 3]
    capsys.readouterr()


def test_cli_partition_command(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path, fast_raw())
    out = str(tmp_path / "p")
    assert main(["partition", "--config", cfg_path, "--out", out]) == 0
    captured = capsys.readouterr()
    expected = os.path.join(out, "partition.csv")
    assert captured.out == f"partition table written to {expected}\n"
    assert os.path.exists(expected)


def test_cli_sweep_over_join_ratios(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path, {**fast_raw(),
                                     "sweep": [{"join_ratio": 0.25}, {"join_ratio": 0.75}]})
    out = str(tmp_path / "s")
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
    captured = capsys.readouterr()
    assert "join_ratio=0.25_seed0: accuracy" in captured.out
    assert "join_ratio=0.75_seed0: accuracy" in captured.out
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["point", "seed", "accuracy", "f1_macro", "recall_macro",
                       "auc_macro", "bytes_up", "bytes_down", "wall_seconds"]
    assert [r[0] for r in rows[1:]] == ["join_ratio=0.25", "join_ratio=0.75"]
    for ratio in (0.25, 0.75):
        with open(os.path.join(out, f"join_ratio={ratio}_seed0", "summary.json")) as fh:
            assert json.load(fh)["config"]["join_ratio"] == ratio


def test_cli_sweep_without_a_sweep_runs_the_base_point(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path, fast_raw(rounds=1))
    out = tmp_path / "s1"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert [r[:2] for r in rows[1:]] == [["base", "0"]]
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 0
    assert ((tmp_path / "r" / "metrics.csv").read_bytes()
            == (out / "base_seed0" / "metrics.csv").read_bytes())
    capsys.readouterr()


def test_cli_sweep_over_components(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path, {**fast_raw(rounds=1), "sweep": [
        {"enable_nkd": False, "enable_ctl": False},
        {"enable_nkd": True, "enable_ctl": False}, {}]})
    out = str(tmp_path / "sc")
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
    flags = {}
    for d in ("enable_nkd=false+enable_ctl=false_seed0",
              "enable_nkd=true+enable_ctl=false_seed0", "base_seed0"):
        with open(os.path.join(out, d, "summary.json")) as fh:
            loaded = json.load(fh)["config"]
        assert loaded["strategy"] == "FEDKDX"
        flags[d] = (loaded["enable_nkd"], loaded["enable_ctl"])
    assert list(flags.values()) == [(False, False), (True, False), (True, True)]
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "point"
    assert len(rows) == 4


def test_cli_sweep_over_strategies_and_seeds(tmp_path):
    cfg_path = write_yaml(tmp_path, {**fast_raw(rounds=1),
                                     "sweep": [{"strategy": "FEDAVG"},
                                               {"strategy": "FEDKDX"}]})
    out = tmp_path / "st"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--seed", "4", "3"]) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["point"], r["seed"]) for r in rows] == [
        ("strategy=FEDAVG", "4"), ("strategy=FEDAVG", "3"),
        ("strategy=FEDKDX", "4"), ("strategy=FEDKDX", "3")]
    for r in rows:
        with open(out / f"{r['point']}_seed{r['seed']}" / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["config"]["strategy"] == r["point"].split("=")[1]
        assert summary["config"]["seed"] == int(r["seed"])
        assert "sweep" not in summary["config"]
        assert float(r["accuracy"]) == summary["final"]["accuracy"]
        assert int(r["bytes_up"]) == summary["totals"]["bytes_up"]
        assert int(r["bytes_down"]) == summary["totals"]["bytes_down"]
    # a point is the run its strategy and seed name
    run_path = write_yaml(tmp_path, fast_raw(rounds=1, strategy="FEDAVG"), name="run.yaml")
    assert main(["run", "--config", run_path, "--out", str(tmp_path / "r"),
                 "--seed", "3"]) == 0
    assert ((tmp_path / "r" / "metrics.csv").read_bytes()
            == (out / "strategy=FEDAVG_seed3" / "metrics.csv").read_bytes())


def test_cli_sweep_keeps_the_rows_of_finished_points_when_one_fails(tmp_path, capsys):
    # the second point's archive does not exist: valid as config, fatal at load
    missing = str(tmp_path / "no-archive")
    cfg_path = write_yaml(tmp_path, {**fast_raw(rounds=1), "sweep": [
        {"join_ratio": 0.5}, {"dataset": {"kind": "ucihar", "root": missing}},
        {"join_ratio": 1.0}]})
    out = tmp_path / "sf"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 1
    assert "missing dataset file" in capsys.readouterr().err
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "point"
    assert [r[:2] for r in rows[1:]] == [["join_ratio=0.5", "0"]]
    assert not (out / "join_ratio=1.0_seed0").exists()


def test_cli_echo_reproduces_the_run(tmp_path):
    cfg_path = write_yaml(tmp_path, fast_raw(rounds=3))
    main(["run", "--config", cfg_path, "--out", str(tmp_path / "first")])
    with open(tmp_path / "first" / "summary.json") as fh:
        echoed = json.load(fh)["config"]
    echo_path = write_yaml(tmp_path, echoed, name="echo.yaml")
    main(["run", "--config", echo_path, "--out", str(tmp_path / "second")])
    first = (tmp_path / "first" / "metrics.csv").read_bytes()
    second = (tmp_path / "second" / "metrics.csv").read_bytes()
    assert first == second
