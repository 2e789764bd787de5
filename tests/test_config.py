import copy
import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedkdx.cli import main
from fedkdx.config import (ConfigError, DEFAULT_JOIN_SWEEP, config_from_dict,
                           load_config, sweep_points)
from fedkdx.experiment import (CSV_COLUMNS, build_experiment, run_experiment,
                               version_string, write_partition_table)
from fedkdx.federation import STRATEGIES, RoundError, evaluate, run_round
from fedkdx.nn import build_cnn_har, load_checkpoint
from helpers import SMALL_SYNTH, make_config, package_env, params_equal
from test_acceptance import STUDY_RAW
from test_data import write_fake_archive


MINIMAL = {"dataset": {"kind": "synthetic"}}


def write_yaml(tmp_path, raw, name="cfg.yaml"):
    import yaml
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
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
    swept = config_from_dict({**fast_raw(), "sweep": {"axis": "join_ratio",
                                                      "values": [0.25, 0.5]}})
    assert config_from_dict(swept.to_dict()) == swept
    comp = config_from_dict({**fast_raw(), "sweep": {"axis": "components"}})
    assert config_from_dict(comp.to_dict()) == comp


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
    swept = config_from_dict({**copy.deepcopy(MINIMAL), "tau": 2,
                              "sweep": {"axis": "join_ratio", "values": [0.25, 0.5]}})
    assert swept.to_dict() == {
        **ECHO_TOP, "tau": 2.0, "dataset": ECHO_SYNTH, "partition": ECHO_PARTITION,
        "sweep": {"axis": "join_ratio", "values": [0.25, 0.5]}}
    comp = config_from_dict({**copy.deepcopy(MINIMAL), "sweep": {"axis": "components"}})
    assert comp.to_dict()["sweep"] == {"axis": "components"}


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
            "eps_start must lie in (0, 1], got 0.0"]


def test_a_non_mapping_sweep_is_reported_once():
    for sweep, kind in ((5, "int"), (None, "NoneType"), ([], "list")):
        with pytest.raises(ConfigError) as err:
            config_from_dict({**copy.deepcopy(MINIMAL), "sweep": sweep})
        assert err.value.problems == [f"sweep: expected dict, got {kind}"]


def test_derived_object_problems_surface_in_the_same_error():
    with pytest.raises(ConfigError, match="wire_precision"):
        config_from_dict({**copy.deepcopy(MINIMAL), "wire_precision": "f16"})
    with pytest.raises(ConfigError, match="eps_start"):
        config_from_dict({**copy.deepcopy(MINIMAL), "eps_start": 0.0})


def test_sweep_section_rules():
    cfg = config_from_dict({**copy.deepcopy(MINIMAL),
                            "sweep": {"axis": "join_ratio"}})
    assert cfg.sweep.values == DEFAULT_JOIN_SWEEP
    comp = config_from_dict({**copy.deepcopy(MINIMAL),
                             "sweep": {"axis": "components"}})
    assert comp.sweep.values == ("base", "base+nkd", "base+ct+nkd")
    with pytest.raises(ConfigError, match="sweep.axis: must be one of"):
        config_from_dict({**copy.deepcopy(MINIMAL), "sweep": {"axis": "lr"}})
    with pytest.raises(ConfigError, match=r"join ratios must lie in \(0, 1\]"):
        config_from_dict({**copy.deepcopy(MINIMAL),
                          "sweep": {"axis": "join_ratio", "values": [0.5, 2.0]}})
    with pytest.raises(ConfigError, match=r"join ratios must lie in \(0, 1\]"):
        config_from_dict({**copy.deepcopy(MINIMAL),
                          "sweep": {"axis": "join_ratio", "values": [True, 0.5]}})
    with pytest.raises(ConfigError, match="fixed rows"):
        config_from_dict({**copy.deepcopy(MINIMAL),
                          "sweep": {"axis": "components", "values": ["base"]}})
    strat = config_from_dict({**copy.deepcopy(MINIMAL), "sweep": {"axis": "strategy"}})
    assert strat.sweep.values == STRATEGIES
    with pytest.raises(ConfigError) as err:
        config_from_dict({**copy.deepcopy(MINIMAL), "rounds": 0,
                          "sweep": {"axis": "strategy", "values": ["FEDAVG", "fedkd"]}})
    assert err.value.problems == [
        "sweep.values: strategies must be among ('FEDAVG', 'FEDPROX', 'FEDKD', "
        "'FEDKDX'), got ['FEDAVG', 'fedkd']",
        "rounds: must be >= 1, got 0"]


def test_sweep_points_need_distinct_labels(tmp_path, capsys):
    # a join point is labelled with 6 significant digits, and each point
    # writes to the directory its label names
    for axis, values, problem in (
            ("join_ratio", [0.2500001, 0.25000012],
             "sweep.values: 0.25000012 repeats the point join_0.25"),
            ("join_ratio", [0.5, 0.25, 0.5],
             "sweep.values: 0.5 repeats the point join_0.5"),
            ("strategy", ["FEDKD", "FEDAVG", "FEDKD"],
             "sweep.values: 'FEDKD' repeats the point fedkd")):
        with pytest.raises(ConfigError) as err:
            config_from_dict({**copy.deepcopy(MINIMAL), "rounds": 0,
                              "sweep": {"axis": axis, "values": values}})
        assert err.value.problems == [problem, "rounds: must be >= 1, got 0"]

    out = str(tmp_path / "s")
    cfg_path = write_yaml(tmp_path, {**fast_raw(rounds=1),
                                     "sweep": {"axis": "join_ratio",
                                               "values": [0.2500001, 0.25000012]}})
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 2
    assert "0.25000012 repeats the point join_0.25" in capsys.readouterr().err
    ok_path = write_yaml(tmp_path, fast_raw(rounds=1), name="ok.yaml")
    assert main(["sweep", "--config", ok_path, "--out", out,
                 "--seed", "3", "1", "3", "-2"]) == 2
    err = capsys.readouterr().err
    assert "--seed: must be >= 0, got -2" in err
    assert "--seed: 3 given twice" in err
    assert not os.path.exists(out)


# the points each committed sweep config runs
SWEEP_LABELS = {
    "sweep_join.yaml": ("join_ratio", ["join_0.2", "join_0.3", "join_0.4", "join_0.5",
                                       "join_0.6", "join_0.7", "join_0.8"]),
    "sweep_components.yaml": ("components", ["base", "base_nkd", "base_ct_nkd"]),
    "sweep_strategy.yaml": ("strategy", ["fedavg", "fedprox", "fedkd", "fedkdx"]),
}


def test_committed_configs_load_echo_and_expand():
    config_dir = Path(__file__).parent.parent / "scripts" / "configs"
    sweeps = set()
    for path in sorted(config_dir.glob("*.yaml")):
        cfg = load_config(str(path))
        assert config_from_dict(cfg.to_dict()) == cfg, path.name
        if cfg.sweep is not None:
            axis, points = sweep_points(cfg)
            assert (axis, [label for label, _ in points]) == SWEEP_LABELS[path.name]
            sweeps.add(path.name)
    assert sweeps == set(SWEEP_LABELS)
    # the strategy study runs the acceptance gates' setup
    assert load_config(str(config_dir / "sweep_strategy.yaml")) == config_from_dict(
        {**copy.deepcopy(STUDY_RAW), "sweep": {"axis": "strategy"}})


def test_committed_configs_parse_alike_with_either_yaml_loader():
    import yaml
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    paths = sorted((Path(__file__).parent.parent / "scripts" / "configs").glob("*.yaml"))
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


def test_cli_import_leaves_out_the_signal_toolbox():
    # nothing on a run path filters or windows raw streams, so the CLI
    # must not pay for importing scipy.signal
    probe = "import sys, fedkdx.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=package_env(),
                         check=True, timeout=120, capture_output=True, text=True)
    assert out.stdout.strip() == "False"


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
                                     "sweep": {"axis": "join_ratio",
                                               "values": [0.25, 0.75]}})
    out = str(tmp_path / "s")
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
    captured = capsys.readouterr()
    assert "join_0.25_seed0: accuracy" in captured.out
    assert "join_0.75_seed0: accuracy" in captured.out
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["join_ratio", "seed", "accuracy", "f1_macro", "recall_macro",
                       "auc_macro", "bytes_up", "bytes_down", "wall_seconds"]
    assert [r[0] for r in rows[1:]] == ["join_0.25", "join_0.75"]
    for d in ("join_0.25_seed0", "join_0.75_seed0"):
        assert os.path.exists(os.path.join(out, d, "summary.json"))


def test_cli_sweep_defaults_to_seven_join_points(tmp_path):
    cfg_path = write_yaml(tmp_path, fast_raw(rounds=1))
    out = str(tmp_path / "s7")
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == [f"join_{v:g}" for v in DEFAULT_JOIN_SWEEP]


def test_cli_sweep_over_components(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path, {**fast_raw(rounds=1),
                                     "sweep": {"axis": "components"}})
    out = str(tmp_path / "sc")
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
    for d in ("base_seed0", "base_nkd_seed0", "base_ct_nkd_seed0"):
        with open(os.path.join(out, d, "summary.json")) as fh:
            loaded = json.load(fh)
        assert loaded["config"]["strategy"] == "FEDKDX"
    with open(os.path.join(out, "base_seed0", "summary.json")) as fh:
        assert json.load(fh)["config"]["enable_nkd"] is False
    with open(os.path.join(out, "base_ct_nkd_seed0", "summary.json")) as fh:
        assert json.load(fh)["config"]["enable_ctl"] is True
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "components"
    assert len(rows) == 4


def test_cli_sweep_over_strategies_and_seeds(tmp_path):
    cfg_path = write_yaml(tmp_path, {**fast_raw(rounds=1),
                                     "sweep": {"axis": "strategy",
                                               "values": ["FEDAVG", "FEDKDX"]}})
    out = tmp_path / "st"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--seed", "4", "3"]) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["strategy"], r["seed"]) for r in rows] == [
        ("fedavg", "4"), ("fedavg", "3"), ("fedkdx", "4"), ("fedkdx", "3")]
    for r in rows:
        with open(out / f"{r['strategy']}_seed{r['seed']}" / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["config"]["strategy"] == r["strategy"].upper()
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
            == (out / "fedavg_seed3" / "metrics.csv").read_bytes())


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
