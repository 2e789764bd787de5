"""The benchmark under ``bench/`` wraps program functions by name and reads
a few module and run-object attributes.  A rename must fail here, in the
test suite, and not first in a benchmark run."""

import importlib
import os
import sys

import pytest

from fedkdx import experiment, federation
from helpers import make_config

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def import_bench(monkeypatch, name):
    """A bench module, imported read-only: no bytecode is written under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    for module in ("harness", "checks", "tracing", "workloads", "sensors"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    return importlib.import_module(name)


def test_bench_finds_every_name_it_wraps_or_reads(monkeypatch):
    tracing = import_bench(monkeypatch, "tracing")

    # building the patch list looks up every wrapped name
    patches = tracing.Tracer(1).patches()
    assert len(patches) == 30
    for module, attr, wrapper in patches:
        assert callable(getattr(module, attr)) and callable(wrapper), attr

    # harness.py picks the epoch count by this membership test
    assert federation.STRATEGY_FEDKDX in federation._DISTILLING
    assert federation.STRATEGY_FEDAVG not in federation._DISTILLING
    # checks.py compares every column but the wall time across runs
    assert "wall_seconds" in experiment.CSV_COLUMNS
    assert experiment.CSV_COLUMNS[0] == "round"


@pytest.mark.parametrize("strategy", ["FEDAVG", "FEDKDX"])
def test_harness_reads_its_attributes_off_the_run_objects(monkeypatch, tmp_path, strategy):
    harness = import_bench(monkeypatch, "harness")
    # the bench times rounds, so each row must carry its measured wall time
    cfg = make_config(strategy=strategy, rounds=1, deterministic_timing=False)
    # _measure keeps the evaluation set of a built experiment for its checks
    exp = experiment.build_experiment(cfg)
    eval_x, eval_y = exp.eval_x, exp.eval_y

    # the round clock reads server.strategy, server.local_epochs,
    # clients[c].num_train, rec.participants and rec.accuracy
    clock = harness.RoundClock()
    monkeypatch.setattr(federation, "run_round", clock.wrap(federation.run_round))
    out = str(tmp_path / "run")
    experiment.run_experiment(cfg, out)
    [timed] = clock.rounds
    assert timed.samples > 0 and 0.0 <= timed.accuracy <= 1.0

    e = harness.Experiment(0.0, clock.rounds, harness.checks.read_rows(out), False)
    assert harness._check(e, None, out, cfg, eval_x, eval_y) == []


# the traced stages that only a wrapped name's calls can fill; a hot path
# that stops calling one through its wrapped name would read 0 in the bench
CALLED = {
    "FEDKDX": ("losses.combined_loss", "nn.forward", "nn.backward", "linalg.thin_svd"),
    "FEDAVG": ("losses.ce_batch", "nn.forward", "nn.backward"),
}


@pytest.mark.parametrize("strategy", sorted(CALLED))
def test_a_run_calls_the_names_the_bench_times(monkeypatch, tmp_path, strategy):
    tracing = import_bench(monkeypatch, "tracing")
    tracer = tracing.Tracer(1)
    with tracing.installed(tracer):
        experiment.run_experiment(make_config(strategy=strategy, rounds=1), str(tmp_path / "run"))
    spans = {name for name, *_ in tracer.spans}
    assert {"federation.round", "federation.client_step"} <= spans
    for name in CALLED[strategy]:
        assert name in spans, name
