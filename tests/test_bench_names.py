"""The benchmark under ``bench/`` wraps program functions by name and reads
a few module attributes.  A rename must fail here, in the test suite, and
not first in a benchmark run."""

import os
import sys

from fedkdx import experiment, federation

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_bench_finds_every_name_it_wraps_or_reads(monkeypatch):
    # import the bench read-only: no bytecode is written under bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

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
