"""One benchmark run of one workload.

Generate the workload's inputs, time set-up, then run whole experiments
through ``experiment.run_experiment`` back to back until the run's seconds
are used, check every output, and report the metrics.  The only thing on
the measured path of an untraced run is a clock around each
``federation.run_round`` call.  A traced run starts with one untraced
experiment as the baseline for ``trace.overhead``; the rest are traced.
A workload with ``check_threads`` then runs once more on a client thread
pool, which must write the same deterministic columns and gives the
thread-pool metrics.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy

from fedkdx import config, experiment, federation

import checks
import tracing
import workloads

SETUP_REPEATS = 7


@dataclass
class Round:
    wall: float
    accuracy: float
    samples: int


class RoundClock:
    """Times each ``run_round`` call from outside the program."""

    def __init__(self):
        self.rounds: list[Round] = []

    def wrap(self, run_round):
        @functools.wraps(run_round)
        def timed(server, clients, *args, **kwargs):
            t0 = time.perf_counter()
            rec = run_round(server, clients, *args, **kwargs)
            wall = time.perf_counter() - t0
            # one epoch for the distilling strategies, local_epochs for the averaging ones
            epochs = 1 if server.strategy in federation._DISTILLING else server.local_epochs
            samples = epochs * sum(clients[c].num_train for c in rec.participants)
            self.rounds.append(Round(wall, rec.accuracy, samples))
            return rec
        return timed


@dataclass
class Experiment:
    run_s: float
    rounds: list[Round]
    rows: list[dict]             # metrics.csv
    traced: bool


def machine_facts(check_threads: int, loadavg_start: tuple) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "client_threads": 1,
        "check_threads": check_threads,
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
    }


def time_to_target(rounds: list[Round], target: float | None) -> float | None:
    """Summed round time until accuracy first reaches ``target``; None if it
    never does.  Without a target, the summed time of every round."""
    elapsed = 0.0
    for r in rounds:
        elapsed += r.wall
        if target is not None and r.accuracy >= target:
            return elapsed
    return None if target is not None else elapsed


def run(name: str, seed: int, seconds: int, trace: bool, repo_root: str) -> int:
    w = workloads.WORKLOADS[name]
    loadavg_start = os.getloadavg()
    work = os.path.join(repo_root, ".bench_work", f"{name}-{os.getpid()}")
    out_dir = os.path.join(repo_root, ".bench_out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    try:
        metrics, attempted, problems, tracer, detail = _measure(w, seed, seconds, trace,
                                                                repo_root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts = machine_facts(w.check_threads, loadavg_start)

    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}")
    if tracer is not None:
        tracing.write_spans(tracer, stem + "-spans.jsonl")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for key, (value, unit) in metrics.items():
        print(f"{key:36s} {value:.6g} {unit}")
    print("machine " + json.dumps(facts))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, workload=name, seed=seed, machine=facts, problems=problems,
                       detail=detail), fh, indent=2)
    print(json.dumps(result))
    return 0 if not problems else 1


def _measure(w: workloads.Workload, seed: int, seconds: int, trace: bool, repo_root: str,
             work: str):
    cfg_path = workloads.generate_inputs(w, repo_root, work, seed)

    # a full collection before each timed section starts it from the same
    # collector state; otherwise whether a full pass lands inside the 10 ms
    # mlp set-up varies from process to process
    setup, exp = [], None
    for _ in range(SETUP_REPEATS):
        exp = None  # one experiment in memory at a time, as in a real run
        gc.collect()
        t0 = time.perf_counter()
        cfg = config.load_config(cfg_path)
        exp = experiment.build_experiment(cfg)
        setup.append(time.perf_counter() - t0)
    eval_x, eval_y = exp.eval_x, exp.eval_y
    del exp

    clock = RoundClock()
    federation.run_round = clock.wrap(federation.run_round)
    tracer = tracing.Tracer(threads=1) if trace else None

    problems: list[str] = []
    exps: list[Experiment] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(exps) > 0
        exp_dir = os.path.join(work, f"experiment{len(exps)}")
        first = len(clock.rounds)
        gc.collect()
        t0 = time.perf_counter()
        try:
            with tracing.installed(tracer) if traced else contextlib.nullcontext():
                experiment.run_experiment(cfg, exp_dir, threads=1)
        except Exception as err:  # a failed round is a measured outcome
            problems.append(f"experiment {len(exps)}: {type(err).__name__}: {err}")
            attempted = sum(len(x.rounds) for x in exps) + len(clock.rounds) - first + 1
            ratio = (attempted - len(problems)) / attempted
            return {"completed_round_ratio": (ratio, "ratio")}, attempted, problems, tracer, {}
        run_s = time.perf_counter() - t0
        e = Experiment(run_s, clock.rounds[first:], checks.read_rows(exp_dir), traced)
        problems += _check(e, exps[0] if exps else None, exp_dir, cfg, eval_x, eval_y)
        exps.append(e)
        shutil.rmtree(exp_dir)
        enough = len(exps) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start >= seconds:
            break

    pool = None
    if tracer is not None and w.check_threads:
        pool = tracing.Tracer(threads=w.check_threads)
        pool_dir = os.path.join(work, "threads")
        first = len(clock.rounds)
        try:
            with tracing.installed(pool):
                experiment.run_experiment(cfg, pool_dir, threads=w.check_threads)
        except Exception as err:
            problems.append(f"run with {w.check_threads} threads: {type(err).__name__}: {err}")
        else:
            problems += checks.check_same_columns(checks.read_rows(pool_dir), exps[0].rows,
                                                  f"a run with {w.check_threads} client threads")
        del clock.rounds[first:]

    attempted = sum(len(e.rounds) for e in exps)
    detail = {"setup_s": setup, "run_s": [e.run_s for e in exps],
              "round_s": [[r.wall for r in e.rounds] for e in exps]}
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer)
        if pool is not None:
            pooled = tracing.layer_metrics(pool)
            for key in ("federation.thread_idle_share", "federation.client_pool.self_share"):
                metrics[key] = pooled[key]
        base = statistics.median(r.wall for r in exps[0].rounds)
        traced_rounds = [r.wall for e in exps if e.traced for r in e.rounds]
        metrics["trace.overhead"] = (statistics.median(traced_rounds) / base, "ratio")
        return metrics, attempted, problems, tracer, detail

    ttt = [time_to_target(e.rounds, w.target_accuracy) for e in exps]
    if None in ttt:
        problems.append(f"accuracy never reached the target {w.target_accuracy}")
    rounds = [r for e in exps for r in e.rounds]
    rows = exps[0].rows
    walls = [r.wall for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "round_s": (statistics.median(walls), "s"),
        "samples_per_s": (sum(r.samples for r in rounds) / sum(walls), "samples/s"),
        "run_s": (statistics.median(e.run_s for e in exps), "s"),
        "time_to_target_s": (statistics.median(t for t in ttt if t is not None)
                             if any(t is not None for t in ttt) else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "final_accuracy": (float(rows[-1]["accuracy"]), "fraction"),
        "bytes_up_per_round": (statistics.fmean(int(r["bytes_up"]) for r in rows), "B"),
        "bytes_down_per_round": (statistics.fmean(int(r["bytes_down"]) for r in rows), "B"),
        "completed_round_ratio": (max(0.0, (attempted - len(problems)) / attempted), "ratio"),
    }
    # the highest percentile with at least ten samples beyond it
    tail = f"; p90 {np.percentile(walls, 90):.6g} s" if len(walls) >= 100 else ""
    print(f"round_s over {len(walls)} rounds in {len(exps)} experiments{tail}")
    return metrics, attempted, problems, None, detail


def _check(e: Experiment, first: Experiment | None, exp_dir: str, cfg, eval_x, eval_y
           ) -> list[str]:
    problems = checks.check_metrics_csv(e.rows, cfg.rounds, cfg.strategy,
                                        [r.wall for r in e.rounds])
    if problems:
        return problems
    problems += checks.check_summary(exp_dir, e.rows)
    problems += checks.check_checkpoint(exp_dir, e.rows, eval_x, eval_y)
    if first is not None:
        problems += checks.check_same_columns(e.rows, first.rows, "the run's first experiment")
    return problems
