"""Command-line harness.

    fedkdx run       --config cfg.yaml --out results/ [--seed N] [--threads N]
    fedkdx partition --config cfg.yaml --out results/ [--seed N]
    fedkdx sweep     --config cfg.yaml --out results/ [--seed N [N ...]] [--threads N]

``sweep`` runs each point of the config's ``sweep:`` list at each seed into
``<label>_seed<k>/``, adding a row to ``sweep.csv`` as each run finishes.

Exit codes: 0 success, 1 runtime failure (with round context), 2 config
validation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

from .config import ConfigError, RunConfig, load_config, seed_problems, sweep_points
from .experiment import run_experiment, write_partition_table

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _add_common(p: argparse.ArgumentParser, threads: bool = True,
                seed_nargs: int | str = 1) -> None:
    p.add_argument("--config", required=True, help="YAML config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, nargs=seed_nargs, default=None,
                   help="override config seed; sweep takes a list")
    if threads:
        p.add_argument("--threads", type=int, default=1,
                       help="client threads per round (0 = auto)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedkdx",
                                     description="federated distillation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("run", help="execute one configured experiment"))
    _add_common(sub.add_parser("partition", help="write the per-client class table"),
                threads=False)
    _add_common(sub.add_parser("sweep", help="run each point of the config's sweep list"),
                seed_nargs="+")
    return parser


def _at_seeds(cfg: RunConfig, seeds: list[int] | None) -> list[RunConfig]:
    """``cfg`` at each of ``seeds``, or at its own seed when none is given."""
    if seeds is None:
        return [cfg]
    problems = [p for s in seeds for p in seed_problems(s, "--seed")]
    problems += [f"--seed: {s} given twice" for i, s in enumerate(seeds) if s in seeds[:i]]
    if problems:
        raise ConfigError(problems)
    return [dataclasses.replace(cfg, seed=s) for s in seeds]


def _load(args) -> RunConfig:
    return _at_seeds(load_config(args.config), args.seed)[0]


def _resolve_threads(n: int) -> int:
    if n < 0:
        raise ConfigError([f"--threads: must be >= 0, got {n}"])
    return n if n > 0 else (os.cpu_count() or 1)


def cmd_run(args) -> int:
    cfg = _load(args)
    summary = run_experiment(cfg, args.out, threads=_resolve_threads(args.threads))
    final = summary["final"]
    print(f"{cfg.strategy}: {summary['rounds_completed']} rounds, "
          f"final accuracy {final['accuracy']:.4f}, "
          f"results in {args.out}")
    return EXIT_OK


def cmd_partition(args) -> int:
    cfg = _load(args)
    path = write_partition_table(cfg, args.out)
    print(f"partition table written to {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    # every run is built, and so checked, before the first one starts
    runs = [(label, seeded) for label, point in sweep_points(load_config(args.config))
            for seeded in _at_seeds(point, args.seed)]
    columns = ("point", "seed", "accuracy", "f1_macro", "recall_macro", "auc_macro",
               "bytes_up", "bytes_down", "wall_seconds")
    threads = _resolve_threads(args.threads)
    os.makedirs(args.out, exist_ok=True)
    sweep_path = os.path.join(args.out, "sweep.csv")
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for label, point in runs:
            name = f"{label}_seed{point.seed}"
            summary = run_experiment(point, os.path.join(args.out, name), threads=threads)
            cells = {"point": label, "seed": point.seed, **summary["final"],
                     **summary["totals"]}
            writer.writerow([cells[c] for c in columns])
            fh.flush()
            print(f"{name}: accuracy {cells['accuracy']:.4f}")
    print(f"sweep summary written to {sweep_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "partition": cmd_partition, "sweep": cmd_sweep}[args.command]
    try:
        return handler(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
