"""Command-line harness.

    fedkdx run       --config cfg.yaml --out results/ [--seed N] [--threads N]
    fedkdx partition --config cfg.yaml --out results/ [--seed N]
    fedkdx sweep     --config cfg.yaml --out results/ [--seed N [N ...]] [--threads N]

Exit codes: 0 success, 1 runtime failure (with round context), 2 config
validation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

from .config import ConfigError, RunConfig, load_config, sweep_points
from .experiment import run_experiment, write_partition_table

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _add_common(p: argparse.ArgumentParser, threads: bool = True,
                seed_nargs: str | None = None) -> None:
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
    _add_common(sub.add_parser("sweep", help="run the sweep axis from the config"),
                seed_nargs="+")
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError([f"--seed: must be >= 0, got {args.seed}"])
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


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
    axis, points = sweep_points(load_config(args.config), args.seed)
    columns = ("seed", "accuracy", "f1_macro", "recall_macro", "auc_macro",
               "bytes_up", "bytes_down", "wall_seconds")
    threads = _resolve_threads(args.threads)
    rows = []
    for label, point in points:
        name = f"{label}_seed{point.seed}"
        summary = run_experiment(point, os.path.join(args.out, name), threads=threads)
        cells = {"seed": point.seed, **summary["final"], **summary["totals"]}
        rows.append([label] + [cells[c] for c in columns])
        print(f"{name}: accuracy {cells['accuracy']:.4f}")
    sweep_path = os.path.join(args.out, "sweep.csv")
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow((axis,) + columns)
        writer.writerows(rows)
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
