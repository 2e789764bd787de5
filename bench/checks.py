"""Output checks run on every experiment of a benchmark run.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
import os

from fedkdx import experiment, federation, nn

UNIT_COLUMNS = ("accuracy", "f1_macro", "recall_macro", "auc_macro")
COUNT_COLUMNS = ("bytes_up", "bytes_down", "svd_fallbacks")
# every column but the measured wall time is a function of the config
DETERMINISTIC = tuple(c for c in experiment.CSV_COLUMNS if c != "wall_seconds")


def read_rows(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "metrics.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def check_metrics_csv(rows: list[dict], rounds: int, strategy: str,
                      round_walls: list[float]) -> list[str]:
    """Row count, round numbering, and every value finite and in range;
    each row's wall time must fit in the round as timed from outside."""
    problems = []
    if len(rows) != rounds:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {rounds}")
    for i, row in enumerate(rows):
        where = f"metrics.csv row {i + 1}"
        if row.get("round") != str(i + 1) or row.get("strategy") != strategy:
            problems.append(f"{where}: round/strategy {row.get('round')}/{row.get('strategy')}")
        try:
            for col in UNIT_COLUMNS:
                v = float(row[col])
                if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                    problems.append(f"{where}: {col}={v} outside [0, 1]")
            for col in COUNT_COLUMNS:
                v = int(row[col])
                if v < 0 or (col != "svd_fallbacks" and v == 0):
                    problems.append(f"{where}: {col}={v}")
            wall = float(row["wall_seconds"])
        except (KeyError, ValueError) as e:
            problems.append(f"{where}: unreadable value: {e}")
            continue
        if i < len(round_walls) and not (math.isfinite(wall) and 0.0 < wall <= round_walls[i]):
            problems.append(f"{where}: wall_seconds={wall} not within the outer "
                            f"round time {round_walls[i]}")
    return problems


def check_summary(out_dir: str, rows: list[dict]) -> list[str]:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    problems = []
    if summary.get("rounds_completed") != len(rows):
        problems.append(f"summary.json rounds_completed={summary.get('rounds_completed')}")
    for col in ("bytes_up", "bytes_down"):
        if summary.get("totals", {}).get(col) != sum(int(r[col]) for r in rows):
            problems.append(f"summary.json totals.{col} disagrees with metrics.csv")
    return problems


def check_checkpoint(out_dir: str, rows: list[dict], eval_x, eval_y) -> list[str]:
    """The saved student reloads and re-scores to the last row's accuracy, bitwise."""
    try:
        model = nn.load_checkpoint(os.path.join(out_dir, "student.ckpt"))
    except (OSError, ValueError) as e:
        return [f"student.ckpt does not reload: {e}"]
    rescored = federation.evaluate(model, eval_x, eval_y)["accuracy"]
    recorded = float(rows[-1]["accuracy"])
    if rescored != recorded:
        return [f"re-scored checkpoint accuracy {rescored!r} != last row {recorded!r}"]
    return []


def check_same_columns(rows: list[dict], reference: list[dict], what: str) -> list[str]:
    """Deterministic columns equal, row for row."""
    a = [[r[c] for c in DETERMINISTIC] for r in rows]
    b = [[r[c] for c in DETERMINISTIC] for r in reference]
    if a != b:
        return [f"deterministic columns of metrics.csv differ from {what}"]
    return []
