"""Byte identity of a fixed list of short runs against another checkout.

    python scripts/identity.py --parent <checkout of the parent commit>

Runs each run of ``RUNS`` through this tree and through the parent, at
``--threads`` 1 and 2 and at ``OPENBLAS_NUM_THREADS`` 1 and 2.  Each side
runs in a child interpreter with its own ``src`` first on ``PYTHONPATH``;
both read the same config files and the same data root.  Prints, per
output file, whether the parent's and this tree's are equal:
``metrics.csv`` and ``student.ckpt`` byte for byte, ``summary.json``
without ``version``.  Exits 1 on any difference or failed run.

The CNN runs and the synthetic FEDKDX runs take their settings and sensor
trees from the bench's workloads (``bench/workloads.py``), with the round
count and wire precision laid over them; ``bench/`` is imported without
writing bytecode, and everything the script writes goes to a temporary
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import yaml

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the bench's workload settings and the sensor generator, read without
# writing bytecode under bench/
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(HERE, "bench"))
import sensors  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _workload(name: str, **overrides):
    """A bench workload's (base config file or None, settings with
    ``overrides`` laid over them, (subjects, windows per class) of its
    sensor tree or None)."""
    w = WORKLOADS[name]
    tree = (w.sensor_subjects, w.sensor_per_class) if w.sensor_subjects else None
    return w.base_config or None, {**w.config, **overrides}, tree


# name -> (base config file or None, overrides, sensor tree or None)
RUNS = {
    "mlp_fedkdx_f32": _workload("mlp_fedkdx", rounds=60, wire_precision="f32"),
    "mlp_fedkdx_f64": _workload("mlp_fedkdx", rounds=60, wire_precision="f64"),
    "cnn_fedkdx": _workload("cnn_fedkdx", rounds=3),
    "cnn_fedavg": _workload("cnn_fedavg", rounds=3),
    # the CNN's per-layer proximal pull, and its teacher step without NKD and CTL
    "cnn_fedprox": _workload("cnn_fedavg", strategy="FEDPROX", local_epochs=2,
                             fedprox_mu=0.1, rounds=2),
    "cnn_fedkd": _workload("cnn_fedkdx", strategy="FEDKD", rounds=2),
    # unequal shard weights and a multi-epoch private copy on the averaging path
    "mlp_fedavg_e5": ("scripts/configs/sweep_alpha.yaml",
                      {"strategy": "FEDAVG", "local_epochs": 5, "rounds": 30}, None),
    "mlp_fedprox_e5": ("scripts/configs/sweep_alpha.yaml",
                       {"strategy": "FEDPROX", "local_epochs": 5, "fedprox_mu": 1.0,
                        "rounds": 30}, None),
}
THREADS = ("1", "2")
BLAS_THREADS = ("1", "2")
OUTPUTS = ("metrics.csv", "summary.json", "student.ckpt")

# the child checks that it runs the package of the side it stands for
CHILD = ("import sys, fedkdx.cli\n"
         "assert fedkdx.cli.__file__.startswith(sys.argv[1]), fedkdx.cli.__file__\n"
         "sys.exit(fedkdx.cli.main(sys.argv[2:]))\n")


def write_inputs(work: str) -> dict[str, str]:
    """Write the sensor trees and one config file per run; name -> path."""
    paths = {}
    for name, (base, overrides, tree) in RUNS.items():
        raw = {}
        if base:
            with open(os.path.join(HERE, base)) as fh:
                raw = yaml.safe_load(fh)
        # a sweep file's base settings; its list of points is not run
        raw.pop("sweep", None)
        raw.update(overrides, deterministic_timing=True)
        if tree:
            root = os.path.join(work, "sensors{}x{}".format(*tree))
            if not os.path.isdir(root):
                sensors.write_tree(root, 0, *tree)
            raw["dataset"] = {"kind": "ucihar", "root": root}
        paths[name] = os.path.join(work, f"{name}.yaml")
        with open(paths[name], "w") as fh:
            yaml.safe_dump(raw, fh, sort_keys=False)
    return paths


def run_side(tree: str, config: str, out: str, threads: str, blas: str) -> bool:
    src = os.path.join(os.path.abspath(tree), "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD, src, "run", "--config", config,
                           "--out", out, "--threads", threads],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"  {out}: exit {proc.returncode}\n{proc.stderr.strip()}")
    return proc.returncode == 0


def read_output(path: str):
    if not os.path.isfile(path):
        return None
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        doc.pop("version", None)
        return doc
    with open(path, "rb") as fh:
        return fh.read()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(args.parent, "src", "fedkdx")):
        ap.error(f"{args.parent} holds no src/fedkdx")
    sides = {"parent": args.parent, "change": HERE}
    differences = 0
    with tempfile.TemporaryDirectory(prefix="fedkdx-identity-") as work:
        configs = write_inputs(work)
        for name, config in configs.items():
            for threads in THREADS:
                for blas in BLAS_THREADS:
                    tag = f"{name} threads={threads} blas={blas}"
                    outs = {side: os.path.join(work, side, f"{name}-t{threads}-b{blas}")
                            for side in sides}
                    # a list, not a generator: both sides run even if one fails
                    ok = all([run_side(tree, config, outs[side], threads, blas)
                              for side, tree in sides.items()])
                    for fname in OUTPUTS:
                        a, b = (read_output(os.path.join(outs[side], fname))
                                for side in sides)
                        equal = ok and a is not None and a == b
                        differences += not equal
                        print(f"{tag} {fname}: {'equal' if equal else 'DIFFERENT'}")
    print(f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
