"""Byte identity of a fixed list of short runs against another checkout.

    python scripts/identity.py --parent <checkout of the parent commit>

Runs each run of ``RUNS`` through this tree and through the parent, at
``--threads`` 1 and 2 and at ``OPENBLAS_NUM_THREADS`` 1 and 2.  Each side
runs in a child interpreter with its own ``src`` first on ``PYTHONPATH``;
both read the same config files and the same data root.  Prints, per
output file, whether the parent's and this tree's are equal:
``metrics.csv`` and ``student.ckpt`` byte for byte, ``summary.json``
without ``version``.  Exits 1 on any difference or failed run.

The sensor trees come from ``bench/sensors.py``, imported without writing
bytecode; everything the script writes goes to a temporary directory.
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

# (subjects, windows per class) of the generated sensor trees
TREES = {"sensors8": (8, 6), "sensors24": (24, 6)}

# the CNN settings of the bench's cnn_fedkdx and cnn_fedavg workloads
CNN_FEDKDX = {"strategy": "FEDKDX", "seed": 0, "join_ratio": 0.5,
              "lr_teacher": 0.03, "lr_student": 0.03, "batch_size": 32,
              "compress": True, "eps_start": 0.9, "eps_end": 0.9,
              "partition": {"mode": "by_subject", "num_clients": 4}}
CNN_FEDAVG = {"strategy": "FEDAVG", "seed": 0, "join_ratio": 0.25,
              "lr_teacher": 0.03, "lr_student": 0.03, "batch_size": 32,
              "compress": False,
              "partition": {"mode": "by_subject", "num_clients": 24}}

# name -> (base config file or None, overrides, sensor tree or None)
RUNS = {
    "mlp_fedkdx_f32": ("scripts/configs/synthetic_fedkdx.yaml",
                       {"rounds": 60, "wire_precision": "f32"}, None),
    "mlp_fedkdx_f64": ("scripts/configs/synthetic_fedkdx.yaml",
                       {"rounds": 60, "wire_precision": "f64"}, None),
    "cnn_fedkdx": (None, {**CNN_FEDKDX, "rounds": 3}, "sensors8"),
    "cnn_fedavg": (None, {**CNN_FEDAVG, "rounds": 3}, "sensors24"),
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
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(HERE, "bench"))
    import sensors
    for tree, (subjects, per_class) in TREES.items():
        sensors.write_tree(os.path.join(work, tree), 0, subjects, per_class)
    paths = {}
    for name, (base, overrides, tree) in RUNS.items():
        raw = {}
        if base:
            with open(os.path.join(HERE, base)) as fh:
                raw = yaml.safe_load(fh)
        raw.update(overrides, deterministic_timing=True)
        if tree:
            raw["dataset"] = {"kind": "ucihar", "root": os.path.join(work, tree)}
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
