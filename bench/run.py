"""Benchmark of the fedkdx round loop, one workload per process.

    python3 bench/run.py --workload mlp_fedkdx --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout: the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
exit code is 0 when every output check passed, 1 when one failed and 2
when the run could not start.
"""

from __future__ import annotations

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
# client threads x BLAS threads stays within the 2 cores the workloads are
# sized for; the count must be in the environment before numpy loads
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fedkdx", "__init__.py")):
        print(f"no fedkdx sources under {src}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("--seconds must be >= 1 and --seed >= 0", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [src, BENCH_DIR]
    import harness
    if args.workload not in harness.workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), REPO_ROOT)


if __name__ == "__main__":
    sys.exit(main())
