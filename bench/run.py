#!/usr/bin/env python3
"""Benchmark entry point for the tssan package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Runs one workload (see ``harness.WORKLOADS`` and ``bench/README.md``) in
this process against ``src/`` of the checkout this file sits in.  Inputs
come from ``--seed``.  Human-readable metric lines and a ``report`` JSON
line (environment stamp, sample counts, error rate) go to stdout, and the
last line is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  ``--toy`` shrinks every
workload to a size that runs in seconds, for the harness's own test.
Exits 2 without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ntu-train-v3cnn", "ntu-eval-v2cnn", "synthetic-fit-v3ff")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(limit, nproc))
    return nproc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if not (SRC / "tssan" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tssan
    if Path(tssan.__file__).resolve().parent != SRC / "tssan":
        print(f"error: imported tssan from {tssan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.toy, ROOT, nproc)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
