#!/usr/bin/env python3
"""Gradient-identity digest: two seeded train steps of the NTU workload.

    python3 tools/grad_digest.py <repo>

<repo> is a checkout holding src/tssan and bench/harness.py.  The script
builds the benchmark's ``NtuTrain`` workload from that checkout's harness
(imported, not edited), with BLAS pinned to one thread, and runs two
steps of forward, backward and ``Adam.step`` (seed 1) for v3/cnn and
v2/cnn at full NTU geometry and for v1/v2/v3 with both encoders, cnn and
ff, at the harness's toy geometry.  The ff lines swap the encoder with
``dataclasses.replace``; they cover the encoder path of the benchmark's
fit workload.  It prints one line per model: the SHA-256 over the loss,
every parameter's gradient and every weight after each step.  Gradients
are hashed by value in float64, so a tree that stores a master's float32
gradient as float64 and one that keeps it float32 print the same line
when the values agree; weights are hashed as stored.  Run it on
two checkouts (say, a `git archive` copy of the parent commit and the
change) and compare the lines; about 20 s each on 2 vCPUs.

When to use which check:

- this script, for a change to tensor ops, backward rules, layers or the
  optimizer: it reaches the full-size shapes (25 joints, 32 frames per
  segment, 8 heads of width 640, batch 8) that decide GEMM blocking,
  conv2d row blocks and float32/float64 accumulation order;
- ``tools/identity_run.sh``, for a change anywhere on the CLI path: it
  compares every byte that prepare, train, resume, eval and
  export-attention write, on toy shapes, in about 5 min.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

STEPS = 2
SEED = 1
MODELS = [("v3", "cnn", False), ("v2", "cnn", False), ("v1", "cnn", True),
          ("v2", "cnn", True), ("v3", "cnn", True), ("v1", "ff", True), ("v2", "ff", True),
          ("v3", "ff", True)]


def digest(harness, variant: str, encoder: str, toy: bool, work: Path) -> str:
    import numpy as np   # imported here, after main pins the BLAS threads
    workload = harness.NtuTrain(toy)
    workload.model_config = dataclasses.replace(workload.model_config, variant=variant,
                                                encoder=encoder)
    state = workload.setup(SEED, work)
    params = sorted(state["model"].named_parameters())
    h = hashlib.sha256()
    for index in range(STEPS):
        unit = workload.unit(state, index)
        if unit.problems:
            raise SystemExit(f"{variant} step {index}: {unit.problems}")
        h.update(repr(unit.fingerprint).encode())
        for name, p in params:
            for arr in (np.asarray(p.grad, np.float64), p.data):
                h.update(f"{name} {arr.dtype.str} {arr.shape}".encode())
                h.update(arr.tobytes())
    workload.release(state)
    return h.hexdigest()


def main(argv) -> int:
    if len(argv) != 1:
        print(f"usage: {Path(sys.argv[0]).name} <repo>", file=sys.stderr)
        return 2
    repo = Path(argv[0]).resolve()
    if not (repo / "bench" / "harness.py").is_file():
        print(f"error: {repo}/bench/harness.py not found", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # before numpy loads: one thread, one summation order
    sys.path[:0] = [str(repo / "src"), str(repo / "bench")]
    import harness
    with tempfile.TemporaryDirectory() as work:
        for variant, encoder, toy in MODELS:
            size = "toy" if toy else "ntu"
            line = digest(harness, variant, encoder, toy, Path(work))
            print(f"{variant}/{encoder} {size} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
