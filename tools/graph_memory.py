#!/usr/bin/env python3
"""Autodiff-graph memory of one seeded NTU train step, under tracemalloc.

    python3 tools/graph_memory.py <repo>

<repo> is a checkout holding src/tssan and bench/harness.py.  The script
builds the benchmark's ``NtuTrain`` workload from that checkout's harness
(imported, not edited), at full NTU geometry and at the harness's toy
geometry, takes its first batch (seed 1) and runs ``forward_batch``,
``ts_loss`` and ``backward`` as one train step does.  For each size it
prints:

- ``forward``: the MB the forward leaves live while the loss and the
  forward output are held, that is, the graph ``backward`` will walk;
- ``backward peak``: the highest MB live during ``backward``, above the
  same base;
- ``after``: the MB still live once ``backward`` returned (the parameter
  gradients, the loss and the output);
- the ``tensor.py`` lines that hold most of the forward's live memory.

All figures count what tracemalloc sees (numpy buffers and Python
objects) above what was live before the forward, in MB of 2^20 bytes as
the bench reports ``peak_rss_mb``; not the process RSS, which also holds
the model, the allocator's slack and BLAS buffers.  Run it on two
checkouts (say, a `git archive` copy of the parent commit and the change)
to compare their graphs; a few seconds each on 2 vCPUs.
"""

from __future__ import annotations

import linecache
import sys
import tempfile
import tracemalloc
from pathlib import Path

SEED = 1
TOP_LINES = 8
MB = 2 ** 20    # as bench/harness.py reports peak_rss_mb


def measure(harness, toy: bool, work: Path) -> list[str]:
    workload = harness.NtuTrain(toy)
    state = workload.setup(SEED, work)
    model, batch = state["model"], state["batches"][0]
    pairs = [(s.positions, s.motions) for s in batch]
    labels = [s.label for s in batch]
    model.train()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = model.forward_batch(pairs, state["rng"])
        loss = harness.segments.ts_loss(out, labels)
        forward = tracemalloc.get_traced_memory()[0] - base
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        harness.tensor.backward(loss)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    workload.release(state)
    tensor_py = str(Path(harness.tensor.__file__).resolve())
    stats = snapshot.filter_traces([tracemalloc.Filter(True, tensor_py)]).statistics("lineno")
    lines = [f"  forward {forward / MB:9.1f} MB   backward peak {(peak - base) / MB:9.1f} MB"
             f"   after {(current - base) / MB:9.1f} MB"]
    for stat in stats[:TOP_LINES]:
        frame = stat.traceback[0]
        code = linecache.getline(frame.filename, frame.lineno).strip()
        lines.append(f"  {stat.size / MB:9.1f} MB  tensor.py:{frame.lineno:<4d} {code}")
    return lines


def main(argv) -> int:
    if len(argv) != 1:
        print(f"usage: {Path(sys.argv[0]).name} <repo>", file=sys.stderr)
        return 2
    repo = Path(argv[0]).resolve()
    if not (repo / "bench" / "harness.py").is_file():
        print(f"error: {repo}/bench/harness.py not found", file=sys.stderr)
        return 2
    sys.path[:0] = [str(repo / "src"), str(repo / "bench")]
    import harness
    with tempfile.TemporaryDirectory() as work:
        for toy in (False, True):
            print(f"v3/cnn {'toy' if toy else 'ntu'} train step, seed {SEED}:", flush=True)
            for line in measure(harness, toy, Path(work)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
