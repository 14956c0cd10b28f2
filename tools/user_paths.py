#!/usr/bin/env python3
"""Line trace of the user paths: which ``src/`` lines no command reaches.

    python3 tools/user_paths.py <repo>

<repo> is a checkout holding src/tssan and bench/run.py.  The script runs,
in this process and under the standard library's ``trace`` module, what a
user and the benchmark run, on tiny data in a temporary directory:

- ``prepare --synthetic`` (train and val splits), and ``index`` of the
  sample files it wrote;
- ``train`` at K=3 segments for each of v1/v2/v3 x ff/cnn x avg/max,
  every other one with ``--val`` and a config file (which sets
  ``plateau_patience = 1``, and ``v3_inference = mean`` for v3), then a
  resume of each to a later epoch in place (the first also, before that,
  into a fresh directory), ``eval`` of its ``best.ckpt`` and
  ``export-attention`` of one sample;
- every workload of ``bench/run.py`` at ``--toy``, with ``--trace 0``
  and with ``--trace 1``.

It then prints each executable line of ``src/tssan`` that none of these
reached, as ``<module>.py:<line>: <source>``, and their count.  Commands
print nothing while traced.  Lines that only tests reach (error paths,
failure clean-up, names only ``bench/`` lists) show up here, so the list
tells what a change to ``src/`` leaves for tests alone.  About 30 s on
2 vCPUs.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import trace
from pathlib import Path

VARIANTS = [(variant, encoder, consensus) for variant in ("v1", "v2", "v3")
            for encoder in ("ff", "cnn") for consensus in ("avg", "max")]
WORKLOADS = ("ntu-train-v3cnn", "ntu-eval-v2cnn", "synthetic-fit-v3ff")


def user_commands(work: Path):
    """Run every command on tiny data under ``work``; a failing one raises."""
    from tssan.cli import main

    def tssan(*argv):
        code = main([str(arg) for arg in argv])
        if code != 0:
            raise RuntimeError(f"tssan {' '.join(map(str, argv))} exited {code}")

    data, indexed = work / "data", work / "indexed"
    tssan("prepare", "--synthetic", "--out", data, "--labels", 3, "--per-label", 3,
          "--val-per-label", 1, "--frames", 12, "--joints", 3, "--persons", 2,
          "--coords", 3, "--seed", 1)
    tssan("index", "--input", data, "--out", indexed)
    for n, (variant, encoder, consensus) in enumerate(VARIANTS):
        out = work / f"run{n}"
        flags = ["--data", indexed / "train.manifest",
                 "--variant", variant, "--encoder", encoder, "--consensus", consensus,
                 "--segments", 3, "--frames-per-segment", 4, "--san-layers", 1,
                 "--san-heads", 2, "--seed", n]
        if n % 2:
            config = work / f"{n}.ini"
            config.write_text("[model]\nff_coord_width = 4\n"
                              + ("v3_inference = mean\n" if variant == "v3" else "")
                              + "[train]\nbatch_size = 4\nplateau_patience = 1\n")
            flags += ["--val", data / "val.manifest", "--config", config]
        tssan("train", *flags, "--out", out, "--epochs", 2)
        for target in (work / "resumed", out) if n == 0 else (out,):
            tssan("train", *flags, "--out", target, "--epochs", 3,
                  "--resume", out / "last.ckpt")
        tssan("eval", "--checkpoint", out / "best.ckpt", "--data", data / "val.manifest")
        tssan("export-attention", "--checkpoint", out / "best.ckpt",
              "--sample", next(data.glob("val_*.txt")), "--out", work / f"export{n}")


def bench_units(repo: Path):
    """Every bench workload at ``--toy``, untraced and traced."""
    sys.path.insert(0, str(repo / "bench"))
    import run
    for name in WORKLOADS:
        for traced in ("0", "1"):
            code = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                             "--toy", "--trace", traced])
            if code != 0:
                raise RuntimeError(f"bench/run.py --workload {name} --trace {traced} "
                                   f"exited {code}")


def everything(repo: Path, work: Path):
    with contextlib.redirect_stdout(io.StringIO()):
        user_commands(work)
        bench_units(repo)


def main(argv) -> int:
    if len(argv) != 1:
        print(f"usage: {Path(sys.argv[0]).name} <repo>", file=sys.stderr)
        return 2
    repo = Path(argv[0]).resolve()
    if not (repo / "src" / "tssan" / "cli.py").is_file():
        print(f"error: {repo}/src/tssan/cli.py not found", file=sys.stderr)
        return 2
    # tssan is first imported under the trace, so its module-level lines count
    sys.path.insert(0, str(repo / "src"))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    with tempfile.TemporaryDirectory() as tmp:
        tracer.runfunc(everything, repo, Path(tmp) / "work")
        cover = Path(tmp) / "cover"
        tracer.results().write_results(show_missing=True, summary=False, coverdir=str(cover))
        missed = []
        for source in sorted((repo / "src" / "tssan").glob("*.py")):
            module = "tssan" if source.stem == "__init__" else f"tssan.{source.stem}"
            if module not in sys.modules:
                missed.append(f"{source.name}: never imported")
            path = cover / f"tssan.{source.stem}.cover"    # written if a line ran
            for lineno, line in enumerate(path.read_text().splitlines() if path.is_file()
                                          else [], 1):
                if line.startswith(">>>>>> "):
                    missed.append(f"{source.name}:{lineno}: {line[7:].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} lines of src/tssan reached by no command")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
