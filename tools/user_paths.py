#!/usr/bin/env python3
"""What users run, in one pass: every output of every CLI command, and the
``src/`` lines that none of them reach.

    python3 tools/user_paths.py <repo> <out>

<repo> is a checkout holding src/tssan and bench/run.py; <out> must not
exist.  The script runs, in this process and under the standard library's
``trace`` module, the tssan CLI of <repo> through prepare, index, train,
resume, eval and export-attention on small synthetic data, writing every
output under <out>, then every workload of ``bench/run.py`` at ``--toy``,
with ``--trace 0`` and with ``--trace 1``.  It fails if a command exits
non-zero, or if a subcommand of ``cli.build_parser()`` never ran.

Behaviour identity.  Run it on two checkouts (say, a `git archive` copy of
the parent commit and the change) and compare:

    diff -r <out-of-parent> <out-of-change>

An empty diff means byte-identical checkpoints, metrics, eval output and
attention exports.  Wall-clock ``seconds=`` fields are stripped from
metrics.log and from what a train prints, and the config.ini echo is
dropped: it lists the settings a run was given, not what the run computed.
Next to each checkpoint and each sample pack (the <split>.pack that
prepare and index write) the script writes <file>.json, read with the
tree's own ``tssan.checkpoint.load_checkpoint``: the meta as sorted JSON
and one "<shape> <SHA-256>" line per array.  When a change alters only the
container's header or meta, compare without the binary files,

    diff -r -x '*.ckpt' -x '*.pack' <out-of-parent> <out-of-change>

which then differs only in the .json files, where the meta reads as a
text diff and equal digests show the arrays are byte-identical.

The commands.  Two datasets, a 40-frame and a 5-frame set (at K=3 segments
the 5-frame clips have a 1-frame last segment); ``index`` of the sample
files ``prepare`` wrote for each.  For each set and each of v1/v2/v3 x
ff/cnn x avg/max: train 2 epochs, resume to epoch 4 in place, eval
best.ckpt on the val split and export every attention map of one val
sample, one CSV + PGM pair per segment, branch, layer and head; plus one
v3 run that predicts with ``v3_inference = mean`` and has
``plateau_patience = 1``, so that its lr is cut once top-1 stalls.  The
first run also resumes, before its in-place resume, into a fresh
directory, printing each epoch (``resumed.txt``).  Last, the 5-frame
train files are copied with comments, blank lines, CRLF line ends and
extra whitespace injected, indexed (its output is kept as
noisy/prepare.txt), and two 5-frame checkpoints are evaluated on them;
each eval must print what it prints on the clean files.

Line trace.  At the end the script prints each executable line of
``src/tssan`` that none of this reached, as ``<module>.py:<line>:
<source>``, and their count.  Lines that only tests reach (error paths,
failure clean-up, names only ``bench/`` lists) show up here, so the list
tells what a change to ``src/`` leaves for tests alone.  About 60 s on
2 vCPUs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import trace
from pathlib import Path

VARIANTS = [(variant, encoder, consensus) for variant in ("v1", "v2", "v3")
            for encoder in ("ff", "cnn") for consensus in ("avg", "max")]
SEGMENTS = ("--segments", 3, "--frames-per-segment", 8, "--san-layers", 1, "--san-heads", 2)
CONFIGS = {
    "base.ini": "[model]\nff_coord_width = 4\n[train]\nbatch_size = 4\nseed = 5\n",
    "mean.ini": "[model]\nff_coord_width = 4\nv3_inference = mean\n"
                "[train]\nbatch_size = 4\nseed = 5\nplateau_patience = 1\n",
}
WORKLOADS = ("ntu-train-v3cnn", "ntu-eval-v2cnn", "synthetic-fit-v3ff")
USAGE = f"usage: {Path(sys.argv[0]).name} <repo> <out>"


class Cli:
    """``tssan.cli.main`` in this process; remembers which commands ran."""

    def __init__(self):
        from tssan.cli import main
        self.main = main
        self.ran = set()

    def __call__(self, *argv, to: Path | None = None) -> str:
        """Run one command line and return what it printed, also written to
        ``to`` if given; a command that exits non-zero raises."""
        argv = [str(arg) for arg in argv]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = self.main(argv)
        if code != 0:
            raise RuntimeError(f"tssan {' '.join(argv)} exited {code}")
        self.ran.add(argv[0])
        if to is not None:
            to.write_text(printed.getvalue(), encoding="utf-8")
        return printed.getvalue()


def strip_seconds(text: str) -> str:
    """Drop the first wall-clock `` seconds=<value>`` field of each line."""
    return "\n".join(re.sub(r" seconds=[^ ]*", "", line, count=1)
                     for line in text.split("\n"))


def describe(paths):
    """Write <file>.json next to each container file (checkpoint or pack)."""
    from tssan.checkpoint import load_checkpoint
    for path in paths:
        meta, arrays = load_checkpoint(str(path))
        digests = {name: "x".join(map(str, arr.shape)) + " "
                   + hashlib.sha256(arr.tobytes()).hexdigest() for name, arr in arrays.items()}
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "arrays": digests}, fh, indent=1, sort_keys=True)
            fh.write("\n")


def settle(run_dir: Path):
    """Strip wall-clock time and the config echo from one training directory,
    and describe each of its checkpoints."""
    log = run_dir / "metrics.log"
    log.write_text(strip_seconds(log.read_text(encoding="utf-8")), encoding="utf-8")
    (run_dir / "config.ini").unlink(missing_ok=True)
    describe(sorted(run_dir.glob("*.ckpt")))


def run_one(tssan: Cli, root: Path, name: str, config: str, *flags, fresh_resume=False):
    """Train, resume, eval and export one configuration under ``root/name``."""
    out, data = root / name, root / "data"
    out.mkdir()
    train = ("train", "--data", data / "train.manifest", "--val", data / "val.manifest",
             "--config", config, *flags)
    last = out / "train" / "last.ckpt"
    tssan(*train, "--out", out / "train", "--quiet", "--epochs", 2, to=out / "train.txt")
    if fresh_resume:
        printed = tssan(*train, "--out", out / "resumed", "--epochs", 4, "--resume", last)
        (out / "resumed.txt").write_text(strip_seconds(printed), encoding="utf-8")
        settle(out / "resumed")
    tssan(*train, "--out", out / "train", "--quiet", "--epochs", 4, "--resume", last,
          to=out / "resume.txt")
    settle(out / "train")
    best = out / "train" / "best.ckpt"
    tssan("eval", "--checkpoint", best, "--data", data / "val.manifest", to=out / "eval.txt")
    tssan("export-attention", "--checkpoint", best, "--sample", min(data.glob("val*.txt")),
          "--out", out / "export", to=out / "export.txt")


def noisy_copies(tssan: Cli):
    """Index noisy copies of the 5-frame train files; eval must read them as
    it reads the clean split."""
    clean, copies = Path("frames5/data"), Path("noisy/input")
    copies.mkdir(parents=True)
    for name in sorted(os.listdir(clean)):
        if not (name.startswith("train_") and name.endswith(".txt")):
            continue
        lines = (clean / name).read_text(encoding="utf-8").splitlines()
        out = ["# copy of " + name, ""]
        for i, line in enumerate(lines):
            note = "   # note" if i % 7 == 3 else "   "
            out.append("  " + line.replace(" ", " \t  ") + note)
            if i % 5 == 0:
                out.append("")
        with open(copies / name, "w", encoding="utf-8", newline="\r\n") as fh:
            fh.write("\n".join(out) + "\n")
    data = Path("noisy/data")
    tssan("index", "--input", copies, "--out", data, "--kind", "synthetic",
          to=Path("noisy/prepare.txt"))
    describe(sorted(data.glob("*.pack")))
    for name in ("v3-ff-avg", "v2-cnn-max"):
        best = Path("frames5", name, "train", "best.ckpt")
        printed = tssan("eval", "--checkpoint", best, "--data", data / "train.manifest",
                        to=Path(f"noisy/eval-{name}.txt"))
        if tssan("eval", "--checkpoint", best, "--data", clean / "train.manifest") != printed:
            raise RuntimeError(f"eval of {best} reads the noisy copies differently")


def user_commands() -> set[str]:
    """Every command on small data under the working directory; returns the
    names of the commands that ran."""
    tssan = Cli()
    for name, text in CONFIGS.items():
        Path(name).write_text(text, encoding="utf-8")
    for frames in (40, 5):
        root = Path(f"frames{frames}")
        data, indexed = root / "data", root / "indexed"
        root.mkdir()
        tssan("prepare", "--synthetic", "--out", data, "--labels", 3, "--per-label", 4,
              "--val-per-label", 2, "--frames", frames, "--joints", 4, "--persons", 2,
              "--coords", 3, "--seed", 11, to=root / "prepare.txt")
        describe(sorted(data.glob("*.pack")))
        tssan("index", "--input", data, "--out", indexed, to=root / "index.txt")
        describe(sorted(indexed.glob("*.pack")))
        for n, (variant, encoder, consensus) in enumerate(VARIANTS):
            run_one(tssan, root, f"{variant}-{encoder}-{consensus}", "base.ini",
                "--variant", variant, "--encoder", encoder, "--consensus", consensus,
                *SEGMENTS, fresh_resume=frames == 40 and n == 0)
        run_one(tssan, root, "v3-ff-avg-mean", "mean.ini", "--variant", "v3",
                "--encoder", "ff", "--consensus", "avg", *SEGMENTS)
    noisy_copies(tssan)
    return tssan.ran


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


def everything(repo: Path):
    """The user commands, then the bench; a command of the CLI that none of
    the user commands ran fails the pass."""
    from tssan.cli import build_parser
    ran = user_commands()
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    unrun = sorted(set(commands) - ran)
    if unrun:
        raise RuntimeError(f"no command line runs tssan {', '.join(unrun)}")
    with contextlib.redirect_stdout(io.StringIO()):
        bench_units(repo)


def main(argv) -> int:
    if len(argv) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    repo, out = Path(argv[0]).resolve(), Path(argv[1])
    problem = None
    if not (repo / "src" / "tssan" / "cli.py").is_file():
        problem = f"{repo}/src/tssan/cli.py not found"
    elif os.path.lexists(out):
        problem = f"{out} already exists"
    if problem:
        print(f"{USAGE}\nerror: {problem}", file=sys.stderr)
        return 2
    out.mkdir(parents=True)
    os.chdir(out)    # every path below is relative, so outputs never name <out>
    # tssan is first imported under the trace, so its module-level lines count
    sys.path.insert(0, str(repo / "src"))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    with tempfile.TemporaryDirectory() as tmp:
        try:
            tracer.runfunc(everything, repo)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
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
