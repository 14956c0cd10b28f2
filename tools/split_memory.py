#!/usr/bin/env python3
"""Peak RSS of ``tssan eval`` over a 1,000-clip NTU-geometry split.

    python3 tools/split_memory.py <repo> [<repo> ...]

Each <repo> is a checkout whose src/ holds the tssan package.  The script
drives only the CLI, so it runs on any tree that has ``prepare``, ``index``,
``train`` and ``eval``.  It writes two sets of sample files once, with the
first tree's ``prepare --synthetic``: 1,000 clips (10 labels x 100) and 10
clips (10 labels x 1), each of 80 frames, 2 persons, 25 joints and 3
coordinates, the NTU RGB+D geometry: 12,000 values a clip.  Then, for each
tree, with that tree's own CLI:

- ``index`` each set into a split, so the packs are in the tree's format;
- ``train`` a narrow v3/ff model (4 lifted coordinates, 1 SAN layer of 2
  heads, 3 segments of 16 frames) for one epoch on the 10-clip split;
- ``eval`` its checkpoint on the 10-clip split and on the 1,000-clip split,
  each in a fresh process, and report the peak RSS of each (the
  ``ru_maxrss`` of that process alone) and their difference: what the
  larger split adds.

MB are 2^20 bytes, as the bench reports ``peak_rss_mb``.  The files (about
230 MB of sample text, and about 100 MB of packs per tree) go to a
temporary directory under $TMPDIR, removed at the end.  Each tree takes
about half a minute on 2 vCPUs, and the sample files about as long.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

GEOMETRY = ["--frames", "80", "--persons", "2", "--joints", "25", "--coords", "3"]
MODEL = ["--variant", "v3", "--encoder", "ff", "--segments", "3",
         "--frames-per-segment", "16", "--san-layers", "1", "--san-heads", "2"]
# runs the command it is given as its only child, lets it print, then
# prints the child's peak RSS in KiB
LAUNCHER = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


def _command(repo: Path, args) -> tuple[list[str], dict]:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    return [sys.executable, "-m", "tssan.cli", *map(str, args)], env


def tssan(repo: Path, *args):
    argv, env = _command(repo, args)
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)


def eval_peak(repo: Path, checkpoint: Path, manifest: Path) -> tuple[str, float]:
    """The output line of ``eval`` and the MB of its peak RSS."""
    argv, env = _command(repo, ["eval", "--checkpoint", checkpoint, "--data", manifest])
    out = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return out[0], int(out[-1]) / 1024


def main(argv) -> int:
    repos = [Path(arg).resolve() for arg in argv]
    if not repos:
        print(f"usage: {Path(sys.argv[0]).name} <repo> [<repo> ...]", file=sys.stderr)
        return 2
    for repo in repos:
        if not (repo / "src" / "tssan" / "cli.py").is_file():
            print(f"error: {repo}/src/tssan/cli.py not found", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, per_label in (("large", 100), ("small", 1)):
            tssan(repos[0], "prepare", "--out", work / f"{name}-samples", "--synthetic",
                  "--labels", 10, "--per-label", per_label, *GEOMETRY, "--seed", 1)
        for n, repo in enumerate(repos):
            tree = work / f"tree{n}"
            for name in ("large", "small"):
                tssan(repo, "index", "--input", work / f"{name}-samples",
                      "--out", tree / name, "--kind", "ntu")
            config = tree / "narrow.ini"
            config.write_text("[model]\nff_coord_width = 4\n")
            tssan(repo, "train", "--data", tree / "small" / "train.manifest",
                  "--out", tree / "run", "--config", config, *MODEL, "--epochs", 1,
                  "--batch-size", 10, "--seed", 1, "--quiet")
            print(f"{repo}:", flush=True)
            peaks = {}
            for name, clips in (("small", 10), ("large", 1000)):
                line, peaks[name] = eval_peak(repo, tree / "run" / "best.ckpt",
                                              tree / name / "train.manifest")
                print(f"  eval over {clips:5,d} clips: peak RSS {peaks[name]:7.1f} MB   "
                      f"({line})", flush=True)
            print(f"  the 1,000-clip split adds {peaks['large'] - peaks['small']:.1f} MB",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
