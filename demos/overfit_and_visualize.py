"""Train a small model on synthetic data and export attention heatmaps.

End-to-end narrative: prepare a dataset, overfit a compact two-segment
model with the feed-forward encoder, evaluate it, then dump every
attention probability matrix of one validation clip (each segment, person,
layer and head) as CSV and PGM files (brighter pixel = higher probability).

Run:  python3 demos/overfit_and_visualize.py   (takes several seconds)
"""

import os
import tempfile

from tssan.cli import main as tssan_cli

workdir = tempfile.mkdtemp(prefix="tssan-demo-")
data = os.path.join(workdir, "data")
run = os.path.join(workdir, "run")
maps = os.path.join(workdir, "attention")

steps = [
    ["prepare", "--out", data, "--synthetic", "--labels", "3", "--per-label", "12",
     "--val-per-label", "4", "--frames", "24", "--joints", "3", "--persons", "2",
     "--coords", "3", "--seed", "9"],
    ["train", "--data", os.path.join(data, "train.manifest"),
     "--val", os.path.join(data, "val.manifest"), "--out", run,
     "--variant", "v2", "--encoder", "ff", "--segments", "2",
     "--consensus", "avg", "--frames-per-segment", "8", "--san-layers", "2",
     "--san-heads", "4", "--epochs", "30", "--batch-size", "12",
     "--lr", "0.003", "--seed", "1"],
    ["eval", "--checkpoint", os.path.join(run, "best.ckpt"),
     "--data", os.path.join(data, "val.manifest")],
]

for argv in steps:
    print(f"\n$ tssan {' '.join(argv)}")
    code = tssan_cli(argv)
    assert code == 0, f"step failed with exit code {code}"

sample = sorted(p for p in os.listdir(data) if p.startswith("val") and
                p.endswith(".txt"))[0]
argv = ["export-attention", "--checkpoint", os.path.join(run, "best.ckpt"),
        "--sample", os.path.join(data, sample), "--out", maps]
print(f"\n$ tssan {' '.join(argv)}")
code = tssan_cli(argv)
assert code == 0, f"export-attention failed with exit code {code}"

print(f"\nheatmaps written to {maps}:")
for name in sorted(os.listdir(maps)):
    print("  " + name)
print("\nopen the .pgm files in any image viewer; rows are query frames.")
