#!/usr/bin/env bash
# Behaviour-identity run: drive the tssan CLI of one source tree through
# prepare, index, train, resume, eval and export-attention on small
# synthetic data, and leave every output under one directory.
#
#   tools/identity_run.sh <repo> <out>
#
# <repo> is a checkout whose src/ holds the tssan package; <out> must not
# exist.  Run it on two checkouts (say, a `git archive` copy of the parent
# commit and the change) and compare:
#
#   diff -r <out-of-parent> <out-of-change>
#
# An empty diff means byte-identical checkpoints, metrics, eval output and
# attention exports.  Wall-clock `seconds=` fields are stripped from
# metrics.log, and the config.ini echo is dropped: it lists the settings a
# run was given, not what the run computed.
#
# Next to each checkpoint and each sample pack (the <split>.pack that
# prepare and index write) the script writes <file>.json, read with the tree's own
# tssan.checkpoint.load_checkpoint: the meta as sorted JSON and one
# "<shape> <SHA-256>" line per array.  When a change alters only the
# container's header or meta, or adds packs, compare without the binary
# files,
#
#   diff -r -x '*.ckpt' -x '*.pack' <out-of-parent> <out-of-change>
#
# which then differs only in the .json files, where the meta reads as a
# text diff and equal digests show the arrays are byte-identical.  A tree
# whose prepare writes no packs has no <pack>.json, so against it the diff
# also lists each of them as "Only in".
#
# Datasets: a 40-frame set and a 5-frame set; at K=3 segments the 5-frame
# clips have a 1-frame last segment.  For each set and each of
# v1/v2/v3 x ff/cnn x avg/max: train 2 epochs, resume to epoch 4, eval
# best.ckpt on the val split and export every attention map of one val
# sample, one CSV + PGM pair per segment, branch, layer and head; plus one
# v3 run that predicts with v3_inference = mean and has
# plateau_patience = 1, so that its lr is cut once top-1 stalls.  Last,
# the 5-frame train files are copied with comments, blank lines, CRLF line
# ends and extra whitespace injected, indexed with `tssan index` (its
# output is kept as noisy/prepare.txt), and two 5-frame checkpoints are
# evaluated on them; each eval must print what it prints on the clean
# files.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <repo> <out>" >&2
    exit 2
fi
repo=$(cd "$1" && pwd)
if [ ! -f "$repo/src/tssan/cli.py" ]; then
    echo "error: $repo/src/tssan/cli.py not found" >&2
    exit 2
fi
if [ -e "$2" ]; then
    echo "error: $2 already exists" >&2
    exit 2
fi
mkdir -p "$2"
cd "$2"    # every path below is relative, so outputs never name <out>

tssan() {
    PYTHONPATH="$repo/src" python3 -m tssan.cli "$@"
}

# write <file>.json next to each named container file (checkpoint or pack)
describe() {
    PYTHONPATH="$repo/src" python3 - "$@" <<'PY'
import hashlib
import json
import sys

from tssan.checkpoint import load_checkpoint

for path in sys.argv[1:]:
    meta, arrays = load_checkpoint(path)
    digests = {name: "x".join(map(str, arr.shape)) + " "
               + hashlib.sha256(arr.tobytes()).hexdigest() for name, arr in arrays.items()}
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "arrays": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
PY
}

# strip wall-clock time and the config echo from one training directory,
# and write the <ckpt>.json of each of its checkpoints
settle() {
    sed -i 's/ seconds=[^ ]*//' "$1/metrics.log"
    rm -f "$1/config.ini"
    describe "$1"/*.ckpt
}

# write the <pack>.json of each pack in a prepared data directory, if any
describe_packs() {
    local packs=("$1"/*.pack)
    if [ -e "${packs[0]}" ]; then
        describe "${packs[@]}"
    fi
}

# run <set> <name> <config> <train flags...>: train, resume, eval, export
run() {
    local set=$1 name=$2 config=$3
    shift 3
    local dir="$set/$name"
    mkdir -p "$dir"
    local common=(--data "$set/data/train.manifest" --val "$set/data/val.manifest"
                  --out "$dir/train" --config "$config" --quiet "$@")
    tssan train "${common[@]}" --epochs 2 > "$dir/train.txt"
    tssan train "${common[@]}" --epochs 4 --resume "$dir/train/last.ckpt" > "$dir/resume.txt"
    settle "$dir/train"
    tssan eval --checkpoint "$dir/train/best.ckpt" --data "$set/data/val.manifest" \
        > "$dir/eval.txt"
    local samples=("$set"/data/val*.txt)
    tssan export-attention --checkpoint "$dir/train/best.ckpt" --sample "${samples[0]}" \
        --out "$dir/export" > "$dir/export.txt"
}

cat > base.ini <<'EOF'
[model]
ff_coord_width = 4
[train]
batch_size = 4
seed = 5
EOF
cat > mean.ini <<'EOF'
[model]
ff_coord_width = 4
v3_inference = mean
[train]
batch_size = 4
seed = 5
plateau_patience = 1
EOF

for frames in 40 5; do
    set="frames$frames"
    mkdir -p "$set"
    tssan prepare --synthetic --out "$set/data" --labels 3 --per-label 4 \
        --val-per-label 2 --frames "$frames" --joints 4 --persons 2 --coords 3 \
        --seed 11 > "$set/prepare.txt"
    describe_packs "$set/data"
    for variant in v1 v2 v3; do
        for encoder in ff cnn; do
            for consensus in avg max; do
                run "$set" "$variant-$encoder-$consensus" base.ini \
                    --variant "$variant" --encoder "$encoder" --consensus "$consensus" \
                    --segments 3 --frames-per-segment 8 --san-layers 1 --san-heads 2
            done
        done
    done
    run "$set" v3-ff-avg-mean mean.ini --variant v3 --encoder ff --consensus avg \
        --segments 3 --frames-per-segment 8 --san-layers 1 --san-heads 2
done
mkdir -p noisy/input
python3 - frames5/data noisy/input <<'PY'
import os
import sys

src, dst = sys.argv[1:]
for name in sorted(os.listdir(src)):
    if not (name.startswith("train_") and name.endswith(".txt")):
        continue
    with open(os.path.join(src, name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = ["# copy of " + name, ""]
    for i, line in enumerate(lines):
        out.append("  " + line.replace(" ", " \t  ") + ("   # note" if i % 7 == 3 else "   "))
        if i % 5 == 0:
            out.append("")
    with open(os.path.join(dst, name), "w", encoding="utf-8", newline="\r\n") as fh:
        fh.write("\n".join(out) + "\n")
PY
tssan index --input noisy/input --out noisy/data --kind synthetic > noisy/prepare.txt
describe_packs noisy/data
for name in v3-ff-avg v2-cnn-max; do
    tssan eval --checkpoint "frames5/$name/train/best.ckpt" \
        --data noisy/data/train.manifest > "noisy/eval-$name.txt"
    tssan eval --checkpoint "frames5/$name/train/best.ckpt" \
        --data frames5/data/train.manifest | cmp - "noisy/eval-$name.txt"
done
echo "identity run of $repo written to $(pwd)"
