"""Command-line entry points: prepare, index, train, eval, export-attention.

``prepare --synthetic`` generates the separable synthetic benchmark, and
``index`` reads a directory of sample files (NTU RGB+D or Kinetics skeletons
in the sample format); ``data.write_split`` writes the splits of both, a
manifest and a pack each.  Configuration comes from an INI-style file
([model] / [tsn] / [train] sections of key = value pairs) with command-line
flags taking precedence; the merged effective config is echoed into the
run directory, which ``training`` guards.  Exit codes: 0 success, 2 usage,
configuration, input or file-system problem (any ``OSError``), 3 numeric
divergence.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import os
import sys
from collections import Counter
from dataclasses import fields as dataclass_fields

import numpy as np

from .data import (PackedSplit, SampleFormatError, ValidationError, index_split,
                   load_manifest, load_sample, load_samples, make_synthetic_dataset,
                   split_files, DATASET_KINDS)
from .models import ENCODERS, VARIANTS, ModelConfig
from .segments import CONSENSUS_MODES, TsnConfig
from .tensor import no_grad
from .training import (NumericDivergenceError, PreparedSplit, TrainConfig, claim_run_dir,
                       evaluate, load_model_from_checkpoint, run_training)
from .checkpoint import CheckpointError


class CliError(Exception):
    """User-facing configuration/usage problem (exit code 2)."""


# ---------------------------------------------------------------------------
# config file handling

_SECTIONS = {"model": ModelConfig, "tsn": TsnConfig, "train": TrainConfig}
# geometry fields are inferred from the dataset, never from the config file
_INFERRED = {"num_labels", "joints", "coords", "persons", "frames"}


def _settable(section: str) -> dict:
    """The config-file keys of a section, which the reader and the echo share."""
    return {f.name: f for f in dataclass_fields(_SECTIONS[section]) if f.name not in _INFERRED}


# the reader of each field annotation's base type ("tuple" of "tuple[float, float]")
_PARSERS = {"int": int, "float": float, "str": str,
            "tuple": lambda raw: tuple(float(v) for v in raw.replace(",", " ").split())}


def read_config_file(path: str) -> dict[str, dict]:
    """Parse and type-check an INI config; unknown sections/keys are errors."""
    # no section is the default one, so a [DEFAULT] header is an unknown
    # section instead of keys that every section silently takes
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        loaded = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise CliError(f"{path}: not a valid config file: {' '.join(str(exc).split())}") from exc
    if not loaded:
        raise CliError(f"config file not found: {path}")
    out: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise CliError(f"{path}: unknown config section [{section}]")
        known = _settable(section)
        values = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise CliError(f"{path}: unknown key {key!r} in [{section}]")
            base = str(known[key].type).split("[")[0]
            try:
                values[key] = _PARSERS[base](raw)
            except ValueError as exc:
                raise CliError(f"{path} [{section}] {key}: cannot parse {raw!r} "
                               f"as {base}") from exc
        out[section] = values
    return out


def render_config_echo(model: ModelConfig, tsn: TsnConfig, train: TrainConfig) -> str:
    lines = []
    for name, cfg in (("model", model), ("tsn", tsn), ("train", train)):
        lines.append(f"[{name}]")
        for key in _settable(name):
            value = getattr(cfg, key)
            if isinstance(value, tuple):
                value = ", ".join(repr(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# prepare and index

def _add_prepare(sub):
    p = sub.add_parser("prepare", help="generate the separable synthetic benchmark: "
                                       "sample files, manifests and packs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--synthetic", action="store_true", required=True,
                   help="generate the separable synthetic benchmark")
    p.add_argument("--seed", type=int, default=0,
                   help="sample seed; the val split takes seed + 1 (default 0)")
    p.add_argument("--labels", type=int, default=4, help="label count (default 4)")
    p.add_argument("--per-label", type=int, default=50,
                   help="train samples per label (default 50)")
    p.add_argument("--val-per-label", type=int, default=0,
                   help="also emit a held-out split with this many samples per label "
                        "(default 0)")
    p.add_argument("--frames", type=int, default=48, help="frames per clip (default 48)")
    p.add_argument("--joints", type=int, default=5, help="joints per person (default 5)")
    p.add_argument("--persons", type=int, default=2, help="persons per frame (default 2)")
    p.add_argument("--coords", type=int, default=3,
                   help="coordinates per joint (default 3)")
    p.add_argument("--noise", type=float, default=0.05,
                   help="coordinate noise scale (default 0.05)")
    p.set_defaults(func=cmd_prepare)


def _add_index(sub):
    p = sub.add_parser("index", help="build a manifest and pack from a directory of "
                                     "sample files; train and eval read the pack alone, "
                                     "so run index again after editing a sample file")
    p.add_argument("--input", required=True, help="directory of sample .txt files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kind", choices=sorted(DATASET_KINDS), default="synthetic",
                   help="dataset kind (default synthetic)")
    p.add_argument("--num-labels", type=int,
                   help="label count (default: the largest label + 1)")
    p.set_defaults(func=cmd_index)


def _summarize(manifest):
    counts = Counter(label for _, label in manifest.entries)
    per_label = " ".join(f"{k}:{counts[k]}" for k in sorted(counts))
    print(f"{manifest.split}: {len(manifest.entries)} samples "
          f"({manifest.kind}, labels {per_label}) -> {split_files(manifest)[0]}")


def cmd_prepare(args) -> int:
    if args.val_per_label < 0:
        raise CliError(f"--val-per-label must be at least 0, got {args.val_per_label}")
    splits = [("train", args.per_label, args.seed)]
    if args.val_per_label > 0:
        splits.append(("val", args.val_per_label, args.seed + 1))
    for split, per_label, seed in splits:
        try:
            manifest = make_synthetic_dataset(
                args.out, num_labels=args.labels, samples_per_label=per_label,
                frames=args.frames, joints=args.joints, persons=args.persons,
                coords=args.coords, noise=args.noise, seed=seed, split=split)
        except ValueError as exc:
            raise CliError(f"prepare --synthetic: {exc}") from exc
        _summarize(manifest)
    return 0


def cmd_index(args) -> int:
    if not os.path.isdir(args.input):
        raise CliError(f"input directory not found: {args.input}")
    names = sorted(n for n in os.listdir(args.input) if n.endswith(".txt"))
    if not names:
        raise CliError(f"no .txt sample files under {args.input}")
    if args.num_labels is not None and args.num_labels < 1:
        raise CliError(f"--num-labels must be at least 1, got {args.num_labels}")
    manifest = index_split([os.path.join(args.input, name) for name in names],
                           args.out, args.kind, args.num_labels)
    _summarize(manifest)
    return 0


# ---------------------------------------------------------------------------
# train

def _add_train(sub):
    p = sub.add_parser("train", help="train a model and write checkpoints + metrics")
    p.add_argument("--data", required=True,
                   help="training manifest; its clips are read from the split's pack, "
                        "a snapshot of the sample files as index last read them")
    p.add_argument("--val", help="validation manifest (defaults to the training split)")
    p.add_argument("--out", required=True, help="run directory; one that holds a run's "
                   "config.ini, metrics.log or checkpoints takes only --resume (exit 2)")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--resume", help="checkpoint whose run to continue, in place if it is "
                   "--out's last.ckpt; only epochs and batch size may differ (exit 2)")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--encoder", choices=ENCODERS)
    p.add_argument("--segments", type=int)
    p.add_argument("--consensus", choices=CONSENSUS_MODES)
    p.add_argument("--frames-per-segment", type=int)
    p.add_argument("--san-layers", type=int)
    p.add_argument("--san-heads", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)


def build_run_config(args, manifest, first_shape):
    """Merge defaults <- config file <- flags into the three config objects.

    A flag is the ``args`` attribute named after a section field."""
    sections = {"model": {}, "tsn": {}, "train": {}}
    if args.config:
        for section, values in read_config_file(args.config).items():
            sections[section].update(values)
    for section, cls in _SECTIONS.items():
        for f in dataclass_fields(cls):
            value = getattr(args, f.name, None)
            if value is not None:
                sections[section][f.name] = value
    for key in ("variant", "encoder"):
        if key not in sections["model"]:
            raise CliError(f"no model {key} given: pass --{key} or set {key} "
                           f"in the [model] section of the --config file")

    try:
        tsn = TsnConfig(**sections["tsn"])
        model = ModelConfig(
            num_labels=manifest.num_labels, persons=first_shape[1], joints=first_shape[2],
            coords=first_shape[3], frames=tsn.frames_per_segment, **sections["model"])
        train = TrainConfig(**sections["train"])
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc
    return model, tsn, train


def _refuse_clip(path: str, shape, model: ModelConfig, segments: int):
    """Refuse a clip (F, S, J, C) of another geometry or of too few frames."""
    frames, *geometry = shape
    expected = (model.persons, model.joints, model.coords)
    if tuple(geometry) != expected:
        raise CliError(f"{path}: clip geometry (persons, joints, coords) {tuple(geometry)} "
                       f"does not match the model's {expected}")
    if frames < segments:
        raise CliError(f"{path}: {frames} frames cannot be split into {segments} segments")


def prepare_samples(split: PackedSplit, model: ModelConfig, segments: int) -> PreparedSplit:
    """The split as model input, read as used, once its index fits the model."""
    for path, shape in zip(split.manifest.sample_paths(), split.shapes.tolist()):
        _refuse_clip(path, shape, model, segments)
    return PreparedSplit(split)


def cmd_train(args) -> int:
    claim_run_dir(args.out, args.resume)      # a refused --out costs no pack walk
    manifest = load_manifest(args.data)
    with contextlib.ExitStack() as stack:     # the packs stay open until the run ends
        raw = stack.enter_context(contextlib.closing(load_samples(manifest)))
        model_cfg, tsn_cfg, train_cfg = build_run_config(args, manifest, raw.shapes[0].tolist())
        samples = prepare_samples(raw, model_cfg, tsn_cfg.segments)
        val = None
        if args.val:
            val_manifest = load_manifest(args.val)
            if val_manifest.num_labels != manifest.num_labels:
                raise CliError("train/val manifests disagree on num_labels")
            val = prepare_samples(stack.enter_context(contextlib.closing(
                load_samples(val_manifest))), model_cfg, tsn_cfg.segments)
        run = run_training(model_cfg, tsn_cfg, train_cfg, samples, val,
                           out_dir=args.out, resume_from=args.resume, quiet=args.quiet,
                           config_text=render_config_echo(model_cfg, tsn_cfg, train_cfg))
    # none when a resume into a new --out never beats the stored best
    print(f"best top1={run.best_top1!r} checkpoint={run.best_path or 'none'}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _add_eval(sub):
    p = sub.add_parser("eval", help="report top-1/top-5 accuracy of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="manifest to evaluate")
    p.set_defaults(func=cmd_eval)


def cmd_eval(args) -> int:
    model, train_config, *_ = load_model_from_checkpoint(args.checkpoint)
    manifest = load_manifest(args.data)
    if manifest.num_labels != model.variant.config.num_labels:
        raise CliError(f"checkpoint expects {model.variant.config.num_labels} labels, "
                       f"manifest has {manifest.num_labels}")
    with contextlib.closing(load_samples(manifest)) as split:
        samples = prepare_samples(split, model.variant.config, model.config.segments)
        top1, top5 = evaluate(model, samples, train_config.batch_size)
    print(f"top1={top1!r} top5={top5!r}")
    return 0


# ---------------------------------------------------------------------------
# export-attention

def _add_export(sub):
    p = sub.add_parser("export-attention",
                       help="write every attention probability matrix of one sample "
                            "as segment<k>_<branch>_layer<l>_head<h>.csv + .pgm")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sample", required=True, help="sample file to trace")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_attention)


def write_pgm(path: str, matrix: np.ndarray):
    """P2 graymap, brighter pixels for higher probability."""
    peak = matrix.max()
    scaled = np.zeros_like(matrix, dtype=np.int64) if peak <= 0 else \
        np.rint(matrix / peak * 255).astype(np.int64)
    h, w = matrix.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n{w} {h}\n255\n")
        for row in scaled:
            fh.write(" ".join(str(v) for v in row) + "\n")


def write_matrix_csv(path: str, matrix: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cmd_export_attention(args) -> int:
    model = load_model_from_checkpoint(args.checkpoint)[0].eval().narrow()
    (sample,) = PreparedSplit([load_sample(args.sample)])
    _refuse_clip(args.sample, sample.positions.shape, model.variant.config,
                 model.config.segments)
    with no_grad():
        out = model.forward_batch([(sample.positions, sample.motions)])

    os.makedirs(args.out, exist_ok=True)
    count = 0
    for segment, branches in enumerate(out.traces):
        for branch, trace in branches.items():
            for layer, heads in enumerate(trace.stacked[:, 0]):
                for head, matrix in enumerate(heads):
                    stem = os.path.join(args.out,
                                        f"segment{segment}_{branch}_layer{layer}_head{head}")
                    write_matrix_csv(stem + ".csv", matrix)
                    write_pgm(stem + ".pgm", matrix)
                    count += 2
    print(f"wrote {count} files to {args.out}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tssan",
        description="Temporal-segment self-attention networks for "
                    "skeleton-based action recognition")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_prepare(sub)
    _add_index(sub)
    _add_train(sub)
    _add_eval(sub)
    _add_export(sub)
    for command in sub.choices.values():
        command.set_defaults(parser=command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # refused by the chosen command, whose usage lists the flags it takes
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (CliError, SampleFormatError, ValidationError, CheckpointError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericDivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
