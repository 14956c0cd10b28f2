"""Command-line entry points: prepare, train, eval, export-attention.

Configuration comes from an INI-style file ([model] / [tsn] / [train]
sections of key = value pairs) with command-line flags taking precedence;
the merged effective config is echoed into the output directory.  Exit
codes: 0 success, 2 usage or configuration problem, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import fields as dataclass_fields

import numpy as np

from .data import (SampleFormatError, ValidationError, load_manifest, load_sample,
                   load_samples, make_synthetic_dataset, save_manifest,
                   DatasetManifest, DATASET_KINDS)
from .models import ModelConfig
from .segments import TsnConfig
from .training import (NumericDivergenceError, TrainConfig, evaluate,
                       load_model_from_checkpoint, prepare_samples, run_training)
from .checkpoint import CheckpointError


class CliError(Exception):
    """User-facing configuration/usage problem (exit code 2)."""


# ---------------------------------------------------------------------------
# config file handling

_SECTIONS = {"model": ModelConfig, "tsn": TsnConfig, "train": TrainConfig}
# geometry fields are inferred from the dataset, never from the config file
_INFERRED = {"num_labels", "joints", "coords", "persons", "frames"}


def _coerce(raw: str, annotation: str, where: str):
    base = annotation.split("[")[0]
    try:
        if base == "int":
            return int(raw)
        if base == "float":
            return float(raw)
        if base == "str":
            return raw
        if base == "tuple":
            return tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError as exc:
        raise CliError(f"{where}: cannot parse {raw!r} as {base}") from exc
    raise CliError(f"{where}: unsupported config value type {annotation}")


def read_config_file(path: str) -> dict[str, dict]:
    """Parse and type-check an INI config; unknown sections/keys are errors."""
    parser = configparser.ConfigParser()
    loaded = parser.read(path)
    if not loaded:
        raise CliError(f"config file not found: {path}")
    out: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise CliError(f"{path}: unknown config section [{section}]")
        known = {f.name: f for f in dataclass_fields(_SECTIONS[section])
                 if f.name not in _INFERRED}
        values = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise CliError(f"{path}: unknown key {key!r} in [{section}]")
            values[key] = _coerce(raw, str(known[key].type), f"{path} [{section}] {key}")
        out[section] = values
    return out


def write_config_echo(path: str, model: ModelConfig, tsn: TsnConfig,
                      train: TrainConfig):
    parser = configparser.ConfigParser()
    for name, cfg in (("model", model), ("tsn", tsn), ("train", train)):
        parser[name] = {}
        for f in dataclass_fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, tuple):
                value = ", ".join(repr(v) for v in value)
            parser[name][f.name] = str(value)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


# ---------------------------------------------------------------------------
# prepare

def _add_prepare(sub):
    p = sub.add_parser("prepare", help="build a dataset manifest (synthetic or "
                                       "from a directory of sample files)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--synthetic", action="store_true",
                   help="generate the separable synthetic benchmark")
    p.add_argument("--labels", type=int, default=4)
    p.add_argument("--per-label", type=int, default=50)
    p.add_argument("--val-per-label", type=int, default=0,
                   help="also emit a held-out split with this many samples per label")
    p.add_argument("--frames", type=int, default=48)
    p.add_argument("--joints", type=int, default=5)
    p.add_argument("--persons", type=int, default=2)
    p.add_argument("--coords", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--input", help="directory of existing sample .txt files")
    p.add_argument("--kind", choices=sorted(DATASET_KINDS), default="synthetic")
    p.add_argument("--num-labels", type=int, help="label count for --input mode")
    p.set_defaults(func=cmd_prepare)


def _summarize(manifest, out):
    counts: dict[int, int] = {}
    for _, label in manifest.entries:
        counts[label] = counts.get(label, 0) + 1
    per_label = " ".join(f"{k}:{counts[k]}" for k in sorted(counts))
    print(f"{manifest.split}: {len(manifest.entries)} samples "
          f"({manifest.kind}, labels {per_label}) -> {out}")


def cmd_prepare(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.synthetic:
        manifest = make_synthetic_dataset(
            args.out, num_labels=args.labels, samples_per_label=args.per_label,
            frames=args.frames, joints=args.joints, persons=args.persons,
            coords=args.coords, noise=args.noise, seed=args.seed, split="train")
        _summarize(manifest, os.path.join(args.out, "train.manifest"))
        if args.val_per_label > 0:
            val = make_synthetic_dataset(
                args.out, num_labels=args.labels, samples_per_label=args.val_per_label,
                frames=args.frames, joints=args.joints, persons=args.persons,
                coords=args.coords, noise=args.noise, seed=args.seed + 1, split="val")
            _summarize(val, os.path.join(args.out, "val.manifest"))
        return 0
    if not args.input:
        raise CliError("prepare needs either --synthetic or --input DIR")
    if not os.path.isdir(args.input):
        raise CliError(f"input directory not found: {args.input}")
    names = sorted(n for n in os.listdir(args.input) if n.endswith(".txt"))
    if not names:
        raise CliError(f"no .txt sample files under {args.input}")
    entries = []
    max_label = -1
    for name in names:
        sample = load_sample(os.path.join(args.input, name))
        entries.append((os.path.relpath(os.path.join(args.input, name), args.out),
                        sample.label))
        max_label = max(max_label, sample.label)
    num_labels = args.num_labels if args.num_labels else max_label + 1
    manifest = DatasetManifest(kind=args.kind, num_labels=num_labels,
                               split="train", entries=entries, base_dir=args.out)
    path = os.path.join(args.out, "train.manifest")
    save_manifest(path, manifest)
    load_samples(load_manifest(path))  # validate geometry + labels now
    _summarize(manifest, path)
    return 0


# ---------------------------------------------------------------------------
# train

def _add_train(sub):
    p = sub.add_parser("train", help="train a model and write checkpoints + metrics")
    p.add_argument("--data", required=True, help="training manifest")
    p.add_argument("--val", help="validation manifest (defaults to the training split)")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="INI config file")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--variant", choices=["v1", "v2", "v3"])
    p.add_argument("--encoder", choices=["ff", "cnn"])
    p.add_argument("--segments", type=int)
    p.add_argument("--consensus", choices=["avg", "max"])
    p.add_argument("--frames-per-segment", type=int)
    p.add_argument("--san-layers", type=int)
    p.add_argument("--san-heads", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)


_TRAIN_FLAG_MAP = {
    "model": {"variant": "variant", "encoder": "encoder",
              "san_layers": "san_layers", "san_heads": "san_heads"},
    "tsn": {"segments": "segments", "consensus": "consensus",
            "frames_per_segment": "frames_per_segment"},
    "train": {"epochs": "epochs", "lr": "lr", "batch_size": "batch_size",
              "seed": "seed"},
}


def build_run_config(args, manifest, first_clip):
    """Merge defaults <- config file <- flags into the three config objects."""
    sections = {"model": {}, "tsn": {}, "train": {}}
    if args.config:
        for section, values in read_config_file(args.config).items():
            sections[section].update(values)
    for section, mapping in _TRAIN_FLAG_MAP.items():
        for attr, key in mapping.items():
            value = getattr(args, attr, None)
            if value is not None:
                sections[section][key] = value

    try:
        tsn = TsnConfig(**sections["tsn"])
        model = ModelConfig(
            num_labels=manifest.num_labels, joints=first_clip.joints,
            coords=first_clip.coords, persons=first_clip.persons,
            frames=tsn.frames_per_segment,
            **{k: v for k, v in sections["model"].items()})
        train = TrainConfig(**sections["train"])
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc
    return model, tsn, train


def _prepare_split(manifest, samples, segments: int):
    """prepare_samples, refusing clips too short to split into ``segments``."""
    for i, sample in enumerate(samples):
        if sample.clip.frames < segments:
            raise CliError(f"{manifest.sample_path(i)}: {sample.clip.frames} frames "
                           f"cannot be split into {segments} segments")
    return prepare_samples(samples)


def cmd_train(args) -> int:
    manifest = load_manifest(args.data)
    raw = load_samples(manifest)
    model_cfg, tsn_cfg, train_cfg = build_run_config(args, manifest, raw[0].clip)
    samples = _prepare_split(manifest, raw, tsn_cfg.segments)
    val = None
    if args.val:
        val_manifest = load_manifest(args.val)
        if val_manifest.num_labels != manifest.num_labels:
            raise CliError("train/val manifests disagree on num_labels")
        val = _prepare_split(val_manifest, load_samples(val_manifest), tsn_cfg.segments)

    os.makedirs(args.out, exist_ok=True)
    write_config_echo(os.path.join(args.out, "config.ini"),
                      model_cfg, tsn_cfg, train_cfg)
    run = run_training(model_cfg, tsn_cfg, train_cfg, samples, val,
                       out_dir=args.out, resume_from=args.resume,
                       quiet=args.quiet)
    print(f"best top1={run.best_top1!r} checkpoint={run.best_path}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _add_eval(sub):
    p = sub.add_parser("eval", help="report top-1/top-5 accuracy of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="manifest to evaluate")
    p.set_defaults(func=cmd_eval)


def cmd_eval(args) -> int:
    model, meta = load_model_from_checkpoint(args.checkpoint)
    manifest = load_manifest(args.data)
    if manifest.num_labels != model.variant.config.num_labels:
        raise CliError(f"checkpoint expects {model.variant.config.num_labels} labels, "
                       f"manifest has {manifest.num_labels}")
    samples = _prepare_split(manifest, load_samples(manifest), model.config.segments)
    top1, top5 = evaluate(model, samples)
    print(f"top1={top1!r} top5={top5!r}")
    return 0


# ---------------------------------------------------------------------------
# export-attention

def _add_export(sub):
    p = sub.add_parser("export-attention",
                       help="dump attention probability matrices as CSV + PGM")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sample", required=True, help="sample file to trace")
    p.add_argument("--out", required=True)
    p.add_argument("--all-layers", action="store_true")
    p.add_argument("--layer", type=int, help="one layer index (default: last)")
    p.add_argument("--head", type=int, help="one head index (default: all heads)")
    p.add_argument("--segment", type=int, default=0)
    p.add_argument("--branch", help="trace branch (fused / person0.. / position "
                                    "/ motion); default: first available")
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
    from .data import frame_differences
    model, meta = load_model_from_checkpoint(args.checkpoint)
    model.eval()
    sample = load_sample(args.sample)
    positions = sample.clip.positions
    out = model(positions, frame_differences(positions))

    if not 0 <= args.segment < len(out.traces):
        raise CliError(f"segment {args.segment} out of range "
                       f"[0, {len(out.traces)})")
    branches = out.traces[args.segment]
    branch = args.branch or next(iter(branches))
    if branch not in branches:
        raise CliError(f"unknown branch {branch!r}; available: {sorted(branches)}")
    trace = branches[branch]

    num_layers, heads = trace.num_layers, trace.heads
    if args.layer is not None and not 0 <= args.layer < num_layers:
        raise CliError(f"layer {args.layer} out of range [0, {num_layers})")
    if args.head is not None and not 0 <= args.head < heads:
        raise CliError(f"head {args.head} out of range [0, {heads})")
    if args.all_layers:
        layers = range(num_layers)
    elif args.layer is not None:
        layers = [args.layer]
    else:
        layers = [num_layers - 1]
    head_list = range(heads) if args.head is None else [args.head]

    os.makedirs(args.out, exist_ok=True)
    count = 0
    for layer in layers:
        for head in head_list:
            matrix = trace.matrix(layer, head, index=0)
            stem = os.path.join(args.out, f"{branch}_layer{layer}_head{head}")
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
    _add_train(sub)
    _add_eval(sub)
    _add_export(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, SampleFormatError, ValidationError, CheckpointError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericDivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
