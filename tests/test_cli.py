import builtins
import os
import struct
import warnings
import zlib

import numpy as np
import pytest

from tssan.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from tssan.cli import main
from tssan.data import SkeletonClip, load_manifest, load_sample, save_sample
from tssan.segments import TsSan


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def synthetic_dir(tmp_path):
    out = tmp_path / "data"
    code = run_cli("prepare", "--out", str(out), "--synthetic",
                   "--labels", "3", "--per-label", "4", "--val-per-label", "2",
                   "--frames", "12", "--joints", "2", "--persons", "2",
                   "--coords", "2", "--seed", "7")
    assert code == 0
    return out


def refused(capsys, *argv):
    """The stderr of a command line that argparse refuses with exit code 2."""
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 2
    return capsys.readouterr().err


def _narrow_config(folder):
    """A config file that shrinks the ff encoder to 4 lifted coordinates
    instead of the default 64, so that a test's checkpoints stay small."""
    folder.mkdir(parents=True, exist_ok=True)
    config = folder / "narrow.ini"
    config.write_text("[model]\nff_coord_width = 4\n")
    return config


def _quick_train(tmp_path, synthetic_dir, *extra):
    out = tmp_path / "run"
    code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                   "--val", str(synthetic_dir / "val.manifest"),
                   "--config", str(_narrow_config(tmp_path)),
                   "--out", str(out), "--variant", "v2", "--encoder", "ff",
                   "--segments", "2", "--consensus", "avg",
                   "--frames-per-segment", "4", "--san-layers", "1",
                   "--san-heads", "2", "--epochs", "2", "--batch-size", "4",
                   "--lr", "0.003", "--seed", "3", "--quiet", *extra)
    assert code == 0
    return out


def _nested_too_deep(path):
    """A container file whose JSON header nests 200,000 lists deep, deeper
    than the decoder goes, under a valid checksum."""
    blob = b"[" * 200_000 + b"]" * 200_000
    data = MAGIC + struct.pack("<Q", len(blob)) + blob
    path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))


def _clip_dir(tmp_path, shapes_by_name):
    """A directory of label-0 sample files, each (frames, persons) x 2 joints
    x 2 coords."""
    rng = np.random.default_rng(0)
    folder = tmp_path / "clips"
    folder.mkdir()
    for name, (frames, persons) in shapes_by_name.items():
        clip = SkeletonClip(rng.normal(size=(frames, persons, 2, 2)),
                            np.ones(persons, bool))
        save_sample(str(folder / name), clip, 0)
    return folder


class TestPrepare:
    def test_synthetic_manifest_counts(self, synthetic_dir):
        manifest = load_manifest(str(synthetic_dir / "train.manifest"))
        assert len(manifest) == 12
        val = load_manifest(str(synthetic_dir / "val.manifest"))
        assert len(val) == 6

    def test_rerun_same_seed_identical(self, tmp_path, synthetic_dir):
        again = tmp_path / "again"
        run_cli("prepare", "--out", str(again), "--synthetic", "--labels", "3",
                "--per-label", "4", "--val-per-label", "2", "--frames", "12",
                "--joints", "2", "--persons", "2", "--coords", "2", "--seed", "7")
        for name in sorted(os.listdir(synthetic_dir)):
            assert (synthetic_dir / name).read_bytes() == (again / name).read_bytes()

    def test_prepare_writes_a_pack_per_manifest(self, tmp_path, synthetic_dir):
        def packed(folder, split):
            # the pack holds each manifest entry's clip under its name, in order
            manifest = load_manifest(str(folder / f"{split}.manifest"))
            meta, arrays = load_checkpoint(str(folder / f"{split}.pack"))
            samples = [load_sample(path) for path in manifest.sample_paths()]
            assert list(arrays) == [rel for rel, _ in manifest.entries]
            assert meta["labels"] == [sample.label for sample in samples]
            assert [a.tobytes() for a in arrays.values()] == \
                [sample.clip.positions.tobytes() for sample in samples]
            return len(arrays)

        assert packed(synthetic_dir, "train") == 12 and packed(synthetic_dir, "val") == 6
        out = tmp_path / "indexed"
        assert run_cli("index", "--out", str(out), "--input", str(synthetic_dir)) == 0
        assert packed(out, "train") == 18

    def test_neither_mode_exits_2(self, tmp_path, capsys):
        err = refused(capsys, "prepare", "--out", str(tmp_path / "x"))
        assert "the following arguments are required: --synthetic" in err
        assert not (tmp_path / "x").exists()

    def test_input_without_samples_exits_2(self, tmp_path, capsys):
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "notes.md").write_text("no samples here\n")
        code = run_cli("index", "--out", str(tmp_path / "x"), "--input", str(tmp_path / "in"))
        assert code == 2
        assert capsys.readouterr().err == f"error: no .txt sample files under {tmp_path / 'in'}\n"
        assert not (tmp_path / "x").exists()

    def test_missing_input_dir_exits_2(self, tmp_path, capsys):
        code = run_cli("index", "--out", str(tmp_path / "x"),
                       "--input", str(tmp_path / "nope"))
        assert code == 2
        assert "not found" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_input_directory_mode(self, tmp_path, synthetic_dir):
        out = tmp_path / "indexed"
        code = run_cli("index", "--out", str(out), "--input",
                       str(synthetic_dir), "--kind", "synthetic")
        assert code == 0
        manifest = load_manifest(str(out / "train.manifest"))
        assert len(manifest) == 18  # train + val sample files reindexed
        assert manifest.kind == "synthetic" and manifest.num_labels == 3

    def test_input_mode_reads_each_sample_once(self, tmp_path, synthetic_dir, monkeypatch):
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.path.basename(str(file)))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code = run_cli("index", "--out", str(tmp_path / "indexed"), "--input",
                       str(synthetic_dir), "--kind", "synthetic")
        monkeypatch.undo()
        assert code == 0
        samples = [name for name in opened if name.endswith(".txt")]
        assert len(samples) == 18 and len(set(samples)) == 18

    @pytest.mark.parametrize("extra, message", [
        (("--kind", "ntu"), "a.txt: geometry (2, 2) does not match kind 'ntu' (25, 3)"),
        (("--num-labels", "1"), "b.txt: label 1 outside [0, 1)"),
    ], ids=["geometry", "label-range"])
    def test_input_mode_validation_exits_2(self, tmp_path, capsys, extra, message):
        folder = _clip_dir(tmp_path, {"a.txt": (3, 2)})
        clip = SkeletonClip(np.ones((3, 2, 2, 2)), np.ones(2, bool))
        save_sample(str(folder / "b.txt"), clip, 1)
        code = run_cli("index", "--out", str(tmp_path / "o"), "--input", str(folder),
                       *extra)
        assert code == 2
        assert capsys.readouterr().err == f"error: ../clips/{message}\n"
        assert not (tmp_path / "o" / "train.manifest").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "empty-out"])
    @pytest.mark.parametrize("name", ["a#1.txt", "c\td.txt", os.fsdecode(b"\xff.txt")],
                             ids=["hash", "tab", "non-utf8"])
    def test_name_no_manifest_line_holds_exits_2_writing_nothing(self, tmp_path, capsys,
                                                                 name, existing):
        folder = _clip_dir(tmp_path, {"a.txt": (3, 2), name: (3, 2)})
        out = tmp_path / "o"
        if existing:
            out.mkdir()
        code = run_cli("index", "--out", str(out), "--input", str(folder))
        assert code == 2
        rel = os.path.join("..", "clips", name)
        assert capsys.readouterr().err == (f"error: {out / 'train.manifest'}: a manifest "
                                           f"line cannot hold {rel!r} (value '0'): its "
                                           f"reader would not give it back\n")
        assert os.listdir(out) == [] if existing else not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_num_labels_below_one_exits_2(self, tmp_path, capsys, value):
        folder = _clip_dir(tmp_path, {"a.txt": (3, 2)})
        code = run_cli("index", "--out", str(tmp_path / "o"), "--input", str(folder),
                       "--num-labels", value)
        assert code == 2
        assert capsys.readouterr().err == f"error: --num-labels must be at least 1, got {value}\n"
        assert not (tmp_path / "o" / "train.manifest").exists()

    def test_non_utf8_sample_exits_2(self, tmp_path, capsys):
        folder = _clip_dir(tmp_path, {"a.txt": (3, 2), "b.txt": (3, 2)})
        with open(folder / "b.txt", "ab") as fh:
            fh.write(b"\xff")
        code = run_cli("index", "--out", str(tmp_path / "o"), "--input", str(folder))
        assert code == 2
        assert capsys.readouterr().err == (f"error: {folder / 'b.txt'}: not a UTF-8 text "
                                           f"file (invalid start byte)\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--per-label", "0", "extents must be positive"),
        ("--labels", "0", "extents must be positive"),
        ("--frames", "1", "at least 2 frames"),
        ("--noise", "nan", "noise must be finite, got nan"),
        ("--noise", "inf", "noise must be finite, got inf"),
    ], ids=["per-label-0", "labels-0", "frames-1", "noise-nan", "noise-inf"])
    def test_bad_synthetic_extent_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "o"
        code = run_cli("prepare", "--out", str(out), "--synthetic", flag, value)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: prepare --synthetic: ") and message in err
        assert not out.exists()

    def test_negative_val_per_label_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("prepare", "--out", str(out), "--synthetic", "--val-per-label", "-1") == 2
        assert capsys.readouterr().err == "error: --val-per-label must be at least 0, got -1\n"
        assert not out.exists()

    def test_synthetic_refuses_num_labels(self, tmp_path, capsys):
        out = tmp_path / "o"
        err = refused(capsys, "prepare", "--out", str(out), "--synthetic", "--labels", "3",
                      "--num-labels", "7")
        assert err.endswith("error: unrecognized arguments: --num-labels 7\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, rejected", [
        (("prepare", "--synthetic", "--input", "{clips}"), "--input {clips}"),
        (("index", "--input", "{clips}", "--val-per-label", "-2"), "--val-per-label -2"),
        (("prepare", "--synthetic", "--labels", "2", "--per-label", "2", "--frames", "4",
          "--joints", "2", "--kind", "ntu"), "--kind ntu"),
    ], ids=["synthetic-and-input", "input-val-per-label-negative", "synthetic-kind"])
    def test_contradictory_mode_flags_exit_2(self, tmp_path, capsys, argv, rejected):
        clips = _clip_dir(tmp_path, {"a.txt": (3, 2)})
        out = tmp_path / "o"
        err = refused(capsys, *(arg.format(clips=clips) for arg in argv), "--out", str(out))
        assert err.endswith(f"error: unrecognized arguments: {rejected.format(clips=clips)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--seed", "3"), ("--labels", "2"), ("--per-label", "5"), ("--val-per-label", "3"),
        ("--frames", "8"), ("--joints", "2"), ("--persons", "1"), ("--coords", "2"),
        ("--noise", "0.1"), ("--labels", "2", "--val-per-label", "0"),
    ], ids=lambda flags: "+".join(flags[::2]).replace("--", ""))
    def test_synthetic_only_flag_in_input_mode_exits_2(self, tmp_path, capsys, flags):
        clips = _clip_dir(tmp_path, {"a.txt": (3, 2)})
        out = tmp_path / "o"
        err = refused(capsys, "index", "--out", str(out), "--input", str(clips), *flags)
        assert err.endswith(f"error: unrecognized arguments: {' '.join(flags)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("index", "--input", "clips", "--seed", "3"),
        ("prepare", "--synthetic", "--kind", "ntu"),
    ], ids=["index-seed", "prepare-kind"])
    def test_refusal_prints_the_command_usage(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        err = refused(capsys, *argv, "--out", str(out))
        assert err.startswith(f"usage: tssan {argv[0]} [-h] ")
        assert f"\ntssan {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}\n" in err
        assert not out.exists()

    def test_one_frame_clip_exits_2(self, tmp_path, capsys):
        folder = _clip_dir(tmp_path, {"a.txt": (6, 2), "short.txt": (1, 2)})
        code = run_cli("index", "--out", str(tmp_path / "o"), "--input", str(folder))
        assert code == 2
        assert "short.txt:1: a clip needs at least 2 frames" in capsys.readouterr().err

    def test_non_finite_value_exits_2_with_line(self, tmp_path, capsys):
        folder = _clip_dir(tmp_path, {"bad.txt": (3, 2)})
        lines = (folder / "bad.txt").read_text().splitlines()
        lines[4] = "nan 0.5"
        (folder / "bad.txt").write_text("\n".join(lines) + "\n")
        code = run_cli("index", "--out", str(tmp_path / "o"), "--input", str(folder))
        assert code == 2
        assert "bad.txt:5: non-finite value" in capsys.readouterr().err


class TestTrainEval:
    def test_train_writes_artifacts(self, tmp_path, synthetic_dir):
        out = _quick_train(tmp_path, synthetic_dir)
        assert (out / "best.ckpt").exists()
        assert (out / "last.ckpt").exists()
        assert (out / "config.ini").exists()
        lines = (out / "metrics.log").read_text().splitlines()
        assert len(lines) == 2 and lines[0].startswith("epoch=1 ")

    def test_config_file_plus_override(self, tmp_path, synthetic_dir, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[model]\nvariant = v1\nencoder = ff\nsan_layers = 1\n"
                       "san_heads = 2\nff_coord_width = 4\n[tsn]\nsegments = 2\n"
                       "frames_per_segment = 4\n[train]\nepochs = 1\n"
                       "batch_size = 4\nlr = 0.001\nseed = 5\n")
        out = tmp_path / "cfgrun"
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--out", str(out), "--config", str(cfg),
                       "--variant", "v3", "--quiet")
        assert code == 0
        echoed = (out / "config.ini").read_text()
        assert "variant = v3" in echoed  # the flag overrode the file

    def test_config_echo_reruns_the_same_training(self, tmp_path, synthetic_dir):
        first = _quick_train(tmp_path, synthetic_dir)
        again = tmp_path / "again"
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--val", str(synthetic_dir / "val.manifest"), "--out", str(again),
                       "--config", str(first / "config.ini"), "--quiet")
        assert code == 0
        assert (again / "last.ckpt").read_bytes() == (first / "last.ckpt").read_bytes()

    @pytest.mark.parametrize("key, value, message", [
        ("train_crop", "0.5, 1.0, 0.2", "train_crop must be two ratios"),
        ("train_crop", "0.9, 0.5", "train_crop must be two ratios"),
        ("train_crop", "-1, 2", "train_crop must be two ratios"),
        ("eval_crop", "1.5", "eval_crop must lie in (0, 1]"),
    ], ids=["three-ratios", "lo-above-hi", "outside-unit", "eval-above-1"])
    def test_bad_crop_ratio_exits_2(self, tmp_path, synthetic_dir, capsys, key, value,
                                    message):
        cfg = tmp_path / "crop.ini"
        cfg.write_text(f"[tsn]\n{key} = {value}\n")
        out = tmp_path / "o"
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--out", str(out), "--config", str(cfg), "--variant", "v2",
                       "--encoder", "ff", "--segments", "2", "--frames-per-segment", "4",
                       "--san-layers", "1", "--san-heads", "2", "--epochs", "1", "--quiet")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("[train]\nepochs = many\n", "{cfg} [train] epochs: cannot parse 'many' as int"),
        ("[tsn]\ntrain_crop = 0.5, high\n",
         "{cfg} [tsn] train_crop: cannot parse '0.5, high' as tuple"),
        ("[optim]\nlr = 0.1\n", "{cfg}: unknown config section [optim]"),
        (None, "config file not found: {cfg}"),
        ("[train]\nepochs = 1\n[train]\nlr = 0.1\n",
         "{cfg}: not a valid config file: While reading from '{cfg}' [line 3]: "
         "section 'train' already exists"),
        ("[train]\nepochs = 1\nepochs = 2\n",
         "{cfg}: not a valid config file: While reading from '{cfg}' [line 3]: "
         "option 'epochs' in section 'train' already exists"),
        ("epochs = 1\n[train]\n",
         "{cfg}: not a valid config file: File contains no section headers. "
         "file: '{cfg}', line: 1 'epochs = 1\\n'"),
        ("[train]\nepochs\n",
         "{cfg}: not a valid config file: Source contains parsing errors: '{cfg}' "
         "[line 2]: 'epochs\\n'"),
        ("[train]\nlr = 1e-3%\n", "{cfg} [train] lr: cannot parse '1e-3%' as float"),
        ("[DEFAULT]\nepochs = 3\n", "{cfg}: unknown config section [DEFAULT]"),
        ("[train]\nlr = 0.1 \xe9\n",
         "{cfg}: not a valid config file: 'utf-8' codec can't decode byte 0xe9 in "
         "position 17: invalid continuation byte"),
    ], ids=["int", "tuple", "section", "missing", "duplicate-section", "duplicate-key",
            "no-section-header", "unparseable-line", "percent", "default-section",
            "not-utf8"])
    def test_bad_config_file_exits_2(self, tmp_path, synthetic_dir, capsys, text, message):
        cfg = tmp_path / "bad.ini"
        if text is not None:
            cfg.write_text(text, encoding="latin-1")    # so "\xe9" is not UTF-8
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--out", str(tmp_path / "o"), "--config", str(cfg))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, synthetic_dir, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[train]\nlearning_rate = 0.1\n")
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--out", str(tmp_path / "o"), "--config", str(cfg))
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_invalid_consensus_exits_2(self, tmp_path, synthetic_dir):
        with pytest.raises(SystemExit) as info:
            run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                    "--out", str(tmp_path / "o"), "--consensus", "median")
        assert info.value.code == 2

    def test_eval_prints_metrics_and_is_deterministic(self, tmp_path,
                                                      synthetic_dir, capsys):
        out = _quick_train(tmp_path, synthetic_dir)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(out / "best.ckpt"),
                       "--data", str(synthetic_dir / "val.manifest"))
        assert code == 0
        first = capsys.readouterr().out.strip()
        assert first.startswith("top1=") and " top5=" in first
        run_cli("eval", "--checkpoint", str(out / "best.ckpt"),
                "--data", str(synthetic_dir / "val.manifest"))
        assert capsys.readouterr().out.strip() == first

    def test_eval_replays_the_best_epochs_held_out_pass(self, tmp_path, synthetic_dir,
                                                        capsys, monkeypatch):
        out = _quick_train(tmp_path, synthetic_dir)       # --batch-size 4, 6 val clips
        records = [dict(field.split("=") for field in line.split())
                   for line in (out / "metrics.log").read_text().splitlines()]
        best = max(records, key=lambda record: float(record["top1"]))   # the first best
        sizes = []
        forward_batch = TsSan.forward_batch

        def recording(self, pairs, *args):
            sizes.append(len(pairs))
            return forward_batch(self, pairs, *args)

        monkeypatch.setattr(TsSan, "forward_batch", recording)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(out / "best.ckpt"),
                       "--data", str(synthetic_dir / "val.manifest")) == 0
        assert sizes == [4, 2]
        assert capsys.readouterr().out == f"top1={best['top1']} top5={best['top5']}\n"

    @pytest.mark.parametrize("shape, message", [
        ((2, 2), "bad.txt: 2 frames cannot be split into 3 segments"),
        ((6, 1), "bad.txt: clip geometry (persons, joints, coords) (1, 2, 2) "
                 "does not match the model's (2, 2, 2)"),
    ], ids=["short", "one-person"])
    def test_bad_clip_exits_2_before_training(self, tmp_path, capsys, shape, message):
        folder = _clip_dir(tmp_path, {"a.txt": (6, 2), "bad.txt": shape})
        data = tmp_path / "data"
        assert run_cli("index", "--out", str(data), "--input", str(folder)) == 0
        out = tmp_path / "run"
        code = run_cli("train", "--data", str(data / "train.manifest"), "--out", str(out),
                       "--variant", "v2", "--encoder", "ff", "--segments", "3",
                       "--frames-per-segment", "4", "--epochs", "1", "--quiet")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "metrics.log").exists()

    def test_missing_variant_exits_2_naming_both_ways(self, tmp_path, synthetic_dir,
                                                      capsys):
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--out", str(tmp_path / "o"), "--encoder", "ff")
        assert code == 2
        err = capsys.readouterr().err
        assert "no model variant given" in err
        assert "--variant" in err and "[model]" in err

    @pytest.mark.parametrize("command, shape, message", [
        ("eval", (6, 1), "clip.txt: clip geometry (persons, joints, coords) (1, 2, 2) "
                         "does not match the model's (2, 2, 2)"),
        ("export-attention", (6, 1), "clip.txt: clip geometry (persons, joints, "
                                     "coords) (1, 2, 2) does not match the model's"),
        ("export-attention", (2, 2), "clip.txt: 2 frames cannot be split into 3 segments"),
    ], ids=["eval-one-person", "export-one-person", "export-short"])
    def test_checkpoint_refuses_clip_it_cannot_take(self, tmp_path, synthetic_dir, capsys,
                                                   command, shape, message):
        run_dir = _quick_train(tmp_path, synthetic_dir, "--segments", "3")
        folder = _clip_dir(tmp_path, {"clip.txt": shape})
        if command == "eval":
            data = tmp_path / "data1"
            assert run_cli("index", "--out", str(data), "--input", str(folder),
                           "--num-labels", "3") == 0
            target = ["--data", str(data / "train.manifest")]
        else:
            target = ["--sample", str(folder / "clip.txt"), "--out", str(tmp_path / "maps")]
        code = run_cli(command, "--checkpoint", str(run_dir / "best.ckpt"), *target)
        assert code == 2
        assert message in capsys.readouterr().err

    def test_same_run_without_the_sample_files(self, tmp_path, synthetic_dir, capsys):
        # train and eval read a split from its manifest and pack alone; every
        # command, a refused one too, closes each file it opens itself, so no
        # file is left for the collector
        def run(name):
            out = tmp_path / name
            train = ["train", "--data", str(synthetic_dir / "train.manifest"),
                     "--val", str(synthetic_dir / "val.manifest"), "--out", str(out),
                     "--config", str(_narrow_config(tmp_path)), "--variant", "v3",
                     "--encoder", "ff", "--segments", "2", "--frames-per-segment", "4",
                     "--san-layers", "1", "--san-heads", "2", "--batch-size", "4",
                     "--seed", "3", "--quiet"]
            assert run_cli(*train, "--epochs", "2") == 0
            assert run_cli(*train, "--epochs", "3", "--resume", str(out / "last.ckpt")) == 0
            capsys.readouterr()
            assert run_cli("eval", "--checkpoint", str(out / "best.ckpt"),
                           "--data", str(synthetic_dir / "val.manifest")) == 0
            log = [line.split(" seconds=")[0]
                   for line in (out / "metrics.log").read_text().splitlines()]
            return log, capsys.readouterr().out, train

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert run_cli("prepare", "--synthetic", "--out", str(tmp_path / "prepared"),
                           "--labels", "2", "--per-label", "2", "--frames", "6") == 0
            assert run_cli("index", "--input", str(synthetic_dir),
                           "--out", str(tmp_path / "indexed")) == 0
            with_files = run("with-files")
            assert run_cli("export-attention", "--checkpoint",
                           str(tmp_path / "with-files" / "best.ckpt"),
                           "--sample", str(next(synthetic_dir.glob("val_*.txt"))),
                           "--out", str(tmp_path / "maps")) == 0
            for sample in synthetic_dir.glob("*.txt"):
                sample.unlink()
            pack_only = run("pack-only")
            train = pack_only[2]
            for resume in ([], ["--resume", str(tmp_path / "pack-only" / "best.ckpt")],
                           ["--resume", str(tmp_path / "with-files" / "last.ckpt")]):
                assert run_cli(*train, "--epochs", "4", *resume) == 2
        assert [w.message for w in caught if w.category is ResourceWarning] == []
        assert pack_only[:2] == with_files[:2]
        assert len(with_files[0]) == 3 and with_files[1].startswith("top1=")

    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize("damage", ["missing", "truncated", "flipped-payload",
                                        "lacked-entry", "flipped-label", "forged-nan",
                                        "forged-shape", "forged-empty", "no-labels"])
    def test_unusable_pack_exits_2_before_any_epoch(self, tmp_path, synthetic_dir, capsys,
                                                    split, damage):
        pack = synthetic_dir / f"{split}.pack"
        blob = pack.read_bytes()
        meta, arrays = load_checkpoint(str(pack))
        first = next(iter(arrays))
        if damage == "missing":
            pack.unlink()
        elif damage == "truncated":
            pack.write_bytes(blob[:len(blob) // 2])
        elif damage == "flipped-payload":
            pack.write_bytes(blob[:-20] + bytes([blob[-20] ^ 1]) + blob[-19:])
        else:                   # a well-formed pack, checksum and all
            if damage == "lacked-entry":
                del arrays[first]
                meta["labels"] = meta["labels"][1:]
            elif damage == "flipped-label":
                meta["labels"][0] ^= 1
            elif damage == "no-labels":
                meta = {}
            else:
                arrays[first] = {"forged-nan": np.full_like(arrays[first], np.nan),
                                 "forged-shape": arrays[first][0],
                                 "forged-empty": arrays[first][:, :0]}[damage]
            save_checkpoint(str(pack), arrays, meta)
        out = tmp_path / "run"
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--val", str(synthetic_dir / "val.manifest"), "--out", str(out),
                       "--variant", "v2", "--encoder", "ff", "--segments", "2",
                       "--frames-per-segment", "4", "--epochs", "1", "--quiet")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: split '{split}': ") and err.count("\n") == 1
        assert err.endswith("run `tssan index` (or `prepare`) again to rebuild it\n")
        assert not out.exists()

    def test_eval_of_a_missing_pack_exits_2(self, tmp_path, synthetic_dir, capsys):
        out = _quick_train(tmp_path, synthetic_dir)
        (synthetic_dir / "val.pack").unlink()
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(out / "best.ckpt"),
                       "--data", str(synthetic_dir / "val.manifest"))
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: split 'val': [Errno 2] No such file or directory: "
                f"'{synthetic_dir / 'val.pack'}'; run `tssan index` (or `prepare`) "
                f"again to rebuild it\n")

    def test_corrupt_checkpoint_exits_2(self, tmp_path, synthetic_dir, capsys):
        out = _quick_train(tmp_path, synthetic_dir)
        blob = bytearray((out / "best.ckpt").read_bytes())
        blob[-12] ^= 1
        (out / "best.ckpt").write_bytes(bytes(blob))
        code = run_cli("eval", "--checkpoint", str(out / "best.ckpt"),
                       "--data", str(synthetic_dir / "val.manifest"))
        assert code == 2
        assert "checksum mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_header_nested_too_deep_exits_2(self, tmp_path, synthetic_dir, capsys, command):
        if command == "eval":
            bad = tmp_path / "deep.ckpt"
            argv = ["--checkpoint", str(bad), "--data", str(synthetic_dir / "val.manifest")]
            prefix = f"error: {bad}: "
        else:
            bad = synthetic_dir / "train.pack"
            argv = ["--data", str(synthetic_dir / "train.manifest"), "--out",
                    str(tmp_path / "run"), "--variant", "v2", "--encoder", "ff"]
            prefix = f"error: split 'train': {bad}: "
        _nested_too_deep(bad)
        capsys.readouterr()
        assert run_cli(command, *argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(prefix + "unreadable header: maximum recursion depth exceeded")
        assert not (tmp_path / "run").exists()

    def test_resume_from_a_missing_checkpoint_exits_2(self, tmp_path, synthetic_dir, capsys):
        missing = tmp_path / "none.ckpt"
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--out", str(tmp_path / "run"), "--variant", "v2", "--encoder", "ff",
                       "--resume", str(missing))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read checkpoint {missing}: ")
        assert not (tmp_path / "run").exists()

    def test_eval_missing_checkpoint_exits_2(self, tmp_path, synthetic_dir):
        code = run_cli("eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                       "--data", str(synthetic_dir / "val.manifest"))
        assert code == 2

    def test_resume_flag(self, tmp_path, synthetic_dir):
        out = _quick_train(tmp_path, synthetic_dir)
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--val", str(synthetic_dir / "val.manifest"),
                       "--config", str(tmp_path / "narrow.ini"),
                       "--out", str(out), "--variant", "v2", "--encoder", "ff",
                       "--segments", "2", "--consensus", "avg",
                       "--frames-per-segment", "4", "--san-layers", "1",
                       "--san-heads", "2", "--epochs", "4", "--batch-size", "4",
                       "--lr", "0.003", "--seed", "3", "--quiet",
                       "--resume", str(out / "last.ckpt"))
        assert code == 0
        lines = (out / "metrics.log").read_text().splitlines()
        assert len(lines) == 4  # epochs 1-2 then resumed 3-4, appended

    @pytest.mark.parametrize("held", ["all", "config.ini", "metrics.log", "last.ckpt"])
    def test_fresh_train_into_a_held_run_exits_2(self, tmp_path, synthetic_dir, capsys,
                                                 held):
        out = _quick_train(tmp_path, synthetic_dir)
        if held != "all":
            for name in os.listdir(out):
                if name != held:
                    (out / name).unlink()
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        capsys.readouterr()
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--out", str(out), "--variant", "v2", "--encoder", "ff",
                       "--segments", "2", "--frames-per-segment", "4", "--epochs", "1",
                       "--seed", "4", "--quiet")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out} already holds a run (") and "--resume" in err
        if held != "all":
            assert f"({held})" in err
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_resume_into_another_held_run_exits_2(self, tmp_path, synthetic_dir, capsys):
        run_a = _quick_train(tmp_path / "a", synthetic_dir)
        run_b = _quick_train(tmp_path / "b", synthetic_dir, "--seed", "4")
        before = {name: (run_b / name).read_bytes() for name in os.listdir(run_b)}
        capsys.readouterr()
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--val", str(synthetic_dir / "val.manifest"), "--out", str(run_b),
                       "--config", str(run_a / "config.ini"), "--epochs", "4", "--quiet",
                       "--resume", str(run_a / "last.ckpt"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --out {run_b} already holds a run (config.ini, metrics.log, "
            f"best.ckpt, last.ckpt); only --resume from its last.ckpt continues it, "
            f"else use another --out\n")
        assert {name: (run_b / name).read_bytes() for name in os.listdir(run_b)} == before

    @pytest.mark.parametrize("resume", [None, "its best.ckpt", "another run's last.ckpt"])
    def test_refused_out_is_kept_and_reads_no_pack(self, tmp_path, synthetic_dir, capsys,
                                                   monkeypatch, resume):
        # a resume from best.ckpt in place would log its later epochs twice
        from tssan import cli
        out = _quick_train(tmp_path, synthetic_dir)
        source = {None: None, "its best.ckpt": out / "best.ckpt",
                  "another run's last.ckpt":
                      _quick_train(tmp_path / "b", synthetic_dir) / "last.ckpt"}[resume]
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        monkeypatch.setattr(cli, "load_samples",
                            lambda manifest: pytest.fail("a refused --out read a pack"))
        capsys.readouterr()
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--val", str(synthetic_dir / "val.manifest"), "--out", str(out),
                       "--config", str(out / "config.ini"), "--epochs", "4", "--quiet",
                       *(["--resume", str(source)] if source else []))
        assert code == 2
        assert capsys.readouterr() == ("", (
            f"error: --out {out} already holds a run (config.ini, metrics.log, best.ckpt, "
            f"last.ckpt); only --resume from its last.ckpt continues it, else use another "
            f"--out\n"))
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_resume_names_only_a_best_checkpoint_it_wrote(self, tmp_path, synthetic_dir,
                                                          capsys, monkeypatch):
        from tssan import training
        # a flat top-1: only epoch 1 improves, so a resumed epoch never does
        monkeypatch.setattr(training, "evaluate", lambda *args: (0.5, 1.0))
        out = _quick_train(tmp_path, synthetic_dir)
        capsys.readouterr()
        for target in (tmp_path / "new", out):
            code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                           "--val", str(synthetic_dir / "val.manifest"),
                           "--out", str(target), "--config", str(out / "config.ini"),
                           "--epochs", "3", "--quiet", "--resume", str(out / "last.ckpt"))
            assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "best top1=0.5 checkpoint=none", f"best top1=0.5 checkpoint={out / 'best.ckpt'}"]
        assert not (tmp_path / "new" / "best.ckpt").exists()

    @pytest.mark.parametrize("flags, ini, key", [
        (("--lr", "0.5"), "", "train.lr"),
        ((), "[train]\nweight_decay = 0.0", "train.weight_decay"),
        ((), "[train]\nplateau_patience = 1", "train.plateau_patience"),
        ((), "[train]\nlr_factor = 0.25", "train.lr_factor"),
        (("--seed", "4"), "", "train.seed"),
        (("--san-heads", "1"), "", "model.san_heads"),
        (("--consensus", "max"), "", "tsn.consensus"),
    ], ids=["lr", "weight-decay", "patience", "lr-factor", "seed", "model-key", "tsn-key"])
    def test_resume_with_changed_setting_exits_2(self, tmp_path, synthetic_dir, capsys,
                                                 flags, ini, key):
        out = _quick_train(tmp_path, synthetic_dir)
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        config = tmp_path / "run.ini"
        config.write_text(f"[model]\nff_coord_width = 4\n{ini}\n")
        for target in (tmp_path / "new", out):
            code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                           "--val", str(synthetic_dir / "val.manifest"),
                           "--out", str(target), "--config", str(config),
                           "--variant", "v2", "--encoder", "ff", "--segments", "2",
                           "--consensus", "avg", "--frames-per-segment", "4",
                           "--san-layers", "1", "--san-heads", "2", "--epochs", "4",
                           "--batch-size", "4", "--lr", "0.003", "--seed", "3", "--quiet",
                           *flags, "--resume", str(out / "last.ckpt"))
            assert code == 2
            err = capsys.readouterr().err
            assert "different" in err and f" {key} (" in err
        # a refused resume writes nothing: no echo of the refused settings
        assert not (tmp_path / "new").exists()
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_resume_may_change_epochs_and_batch_size(self, tmp_path, synthetic_dir):
        out = _quick_train(tmp_path, synthetic_dir)
        resumed = tmp_path / "resumed"
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--val", str(synthetic_dir / "val.manifest"),
                       "--out", str(resumed), "--config", str(out / "config.ini"),
                       "--epochs", "3", "--batch-size", "2", "--quiet",
                       "--resume", str(out / "last.ckpt"))
        assert code == 0
        assert (resumed / "metrics.log").read_text().startswith("epoch=3 ")
        assert "batch_size = 2" in (resumed / "config.ini").read_text()

    def test_resume_to_fewer_epochs_exits_2(self, tmp_path, synthetic_dir, capsys):
        out = _quick_train(tmp_path, synthetic_dir)
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        capsys.readouterr()

        def resume(epochs):
            return run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                           "--val", str(synthetic_dir / "val.manifest"), "--out", str(out),
                           "--config", str(out / "config.ini"), "--epochs", epochs,
                           "--quiet", "--resume", str(out / "last.ckpt"))

        assert resume("1") == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'last.ckpt'}: the run has trained 2 epochs, "
            f"more than the 1 asked for\n")
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
        # a resume to the count already run trains nothing
        assert resume("2") == 0
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_train_with_batch_size_one(self, tmp_path, synthetic_dir):
        out = _quick_train(tmp_path, synthetic_dir, "--batch-size", "1")
        assert len((out / "metrics.log").read_text().splitlines()) == 2

    @pytest.mark.parametrize("command", ["train-data", "train-val", "eval-data"])
    def test_manifest_without_entries_exits_2(self, tmp_path, synthetic_dir, capsys,
                                              command):
        empty = synthetic_dir / "empty.manifest"
        header = (synthetic_dir / "val.manifest").read_text().splitlines()[:3]
        empty.write_text("\n".join(header) + "\n")
        train, val = synthetic_dir / "train.manifest", synthetic_dir / "val.manifest"
        if command == "eval-data":
            out = _quick_train(tmp_path, synthetic_dir)
            argv = ["eval", "--checkpoint", str(out / "best.ckpt"), "--data", str(empty)]
        else:
            if command == "train-data":
                train = empty
            else:
                val = empty
            argv = ["train", "--data", str(train), "--val", str(val),
                    "--out", str(tmp_path / "x"), "--variant", "v2", "--encoder", "ff",
                    "--segments", "2", "--frames-per-segment", "4", "--epochs", "1"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {empty}: manifest lists no samples\n"
        assert not (tmp_path / "x").exists()

    def test_non_utf8_manifest_exits_2(self, tmp_path, synthetic_dir, capsys):
        manifest = synthetic_dir / "train.manifest"
        with open(manifest, "ab") as fh:
            fh.write(b"extra.txt\t0\xe9\n")
        code = run_cli("train", "--data", str(manifest), "--out", str(tmp_path / "run"),
                       "--variant", "v2", "--encoder", "ff")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {manifest}: not a UTF-8 text file")

    @pytest.mark.parametrize("flags, ini, message", [
        (("--san-heads", "7"), "", "width 256 not divisible by 7 heads"),
        (("--san-layers", "0"), "", "all attention extents must be positive"),
        ((), "[model]\nsan_dropout = 1.5", "san_dropout must lie in [0, 1), got 1.5"),
        ((), "[model]\nhead_dropout = -0.1", "head_dropout must lie in [0, 1), got -0.1"),
        ((), "[model]\nsan_ff_width = -512", "ff_width must be >= 0, got -512"),
        (("--lr", "nan"), "", "lr, batch_size, epochs, patience must be positive"),
        ((), "[train]\nweight_decay = -1", "weight_decay must be >= 0, got -1.0"),
        (("--lr", "inf"), "", "lr must be finite, got inf"),
        ((), "[train]\nweight_decay = inf", "weight_decay must be finite, got inf"),
        (("--seed", "-1"), "", "seed must be >= 0, got -1"),
    ], ids=["heads-7", "layers-0", "san-dropout", "head-dropout", "ff-width", "lr-nan",
            "weight-decay", "lr-inf", "weight-decay-inf", "seed-negative"])
    def test_bad_model_config_exits_2_before_writing(self, tmp_path, synthetic_dir, capsys,
                                                     flags, ini, message):
        # model and train settings alike are refused before config.ini is written
        config = tmp_path / "run.ini"
        config.write_text(f"{ini}\n")
        out = tmp_path / "run"
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--out", str(out), "--config", str(config), "--variant", "v2",
                       "--encoder", "ff", "--segments", "2", "--frames-per-segment", "4",
                       "--epochs", "1", "--quiet", *flags)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: invalid configuration: {message}")
        assert not out.exists()

    def test_train_without_quiet_prints_each_epoch(self, tmp_path, synthetic_dir, capsys):
        out = tmp_path / "loud"
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--config", str(_narrow_config(tmp_path)),
                       "--out", str(out), "--variant", "v2", "--encoder", "ff",
                       "--segments", "2", "--frames-per-segment", "4", "--san-layers", "1",
                       "--san-heads", "2", "--epochs", "2", "--batch-size", "4")
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[:-1] == (out / "metrics.log").read_text().splitlines()
        assert len(printed) == 3 and printed[-1].startswith("best top1=")

    def test_train_val_label_counts_disagree_exits_2(self, tmp_path, synthetic_dir, capsys):
        val = synthetic_dir / "val.manifest"
        val.write_text(val.read_text().replace("num_labels\t3\n", "num_labels\t4\n"))
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--val", str(val), "--out", str(tmp_path / "o"), "--variant", "v2",
                       "--encoder", "ff", "--segments", "2", "--frames-per-segment", "4")
        assert code == 2
        assert capsys.readouterr().err == "error: train/val manifests disagree on num_labels\n"
        assert not (tmp_path / "o").exists()

    def test_eval_label_count_mismatch_exits_2(self, tmp_path, synthetic_dir, capsys):
        out = _quick_train(tmp_path, synthetic_dir)
        val = synthetic_dir / "val.manifest"
        val.write_text(val.read_text().replace("num_labels\t3\n", "num_labels\t4\n"))
        code = run_cli("eval", "--checkpoint", str(out / "best.ckpt"), "--data", str(val))
        assert code == 2
        assert capsys.readouterr().err == "error: checkpoint expects 3 labels, manifest has 4\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_eval_of_non_finite_checkpoint_exits_2(self, tmp_path, synthetic_dir, capsys,
                                                   value):
        out = _quick_train(tmp_path, synthetic_dir)
        meta, arrays = load_checkpoint(str(out / "best.ckpt"))
        key = next(k for k in arrays if k.startswith("param."))
        arrays[key][...] = float(value)
        save_checkpoint(str(out / "best.ckpt"), arrays, meta)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(out / "best.ckpt"),
                       "--data", str(synthetic_dir / "val.manifest"))
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {out / 'best.ckpt'}: {key} "
                                           f"holds non-finite values\n")

    @pytest.mark.parametrize("command", ["eval", "export-attention"])
    def test_stored_frame_count_mismatch_exits_2(self, tmp_path, synthetic_dir, capsys,
                                                 command):
        # a model of 5 frames under segments resampled to 4 cannot be built
        ckpt = _quick_train(tmp_path, synthetic_dir) / "best.ckpt"
        meta, arrays = load_checkpoint(str(ckpt))
        meta["configs"]["model"]["frames"] = 5
        save_checkpoint(str(ckpt), arrays, meta)
        capsys.readouterr()
        maps = tmp_path / "maps"
        argv = {"eval": ["--data", str(synthetic_dir / "val.manifest")],
                "export-attention": ["--sample", str(synthetic_dir / "val_00_0000.txt"),
                                     "--out", str(maps)]}[command]
        assert run_cli(command, "--checkpoint", str(ckpt), *argv) == 2
        assert capsys.readouterr() == ("", f"error: {ckpt}: unusable configs in meta "
                                           f"(ValueError('the model takes 5 frames, but each "
                                           f"segment is resampled to 4'))\n")
        assert not maps.exists()

    @pytest.mark.parametrize("command, what", [
        ("prepare", "out-file"), ("train", "out-file"), ("export-attention", "out-file"),
        ("train", "data-dir"), ("eval", "data-dir"), ("export-attention", "sample-dir"),
    ], ids=["prepare-out-file", "train-out-file", "export-out-file", "train-data-dir",
            "eval-data-dir", "export-sample-dir"])
    def test_path_of_the_wrong_kind_exits_2(self, tmp_path, synthetic_dir, capsys,
                                            command, what):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n")
        paths = {"out": out, "data": synthetic_dir / "train.manifest",
                 "sample": synthetic_dir / "val_00_0000.txt"}
        bad = out if what == "out-file" else synthetic_dir
        paths[what.split("-")[0]] = bad    # the case's path: "out", "data" or "sample"
        ckpt = (str(_quick_train(tmp_path, synthetic_dir) / "best.ckpt")
                if command in ("eval", "export-attention") else None)
        argv = {"prepare": ["--synthetic", "--out", str(paths["out"])],
                "train": ["--data", str(paths["data"]), "--out", str(paths["out"]),
                          "--variant", "v2", "--encoder", "ff", "--segments", "2",
                          "--frames-per-segment", "4", "--epochs", "1"],
                "eval": ["--checkpoint", ckpt, "--data", str(paths["data"])],
                "export-attention": ["--checkpoint", ckpt, "--sample", str(paths["sample"]),
                                     "--out", str(paths["out"])]}[command]
        capsys.readouterr()
        assert run_cli(command, *argv) == 2
        problem = "File exists" if what == "out-file" else "Is a directory"
        assert capsys.readouterr().err.endswith(f"] {problem}: '{bad}'\n")
        assert out.read_text() == "a file, not a directory\n"

    def test_nan_gradient_exits_3(self, tmp_path, synthetic_dir, capsys, monkeypatch):
        from tssan import training
        built = []
        real_build, real_backward = training.build_ts_model, training.backward

        def recording_build(*args):
            built.append(real_build(*args))
            return built[-1]

        def poisoned(loss):
            real_backward(loss)
            for _, p in built[0].named_parameters():
                p.grad[...] = np.nan

        monkeypatch.setattr(training, "build_ts_model", recording_build)
        monkeypatch.setattr(training, "backward", poisoned)
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--out", str(tmp_path / "run"), "--variant", "v2",
                       "--encoder", "ff", "--segments", "2", "--frames-per-segment", "4",
                       "--san-layers", "1", "--san-heads", "2", "--epochs", "1",
                       "--batch-size", "4", "--quiet")
        assert code == 3
        first = next(name for name, _ in built[0].named_parameters())
        assert (f"numeric failure: non-finite gradient for {first} at epoch 1 step 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "run" / "last.ckpt").exists()


class TestHelp:
    @pytest.mark.parametrize("cmd", [[], ["prepare"], ["train"], ["eval"],
                                     ["export-attention"], ["index"]])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(*cmd, "--help")
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "usage" in out


class TestExportAttention:
    @pytest.fixture
    def trained(self, tmp_path, synthetic_dir):
        out = _quick_train(tmp_path, synthetic_dir)
        sample = next(str(p) for p in sorted(synthetic_dir.iterdir())
                      if p.name.startswith("val") and p.suffix == ".txt")
        return out, sample

    @pytest.mark.parametrize("variant, branches", [("v2", ("person0", "person1")),
                                                   ("v3", ("position", "motion"))],
                             ids=["v2", "v3"])
    def test_exports_every_map_of_the_sample(self, tmp_path, synthetic_dir, variant,
                                             branches):
        run_dir = _quick_train(tmp_path, synthetic_dir, "--variant", variant,
                               "--san-layers", "2")
        export = tmp_path / "maps"
        code = run_cli("export-attention", "--checkpoint", str(run_dir / "best.ckpt"),
                       "--sample", str(synthetic_dir / "val_00_0000.txt"),
                       "--out", str(export))
        assert code == 0
        assert sorted(p.name for p in export.iterdir()) == sorted(
            f"segment{k}_{branch}_layer{layer}_head{head}.{ext}" for k in (0, 1)
            for branch in branches for layer in (0, 1) for head in (0, 1)
            for ext in ("csv", "pgm"))

    def test_each_csv_holds_its_trace_slot(self, tmp_path, synthetic_dir, monkeypatch):
        from tssan.segments import TsSan
        run_dir = _quick_train(tmp_path, synthetic_dir, "--san-layers", "2")
        outputs = []
        forward = TsSan.forward_batch

        def recording(self, *args, **kwargs):
            outputs.append(forward(self, *args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(TsSan, "forward_batch", recording)
        export = tmp_path / "maps"
        code = run_cli("export-attention", "--checkpoint", str(run_dir / "best.ckpt"),
                       "--sample", str(synthetic_dir / "val_00_0000.txt"),
                       "--out", str(export))
        assert code == 0
        (out,) = outputs
        csvs = 0
        for k, branches in enumerate(out.traces):
            for branch, trace in branches.items():
                for layer in (0, 1):
                    for head in (0, 1):
                        matrix = trace.stacked[layer, 0, head]
                        expected = "".join(",".join(repr(float(v)) for v in row) + "\n"
                                           for row in matrix)
                        path = export / f"segment{k}_{branch}_layer{layer}_head{head}.csv"
                        assert path.read_text() == expected
                        csvs += 1
        assert csvs == 16  # 2 segments x 2 persons x 2 layers x 2 heads

    def test_exported_rows_roundtrip_to_stochastic(self, tmp_path, trained):
        run_dir, sample = trained
        export = tmp_path / "maps2"
        run_cli("export-attention", "--checkpoint", str(run_dir / "best.ckpt"),
                "--sample", sample, "--out", str(export))
        for path in export.iterdir():
            if path.suffix != ".csv":
                continue
            rows = [[float(v) for v in line.split(",")]
                    for line in path.read_text().splitlines()]
            arr = np.array(rows)
            assert arr.shape == (4, 4)  # frames_per_segment = 4
            np.testing.assert_allclose(arr.sum(axis=1), np.ones(4), atol=1e-6)
            assert arr.min() >= 0.0

    def test_pgm_header_and_range(self, tmp_path, trained):
        run_dir, sample = trained
        export = tmp_path / "maps3"
        run_cli("export-attention", "--checkpoint", str(run_dir / "best.ckpt"),
                "--sample", sample, "--out", str(export))
        pgm = next(p for p in sorted(export.iterdir()) if p.suffix == ".pgm")
        lines = pgm.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "4 4"
        assert lines[2] == "255"
        values = [int(v) for line in lines[3:] for v in line.split()]
        assert max(values) == 255 and min(values) >= 0

    def test_export_records_no_autograd_graph(self, tmp_path, trained, monkeypatch):
        from tssan.segments import TsSan
        run_dir, sample = trained
        outputs = []
        forward = TsSan.forward_batch

        def recording(self, *args, **kwargs):
            outputs.append(forward(self, *args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(TsSan, "forward_batch", recording)
        code = run_cli("export-attention", "--checkpoint", str(run_dir / "best.ckpt"),
                       "--sample", sample, "--out", str(tmp_path / "maps5"))
        assert code == 0
        assert len(outputs) == 1
        assert not outputs[0].log_probs.requires_grad

    @pytest.mark.parametrize("variant", ["v2", "v3"])
    def test_export_on_float32_weights_writes_the_float64_twins_files(
            self, tmp_path, synthetic_dir, variant, monkeypatch):
        from tssan.nn import Module
        from tssan.segments import TsSan
        run_dir = _quick_train(tmp_path, synthetic_dir, "--variant", variant)
        dtypes = []
        forward = TsSan.forward_batch

        def recording(self, *args, **kwargs):
            dtypes.append({p.data.dtype for _, p in self.named_parameters()})
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(TsSan, "forward_batch", recording)

        def export(name):
            out = tmp_path / name
            assert run_cli("export-attention", "--checkpoint", str(run_dir / "best.ckpt"),
                           "--sample", str(synthetic_dir / "val_00_0000.txt"),
                           "--out", str(out)) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        narrowed = export("narrowed")
        monkeypatch.setattr(Module, "narrow", lambda self: self)
        twin = export("twin")
        assert dtypes == [{np.dtype(np.float32)}, {np.dtype(np.float64)}]
        assert len(narrowed) == 16 and narrowed == twin
