import os

import numpy as np
import pytest

from tssan.cli import main
from tssan.data import SkeletonClip, load_manifest, save_sample


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


def _quick_train(tmp_path, synthetic_dir, *extra):
    out = tmp_path / "run"
    code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                   "--val", str(synthetic_dir / "val.manifest"),
                   "--out", str(out), "--variant", "v2", "--encoder", "ff",
                   "--segments", "2", "--consensus", "avg",
                   "--frames-per-segment", "4", "--san-layers", "1",
                   "--san-heads", "2", "--epochs", "2", "--batch-size", "4",
                   "--lr", "0.003", "--seed", "3", "--quiet", *extra)
    assert code == 0
    return out


def _clip_dir(tmp_path, frames_by_name):
    """A directory of sample files with the given frame counts, label 0."""
    rng = np.random.default_rng(0)
    folder = tmp_path / "clips"
    folder.mkdir()
    for name, frames in frames_by_name.items():
        clip = SkeletonClip(rng.normal(size=(frames, 2, 2, 2)), np.ones(2, bool))
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
            assert (synthetic_dir / name).read_text() == (again / name).read_text()

    def test_missing_input_dir_exits_2(self, tmp_path, capsys):
        code = run_cli("prepare", "--out", str(tmp_path / "x"),
                       "--input", str(tmp_path / "nope"))
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_input_directory_mode(self, tmp_path, synthetic_dir):
        out = tmp_path / "indexed"
        code = run_cli("prepare", "--out", str(out), "--input",
                       str(synthetic_dir), "--kind", "synthetic")
        assert code == 0
        manifest = load_manifest(str(out / "train.manifest"))
        assert len(manifest) == 18  # train + val sample files reindexed

    def test_one_frame_clip_exits_2(self, tmp_path, capsys):
        folder = _clip_dir(tmp_path, {"a.txt": 6, "short.txt": 1})
        code = run_cli("prepare", "--out", str(tmp_path / "o"), "--input", str(folder))
        assert code == 2
        assert "short.txt:1: a clip needs at least 2 frames" in capsys.readouterr().err

    def test_non_finite_value_exits_2_with_line(self, tmp_path, capsys):
        folder = _clip_dir(tmp_path, {"bad.txt": 3})
        lines = (folder / "bad.txt").read_text().splitlines()
        lines[4] = "nan 0.5"
        (folder / "bad.txt").write_text("\n".join(lines) + "\n")
        code = run_cli("prepare", "--out", str(tmp_path / "o"), "--input", str(folder))
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
                       "san_heads = 2\n[tsn]\nsegments = 2\n"
                       "frames_per_segment = 4\n[train]\nepochs = 1\n"
                       "batch_size = 4\nlr = 0.001\nseed = 5\n")
        out = tmp_path / "cfgrun"
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--out", str(out), "--config", str(cfg),
                       "--variant", "v3", "--quiet")
        assert code == 0
        echoed = (out / "config.ini").read_text()
        assert "variant = v3" in echoed  # the flag overrode the file

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

    def test_clip_shorter_than_segments_exits_2_before_training(self, tmp_path, capsys):
        folder = _clip_dir(tmp_path, {"a.txt": 6, "short.txt": 2})
        data = tmp_path / "data"
        assert run_cli("prepare", "--out", str(data), "--input", str(folder)) == 0
        out = tmp_path / "run"
        code = run_cli("train", "--data", str(data / "train.manifest"), "--out", str(out),
                       "--variant", "v2", "--encoder", "ff", "--segments", "3",
                       "--frames-per-segment", "4", "--epochs", "1", "--quiet")
        assert code == 2
        assert "short.txt: 2 frames cannot be split into 3 segments" in \
            capsys.readouterr().err
        assert not (out / "metrics.log").exists()

    def test_eval_missing_checkpoint_exits_2(self, tmp_path, synthetic_dir):
        code = run_cli("eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                       "--data", str(synthetic_dir / "val.manifest"))
        assert code == 2

    def test_resume_flag(self, tmp_path, synthetic_dir):
        out = _quick_train(tmp_path, synthetic_dir)
        code = run_cli("train", "--data", str(synthetic_dir / "train.manifest"),
                       "--val", str(synthetic_dir / "val.manifest"),
                       "--out", str(out), "--variant", "v2", "--encoder", "ff",
                       "--segments", "2", "--consensus", "avg",
                       "--frames-per-segment", "4", "--san-layers", "1",
                       "--san-heads", "2", "--epochs", "4", "--batch-size", "4",
                       "--lr", "0.003", "--seed", "3", "--quiet",
                       "--resume", str(out / "last.ckpt"))
        assert code == 0
        lines = (out / "metrics.log").read_text().splitlines()
        assert len(lines) == 4  # epochs 1-2 then resumed 3-4, appended


class TestHelp:
    @pytest.mark.parametrize("cmd", [[], ["prepare"], ["train"], ["eval"],
                                     ["export-attention"]])
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

    def test_exports_one_file_pair_per_head(self, tmp_path, trained):
        run_dir, sample = trained
        export = tmp_path / "maps"
        code = run_cli("export-attention", "--checkpoint", str(run_dir / "best.ckpt"),
                       "--sample", sample, "--out", str(export))
        assert code == 0
        csvs = sorted(p.name for p in export.iterdir() if p.suffix == ".csv")
        pgms = sorted(p.name for p in export.iterdir() if p.suffix == ".pgm")
        assert len(csvs) == 2 and len(pgms) == 2  # san_heads = 2, last layer
        assert all(name.startswith("person0_layer0_head") for name in csvs)

    def test_exported_rows_roundtrip_to_stochastic(self, tmp_path, trained):
        run_dir, sample = trained
        export = tmp_path / "maps2"
        run_cli("export-attention", "--checkpoint", str(run_dir / "best.ckpt"),
                "--sample", sample, "--out", str(export), "--all-layers")
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

    def test_out_of_range_layer_exits_2(self, tmp_path, trained, capsys):
        run_dir, sample = trained
        code = run_cli("export-attention", "--checkpoint", str(run_dir / "best.ckpt"),
                       "--sample", sample, "--out", str(tmp_path / "m"),
                       "--layer", "5")
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_out_of_range_head_exits_2(self, tmp_path, trained):
        run_dir, sample = trained
        code = run_cli("export-attention", "--checkpoint", str(run_dir / "best.ckpt"),
                       "--sample", sample, "--out", str(tmp_path / "m"),
                       "--head", "9")
        assert code == 2

    def test_branch_selection(self, tmp_path, trained):
        run_dir, sample = trained
        export = tmp_path / "maps4"
        code = run_cli("export-attention", "--checkpoint", str(run_dir / "best.ckpt"),
                       "--sample", sample, "--out", str(export),
                       "--branch", "person1", "--head", "1")
        assert code == 0
        names = sorted(p.name for p in export.iterdir())
        assert names == ["person1_layer0_head1.csv", "person1_layer0_head1.pgm"]
