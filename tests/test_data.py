import dataclasses
import os
import re
import tracemalloc
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tssan import checkpoint
from tssan.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from tssan.cli import main
from tssan.data import (
    DatasetManifest, SampleFormatError, SkeletonClip, ValidationError,
    center_crop_window, frame_differences, load_manifest, load_sample,
    load_samples, make_synthetic_dataset, random_crop_window, resample_frames,
    save_sample, write_split,
)

from oracles import load_sample_loops, save_sample_loops


def _clip(positions, mask=None):
    positions = np.asarray(positions, dtype=np.float64)
    if mask is None:
        mask = np.ones(positions.shape[1], dtype=bool)
    return SkeletonClip(positions, mask)


def _random_clip(rng, frames=5, persons=2, joints=3, coords=3):
    return _clip(rng.normal(size=(frames, persons, joints, coords)))


class TestSkeletonClip:
    @pytest.mark.parametrize("positions, mask, message", [
        (np.zeros((3, 2, 2)), np.ones(2), r"positions must be \(F, S, J, C\), got \(3, 2, 2\)"),
        (np.zeros((3, 2, 2, 2)), np.ones(3), "one entry per person slot"),
        (np.full((3, 2, 2, 2), np.inf), np.ones(2), "positions must be finite"),
    ], ids=["3d", "mask-length", "non-finite"])
    def test_bad_clip_rejected(self, positions, mask, message):
        with pytest.raises(ValueError, match=message):
            SkeletonClip(positions, mask)


class TestMotion:
    def test_constant_positions_give_zero_motion(self):
        np.testing.assert_array_equal(frame_differences(np.ones((4, 1, 2, 3))),
                                      np.zeros((4, 1, 2, 3)))

    def test_linear_motion(self):
        pos = np.zeros((5, 1, 1, 3))
        pos[:, 0, 0, 0] = np.arange(5.0)
        deltas = frame_differences(pos)
        np.testing.assert_array_equal(deltas[:4, 0, 0], [[1, 0, 0]] * 4)
        np.testing.assert_array_equal(deltas[4], np.zeros((1, 1, 3)))

    def test_matches_difference_oracle(self):
        rng = np.random.default_rng(0)
        pos = _random_clip(rng).positions
        deltas = frame_differences(pos)
        for t in range(4):
            np.testing.assert_array_equal(deltas[t], pos[t + 1] - pos[t])

    def test_prefix_sum_reconstructs_positions(self):
        # dyadic-grid coordinates make the difference/prefix-sum pair exact
        rng = np.random.default_rng(1)
        pos = rng.integers(-2**20, 2**20, size=(6, 2, 3, 3)) / 2.0**10
        deltas = frame_differences(pos)
        recon = pos[0] + np.concatenate([np.zeros((1,) + pos.shape[1:]),
                                         np.cumsum(deltas[:-1], axis=0)])
        np.testing.assert_array_equal(recon, pos)

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError, match="at least 2 frames"):
            frame_differences(np.ones((1, 1, 1, 3)))

    def test_padded_person_stays_zero(self):
        pos = np.random.default_rng(2).normal(size=(4, 2, 2, 3))
        pos[:, 1] = 0.0
        deltas = frame_differences(pos)
        np.testing.assert_array_equal(deltas[:, 1], np.zeros((4, 2, 3)))


class TestResample:
    def test_same_length_is_identity(self):
        rng = np.random.default_rng(3)
        pos = _random_clip(rng, frames=7).positions
        np.testing.assert_array_equal(resample_frames(pos, 7), pos)

    def test_midpoint(self):
        pos = np.zeros((2, 1, 1, 1))
        pos[1] = 10.0
        out = resample_frames(pos, 3)
        np.testing.assert_array_equal(out[:, 0, 0, 0], [0.0, 5.0, 10.0])

    def test_hand_interpolation(self):
        pos = np.arange(4.0).reshape(4, 1, 1, 1)
        out = resample_frames(pos, 7)
        np.testing.assert_array_equal(out[:, 0, 0, 0], [0, 0.5, 1, 1.5, 2, 2.5, 3])

    def test_no_overshoot(self):
        rng = np.random.default_rng(4)
        pos = _random_clip(rng, frames=9).positions
        out = resample_frames(pos, 25)
        assert out.max() <= pos.max() + 1e-15
        assert out.min() >= pos.min() - 1e-15

    @pytest.mark.parametrize("frames, target", [(30, 8), (32, 16), (250, 32)])
    def test_last_frame_is_the_source_last_frame(self, frames, target):
        # (target-1) * ((frames-1) / (target-1)) rounds past frames-1 here
        pos = _random_clip(np.random.default_rng(frames), frames=frames).positions
        np.testing.assert_array_equal(resample_frames(pos, target)[-1], pos[-1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_dtype_is_kept(self, dtype):
        pos = np.arange(8.0, dtype=dtype).reshape(4, 1, 2, 1)
        out = resample_frames(pos, 7)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out[:, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6])

    def test_degenerate_extents_rejected(self):
        # a 1-frame source is held, not rejected: that frame repeated
        one_frame = np.arange(6.0).reshape(1, 1, 2, 3)
        np.testing.assert_array_equal(resample_frames(one_frame, 5),
                                      np.repeat(one_frame, 5, axis=0))
        with pytest.raises(ValueError):
            resample_frames(np.ones((5, 1, 1, 1)), 1)


class TestCrops:
    def test_random_crop_full_ratio_is_identity_window(self):
        class Full:
            def uniform(self, lo, hi):
                return 1.0
            def integers(self, lo, hi):
                return 0
        window = random_crop_window(32, Full())
        assert window == slice(0, 32)

    def test_random_crop_half_ratio_bounds(self):
        class Half:
            def __init__(self, start):
                self.start = start
            def uniform(self, lo, hi):
                return 0.5
            def integers(self, lo, hi):
                assert (lo, hi) == (0, 17)  # start in [0, 16]
                return self.start
        window = random_crop_window(32, Half(16))
        assert window == slice(16, 32)

    def test_random_crop_is_seed_reproducible(self):
        a = random_crop_window(20, np.random.default_rng(42))
        b = random_crop_window(20, np.random.default_rng(42))
        assert a == b

    def test_center_crop_32(self):
        # 29 frames starting at floor((32-29)/2)
        assert center_crop_window(32, 0.9) == slice(1, 30)

    def test_center_crop_ratio_one_identity(self):
        assert center_crop_window(10, 1.0) == slice(0, 10)

    def test_center_crop_10(self):
        assert center_crop_window(10, 0.9) == slice(0, 9)

    def test_augmentations_commute_with_person_permutation(self):
        rng = np.random.default_rng(6)
        pos = _random_clip(rng, frames=12, persons=3).positions
        perm = [2, 0, 1]
        for transform in (lambda p, s: p[random_crop_window(12, np.random.default_rng(s))],
                          lambda p, s: p[center_crop_window(12)],
                          lambda p, s: resample_frames(p, 7),
                          lambda p, s: frame_differences(p)):
            direct = transform(pos[:, perm], 9)
            swapped = transform(pos, 9)[:, perm]
            np.testing.assert_array_equal(direct, swapped)


class TestSampleFiles:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        clip = _random_clip(rng, frames=6)
        path = tmp_path / "sample.txt"
        save_sample(str(path), clip, 3)
        loaded = load_sample(str(path))
        assert loaded.label == 3
        np.testing.assert_array_equal(loaded.clip.positions, clip.positions)

    def test_truncated_file_rejected(self, tmp_path):
        clip = _random_clip(np.random.default_rng(10), frames=4)
        path = tmp_path / "sample.txt"
        save_sample(str(path), clip, 0)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(SampleFormatError, match="truncated"):
            load_sample(str(path))

    def test_comments_are_ignored(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("# a comment\n2 1 1 2 1  # trailing comment\n"
                        "0.5 1.5\n\n2.5 3.5\n")
        sample = load_sample(str(path))
        np.testing.assert_array_equal(sample.clip.positions.reshape(-1),
                                      [0.5, 1.5, 2.5, 3.5])

    def test_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("# hi\n2 1 1\n")
        with pytest.raises(SampleFormatError, match="sample.txt:2"):
            load_sample(str(path))

    @pytest.mark.parametrize("header, message", [
        ("2 1 1 2.5 0", "non-integer header field in '2 1 1 2.5 0'"),
        ("2 0 1 2 0", "header extents must be positive"),
        ("2 1 1 2 -1", "header extents must be positive"),
    ], ids=["non-integer", "zero-extent", "negative-label"])
    def test_bad_header_field_rejected(self, tmp_path, header, message):
        path = tmp_path / "sample.txt"
        path.write_text(f"\n{header}\n0.5 1.5\n2.5 3.5\n")
        with pytest.raises(SampleFormatError, match=rf"sample.txt:2: {re.escape(message)}"):
            load_sample(str(path))

    def test_label_disagreeing_with_manifest_fails_validation(self, tmp_path):
        manifest = DatasetManifest(kind="synthetic", num_labels=4, split="train",
                                   entries=[("s.txt", 0)], base_dir=str(tmp_path))
        write_split(manifest, [_random_clip(np.random.default_rng(11)).positions])
        mpath = tmp_path / "train.manifest"
        mpath.write_text(mpath.read_text().replace("s.txt\t0", "s.txt\t1"))
        with pytest.raises(ValidationError, match=re.escape(
                f"split 'train': {tmp_path / 'train.pack'}: its entries or labels are "
                f"not the manifest's; run `tssan index`")):
            load_samples(load_manifest(str(mpath)))

    def test_label_out_of_range_fails_validation(self, tmp_path):
        manifest = DatasetManifest(kind="synthetic", num_labels=4, split="train",
                                   entries=[("s.txt", 9)], base_dir=str(tmp_path))
        write_split(manifest, [_random_clip(np.random.default_rng(11), frames=3).positions])
        with pytest.raises(ValidationError, match=r"s\.txt: label 9 outside \[0, 4\)"):
            load_samples(manifest)

    def test_manifest_roundtrip_and_missing_file(self, tmp_path):
        # no sample file need exist: the split is its manifest and pack
        clip = _random_clip(np.random.default_rng(12), frames=3)
        manifest = DatasetManifest(kind="synthetic", num_labels=2, split="val",
                                   entries=[("a.txt", 0)], base_dir=str(tmp_path))
        mpath = tmp_path / "val.manifest"
        write_split(manifest, [clip.positions])
        loaded = load_manifest(str(mpath))
        assert (loaded.kind, loaded.num_labels, loaded.split) == ("synthetic", 2, "val")
        assert loaded.entries == [("a.txt", 0)]
        with closing(load_samples(loaded)) as split:
            assert split[0].clip.positions.tobytes() == clip.positions.tobytes()

        # an entry the pack lacks
        with open(mpath, "a", encoding="utf-8") as fh:
            fh.write("gone.txt\t1\n")
        with pytest.raises(ValidationError, match="split 'val': .*not the manifest's"):
            load_samples(load_manifest(str(mpath)))

    @pytest.mark.parametrize("split, rel", [
        ("val", "a#b.txt"), ("val", "a\tb.txt"), ("val", "a\nb.txt"), ("val", "a\rb.txt"),
        ("val", " a.txt"), ("val", "\x0ca.txt"), ("val", ""), ("val", "\udcff.txt"),
        ("v#1", "a.txt"),
    ], ids=["hash", "tab", "lf", "cr", "edge-space", "edge-formfeed", "empty", "non-utf8",
            "split"])
    def test_write_split_refuses_a_line_its_reader_reads_otherwise(self, tmp_path, split, rel):
        base = tmp_path / "out"
        manifest = DatasetManifest(kind="synthetic", num_labels=2, split=split,
                                   entries=[("ok.txt", 0), (rel, 1)], base_dir=str(base))
        key, value = ("split", split) if split != "val" else (rel, "1")
        with pytest.raises(ValidationError, match=re.escape(
                f"{base / (split + '.manifest')}: a manifest line cannot hold {key!r} "
                f"(value {value!r})")):
            write_split(manifest, [])
        assert not base.exists()

    def test_write_split_keeps_names_its_reader_reads_back(self, tmp_path):
        entries = [("../in/b c.txt", 0), ("é \x0c\xa0\u2028.txt", 1), ("kind", 0)]
        clips = [_random_clip(np.random.default_rng(n)).positions for n in range(3)]
        write_split(DatasetManifest(kind="synthetic", num_labels=2, split="val",
                                    entries=entries, base_dir=str(tmp_path / "out")), clips)
        manifest = load_manifest(str(tmp_path / "out" / "val.manifest"))
        assert manifest.entries == entries
        with closing(load_samples(manifest)) as split:
            assert [s.clip.positions.tobytes() for s in split] == [c.tobytes() for c in clips]

    def test_manifest_without_entries_rejected(self, tmp_path):
        mpath = tmp_path / "val.manifest"
        write_split(DatasetManifest(kind="synthetic", num_labels=2, split="val", entries=[],
                                    base_dir=str(tmp_path)), [])
        with pytest.raises(SampleFormatError, match=rf"^{mpath}: manifest lists no samples$"):
            load_manifest(str(mpath))

    @pytest.mark.parametrize("text, message", [
        ("kind\tsynthetic\nnum_labels 2\n", ":2: expected 'key<TAB>value', got 'num_labels 2'"),
        ("kind\tsynthetic\nnum_labels\t2\nsplit\tval\na.txt\tone\n",
         ":4: non-integer label 'one'"),
        ("kind\tsynthetic\nsplit\tval\na.txt\t0\n", ": missing header keys ['num_labels']"),
        ("kind\tmocap\nnum_labels\t2\nsplit\tval\na.txt\t0\n",
         ": unknown dataset kind 'mocap'"),
        ("kind\tsynthetic\nnum_labels\ttwo\nsplit\tval\na.txt\t0\n",
         ": num_labels must be an integer"),
    ], ids=["no-tab", "label", "missing-key", "kind", "num-labels"])
    def test_malformed_manifest_rejected(self, tmp_path, text, message):
        mpath = tmp_path / "val.manifest"
        mpath.write_text(text)
        with pytest.raises(SampleFormatError, match=f"^{re.escape(str(mpath) + message)}$"):
            load_manifest(str(mpath))

    def test_kind_geometry_enforced(self, tmp_path):
        clip = _random_clip(np.random.default_rng(13), frames=3, joints=4)
        manifest = DatasetManifest(kind="ntu", num_labels=2, split="train",
                                   entries=[("a.txt", 0)], base_dir=str(tmp_path))
        write_split(manifest, [clip.positions])
        with pytest.raises(ValidationError, match=re.escape(
                "a.txt: geometry (4, 3) does not match kind 'ntu' (25, 3)")):
            load_samples(manifest)


# token spellings float() accepts or refuses, finite or not
_SPELLINGS = ["1_0", "1_0.2_5", "\u0661\u0662", "\u0663.\u0665", "\uff11", "\u0661_\u0660",
              "-0", "5.", ".5", "+.5e-1", "1E3", "nan", "-inf", "Infinity", "+NaN",
              "1e400", "1__0", "abc", "0x10", "1.0.0", "--1", "1\x00", "_1"]
# str.split() whitespace that is no line break to file iteration
_SEPARATORS = [" ", "   ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028",
               "\u3000"]
_FILLERS = ["", "   ", "\t", "\xa0", "# note", "  # 1 2 3", "#"]


@st.composite
def _sample_texts(draw):
    """A valid sample file's text, then mutated: layout, spellings, rows."""
    frames, persons, joints, coords = (draw(st.integers(lo, hi))
                                       for lo, hi in ((2, 3), (1, 2), (1, 2), (1, 3)))
    rows_n = frames * persons * joints
    values = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-20, 20).map(float)
    rows = [[repr(draw(values)) for _ in range(coords)] for _ in range(rows_n)]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, coords - 1))] = draw(st.sampled_from(_SPELLINGS))
    damage = draw(st.sampled_from(["none"] * 3 + ["ragged", "missing", "extra", "empty"]))
    if damage == "ragged":          # one token moves to another row: same total
        src, dst = draw(st.permutations(range(rows_n)))[:2]
        rows[dst].append(rows[src].pop())
    elif damage == "missing":
        rows.pop(draw(st.integers(0, rows_n - 1)))
    elif damage == "extra":
        rows.insert(draw(st.integers(0, rows_n)), list(draw(st.sampled_from(rows))))
    header = [str(frames), str(persons), str(joints), str(coords), str(draw(st.integers(0, 4)))]
    lines = [header] + rows if damage != "empty" else []
    lines = [draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from(_SEPARATORS)).join(r)
             + draw(st.sampled_from(["", "  ", "\t", " # c 1"])) for r in lines]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_FILLERS)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


def _read_outcome(read, path):
    """(label, positions) on success, the SampleFormatError text otherwise."""
    try:
        return read(path)
    except SampleFormatError as exc:
        return str(exc)


class TestSampleFileOracles:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_sample_texts())
    def test_reader_matches_line_loop_oracle(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("sample") / "s.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

        def library(p):
            sample = load_sample(p)
            return sample.label, sample.clip.positions

        got, want = _read_outcome(library, str(path)), _read_outcome(load_sample_loops, str(path))
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert got[0] == want[0]
            assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
            assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("shape", [(3, 2, 4, 3), (2, 1, 3, 1), (2, 2, 1, 5)])
    def test_writer_matches_per_value_repr_oracle(self, tmp_path, shape):
        rng = np.random.default_rng(17)
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 3.0, -2.0, 1e22,
                   2.0 ** 53, 0.1, 1 / 3, np.finfo(float).max, np.finfo(float).tiny]
        size = int(np.prod(shape))
        grid = np.round(rng.normal(size=size) * 2.0 ** 20) / 2.0 ** 20
        flat = np.concatenate([special, grid, rng.normal(size=size) * 1e3])[:size]
        positions = rng.permutation(flat).reshape(shape)
        save_sample(str(tmp_path / "lib.txt"), _clip(positions), 7)
        save_sample_loops(str(tmp_path / "oracle.txt"), positions, 7)
        assert (tmp_path / "lib.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()


class TestSyntheticDataset:
    def test_exact_counts_and_balance(self, tmp_path):
        manifest = make_synthetic_dataset(str(tmp_path), num_labels=4,
                                          samples_per_label=50, frames=8,
                                          joints=2, seed=7)
        assert len(manifest) == 200
        labels = [label for _, label in manifest.entries]
        assert all(labels.count(k) == 50 for k in range(4))

    def test_same_seed_same_files(self, tmp_path):
        a = tmp_path / "a"; b = tmp_path / "b"
        make_synthetic_dataset(str(a), 2, 3, frames=6, joints=2, seed=5)
        make_synthetic_dataset(str(b), 2, 3, frames=6, joints=2, seed=5)
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_noise_nearest_centroid_is_perfect(self, tmp_path):
        manifest = make_synthetic_dataset(str(tmp_path), num_labels=2,
                                          samples_per_label=5, frames=10,
                                          joints=3, noise=0.0, seed=3)
        with closing(load_samples(manifest)) as split:
            samples = list(split)
        flat = np.stack([s.clip.positions.reshape(-1) for s in samples])
        labels = np.array([s.label for s in samples])
        centroids = np.stack([flat[labels == k].mean(axis=0) for k in range(2)])
        dists = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(dists.argmin(axis=1), labels)

    def test_split_no_manifest_line_holds_creates_nothing(self, tmp_path):
        # the manifest is checked before any sample file or directory is made
        out = tmp_path / "f1"
        message = re.escape(f"{out / 'v#1.manifest'}: a manifest line cannot hold 'split'")
        with pytest.raises(ValidationError, match=message):
            make_synthetic_dataset(str(out), 1, 2, frames=4, joints=2, split="v#1")
        assert not out.exists()
        out.mkdir()
        with pytest.raises(ValidationError, match=message):
            make_synthetic_dataset(str(out), 1, 2, frames=4, joints=2, split="v#1")
        assert list(out.iterdir()) == []

    def test_prefix_sum_reconstruction_exact_on_generated_data(self, tmp_path):
        manifest = make_synthetic_dataset(str(tmp_path), num_labels=2,
                                          samples_per_label=2, frames=16,
                                          joints=3, noise=0.1, seed=11)
        with closing(load_samples(manifest)) as split:
            samples = list(split)
        for sample in samples:
            pos = sample.clip.positions
            deltas = frame_differences(pos)
            recon = pos[0].copy()
            for t in range(1, pos.shape[0]):
                recon = recon + deltas[t - 1]
                np.testing.assert_array_equal(recon, pos[t])


def _same_samples(got, want):
    """Bit-identical positions, and equal masks, labels and source ids."""
    assert [(g.label, g.source_id) for g in got] == [(w.label, w.source_id) for w in want]
    for g, w in zip(got, want):
        assert g.clip.positions.dtype == w.clip.positions.dtype == np.float64
        assert g.clip.positions.shape == w.clip.positions.shape
        assert g.clip.positions.tobytes() == w.clip.positions.tobytes()
        assert g.clip.valid_person_mask.tolist() == w.clip.valid_person_mask.tolist()


def _text_parse(manifest):
    return [load_sample(path) for path in manifest.sample_paths()]


def _pack_read(manifest, remove_files=True):
    """The split's samples, read with every sample file removed first."""
    if remove_files:
        for path in set(manifest.sample_paths()):
            os.unlink(path)
    with closing(load_samples(manifest)) as split:
        return list(split)


class TestSamplePack:
    @staticmethod
    def _dataset(tmp_path):
        return make_synthetic_dataset(str(tmp_path / "d"), num_labels=3, samples_per_label=3,
                                      frames=7, joints=2, persons=2, seed=4)

    def test_synthetic_clips_load_from_pack_bit_identical(self, tmp_path):
        manifest = self._dataset(tmp_path)
        assert (tmp_path / "d" / "train.pack").is_file()
        want = _text_parse(manifest)
        _same_samples(_pack_read(manifest), want)

    def test_input_clips_load_from_pack_bit_identical(self, tmp_path):
        folder = tmp_path / "in"
        folder.mkdir()
        rng = np.random.default_rng(21)
        positions = rng.normal(size=(4, 2, 3, 2))
        positions[:, 1] = 0.0              # an empty person slot: masked out
        positions[0, 0, 0, 0] = -0.0
        save_sample(str(folder / "a.txt"), _clip(positions), 1)
        save_sample(str(folder / "b.txt"), _random_clip(rng, frames=3, coords=2), 0)
        text = (folder / "b.txt").read_text()
        (folder / "c.txt").write_bytes(("# noisy copy\r\n"
                                        + text.replace("\n", "  # note\r\n")).encode())
        (folder / "d.txt").write_bytes((folder / "a.txt").read_bytes())
        assert main(["index", "--out", str(tmp_path / "out"), "--input", str(folder)]) == 0
        assert (tmp_path / "out" / "train.pack").is_file()
        manifest = load_manifest(str(tmp_path / "out" / "train.manifest"))
        want = _text_parse(manifest)
        got = _pack_read(manifest)
        _same_samples(got, want)
        assert got[0].clip.valid_person_mask.tolist() == [True, False]
        # d.txt holds a.txt's bytes, and each entry has its own array
        assert got[0].clip.positions is not got[3].clip.positions

    def test_each_read_is_a_fresh_array(self, tmp_path):
        manifest = self._dataset(tmp_path)
        with closing(load_samples(manifest)) as split:
            first = split[4].clip.positions
            first[...] = 0.0
            assert split[4].clip.positions.tobytes() != first.tobytes()
            assert split[-1].source_id == "train_02_0002.txt"
            with pytest.raises(IndexError):
                split[len(manifest)]

    def test_edited_sample_takes_effect_once_indexed_again(self, tmp_path):
        manifest = self._dataset(tmp_path)
        path = manifest.sample_paths()[4]
        old = load_sample(path)
        new_positions = old.clip.positions * 2.0 + 0.25
        save_sample(path, _clip(new_positions), old.label)
        # the split is a snapshot of the files as they were when it was written
        snapshot = _pack_read(manifest, remove_files=False)
        assert snapshot[4].clip.positions.tobytes() == old.clip.positions.tobytes()
        assert main(["index", "--out", str(tmp_path / "d"), "--input", str(tmp_path / "d")]) == 0
        want = _text_parse(manifest)
        got = _pack_read(manifest)
        _same_samples(got, want)
        assert got[4].clip.positions.tobytes() == new_positions.tobytes()

    def test_sample_made_non_finite_is_still_refused(self, tmp_path, capsys):
        manifest = self._dataset(tmp_path)
        path = manifest.sample_paths()[2]
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[3] = " ".join(["inf"] + lines[3].split()[1:])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        pack = (tmp_path / "d" / "train.pack").read_bytes()
        # index refuses it, and leaves the split as it was
        assert main(["index", "--out", str(tmp_path / "d"), "--input", str(tmp_path / "d")]) == 2
        assert re.search(r"train_00_0002\.txt:4: non-finite value", capsys.readouterr().err)
        assert (tmp_path / "d" / "train.pack").read_bytes() == pack

    def test_pack_truncated_while_checked_is_refused(self, tmp_path, monkeypatch):
        manifest = make_synthetic_dataset(str(tmp_path / "d"), num_labels=3,
                                          samples_per_label=3, frames=64, joints=2, seed=4)
        pack = tmp_path / "d" / "train.pack"
        real = checkpoint._read_header

        def truncating(path, fh):
            header = real(path, fh)
            os.truncate(pack, pack.stat().st_size - 30)    # into the last clip
            return header

        monkeypatch.setattr(checkpoint, "_read_header", truncating)
        with pytest.raises(ValidationError, match="truncated payload at train_02_0002.txt"):
            load_samples(manifest)

    def test_every_single_bit_flip_of_a_pack_is_refused(self, tmp_path):
        manifest = make_synthetic_dataset(str(tmp_path / "d"), num_labels=2,
                                          samples_per_label=1, frames=2, joints=1,
                                          persons=1, coords=1, seed=4)
        blob = (tmp_path / "d" / "train.pack").read_bytes()
        (tmp_path / "d" / "copy.pack").write_bytes(blob)
        load_samples(dataclasses.replace(manifest, split="copy")).close()
        for at in range(len(blob)):
            for bit in range(8):
                # a new file per flip: rewriting one just-written file waits
                # on its writeback at every close
                split = f"f{at}.{bit}"
                (tmp_path / "d" / f"{split}.pack").write_bytes(
                    blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:])
                with pytest.raises(ValidationError, match=rf"^split '{re.escape(split)}': "):
                    load_samples(dataclasses.replace(manifest, split=split))

    def test_pack_truncated_after_open_is_refused_on_read(self, tmp_path):
        manifest = self._dataset(tmp_path)
        with closing(load_samples(manifest)) as split:
            os.truncate(tmp_path / "d" / "train.pack", 100)
            with pytest.raises(CheckpointError, match="truncated payload at train_00_0000"):
                split[0]

    @pytest.mark.parametrize("damage", ["missing", "truncated", "flipped-payload",
                                        "lacked-entry", "extra-entry", "reordered",
                                        "flipped-label", "forged-label", "forged-nan",
                                        "forged-inf", "forged-shape", "forged-empty",
                                        "one-frame", "no-labels"])
    def test_unusable_pack_is_refused(self, tmp_path, damage):
        manifest = self._dataset(tmp_path)
        pack = tmp_path / "d" / "train.pack"
        blob = pack.read_bytes()
        meta, arrays = load_checkpoint(str(pack))
        names = list(arrays)
        if damage == "missing":
            pack.unlink()
        elif damage == "truncated":
            pack.write_bytes(blob[:len(blob) // 2])
        elif damage == "flipped-payload":
            pack.write_bytes(blob[:-20] + bytes([blob[-20] ^ 1]) + blob[-19:])
        else:                   # a well-formed pack, checksum and all
            if damage == "lacked-entry":
                del arrays[names[3]], meta["labels"][3]
            elif damage == "extra-entry":
                arrays["extra.txt"] = arrays[names[0]]
                meta["labels"].append(0)
            elif damage == "reordered":
                arrays = {name: arrays[name] for name in reversed(names)}
                meta["labels"].reverse()
            elif damage == "flipped-label":
                meta["labels"][5] ^= 1
            elif damage == "forged-label":
                meta["labels"][5] = -1
            elif damage == "no-labels":
                meta["labels"] = dict(zip(names, meta["labels"]))
            else:
                pos = arrays[names[5]]
                arrays[names[5]] = {"forged-nan": np.where(pos > 0, np.nan, pos),
                                    "forged-inf": np.where(pos > 0, -np.inf, pos),
                                    "forged-shape": pos[0], "forged-empty": pos[:, :0],
                                    "one-frame": pos[:1]}[damage]
            save_checkpoint(str(pack), arrays, meta)
        with pytest.raises(ValidationError, match=r"^split 'train': .* run `tssan index`"):
            load_samples(manifest)


def _held_after_open(tmp_path, name, per_label):
    """Bytes tracemalloc sees held by an open split of 3 * ``per_label``
    clips, above what its manifest holds, and the size of its pack header."""
    manifest = make_synthetic_dataset(str(tmp_path / name), num_labels=3,
                                      samples_per_label=per_label, frames=16, joints=5,
                                      persons=2, coords=3, seed=2)
    load_samples(manifest).close()     # the interpreter's free lists, filled untraced
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        split = load_samples(manifest)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    split.close()
    with open(tmp_path / name / "train.pack", "rb") as fh:
        header = int.from_bytes(fh.read(16)[8:], "little")
    return held, header


class TestSplitMemory:
    def test_an_open_split_holds_its_index_not_its_clips(self, tmp_path):
        small, _ = _held_after_open(tmp_path, "small", 2)
        large, header = _held_after_open(tmp_path, "large", 20)
        clip_bytes = 16 * 2 * 5 * 3 * 8
        # 54 more clips: their index rows, not their 54 * 3,840 bytes
        assert large - small <= header
        assert large - small < 54 * clip_bytes / 4
