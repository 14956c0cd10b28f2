import numpy as np
import pytest

from tssan.data import (
    DatasetManifest, SampleFormatError, SkeletonClip, ValidationError,
    center_crop_window, frame_differences, load_manifest, load_sample,
    load_samples, make_synthetic_dataset, random_crop_window, resample_frames,
    save_manifest, save_sample,
)


def _clip(positions, mask=None):
    positions = np.asarray(positions, dtype=np.float64)
    if mask is None:
        mask = np.ones(positions.shape[1], dtype=bool)
    return SkeletonClip(positions, mask)


def _random_clip(rng, frames=5, persons=2, joints=3, coords=3):
    return _clip(rng.normal(size=(frames, persons, joints, coords)))


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

    def test_degenerate_extents_rejected(self):
        with pytest.raises(ValueError):
            resample_frames(np.ones((1, 1, 1, 1)), 5)
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

    def test_label_out_of_range_fails_validation(self, tmp_path):
        clip = _random_clip(np.random.default_rng(11), frames=3)
        save_sample(str(tmp_path / "s.txt"), clip, 9)
        manifest = DatasetManifest(kind="synthetic", num_labels=4, split="train",
                                   entries=[("s.txt", 9)], base_dir=str(tmp_path))
        with pytest.raises(ValidationError, match="outside"):
            load_samples(manifest)

    def test_manifest_roundtrip_and_missing_file(self, tmp_path):
        clip = _random_clip(np.random.default_rng(12), frames=3)
        save_sample(str(tmp_path / "a.txt"), clip, 0)
        manifest = DatasetManifest(kind="synthetic", num_labels=2, split="val",
                                   entries=[("a.txt", 0)], base_dir=str(tmp_path))
        mpath = tmp_path / "val.manifest"
        save_manifest(str(mpath), manifest)
        loaded = load_manifest(str(mpath))
        assert (loaded.kind, loaded.num_labels, loaded.split) == ("synthetic", 2, "val")
        assert loaded.entries == [("a.txt", 0)]

        manifest.entries.append(("gone.txt", 1))
        save_manifest(str(mpath), manifest)
        with pytest.raises(ValidationError, match="gone.txt"):
            load_manifest(str(mpath))

    def test_kind_geometry_enforced(self, tmp_path):
        clip = _random_clip(np.random.default_rng(13), frames=3, joints=4)
        save_sample(str(tmp_path / "a.txt"), clip, 0)
        manifest = DatasetManifest(kind="ntu", num_labels=2, split="train",
                                   entries=[("a.txt", 0)], base_dir=str(tmp_path))
        with pytest.raises(ValidationError, match="geometry"):
            load_samples(manifest)


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
            assert (a / name).read_text() == (b / name).read_text()

    def test_zero_noise_nearest_centroid_is_perfect(self, tmp_path):
        manifest = make_synthetic_dataset(str(tmp_path), num_labels=2,
                                          samples_per_label=5, frames=10,
                                          joints=3, noise=0.0, seed=3)
        samples = load_samples(manifest)
        flat = np.stack([s.clip.positions.reshape(-1) for s in samples])
        labels = np.array([s.label for s in samples])
        centroids = np.stack([flat[labels == k].mean(axis=0) for k in range(2)])
        dists = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(dists.argmin(axis=1), labels)

    def test_prefix_sum_reconstruction_exact_on_generated_data(self, tmp_path):
        manifest = make_synthetic_dataset(str(tmp_path), num_labels=2,
                                          samples_per_label=2, frames=16,
                                          joints=3, noise=0.1, seed=11)
        for sample in load_samples(manifest):
            pos = sample.clip.positions
            deltas = frame_differences(pos)
            recon = pos[0].copy()
            for t in range(1, pos.shape[0]):
                recon = recon + deltas[t - 1]
                np.testing.assert_array_equal(recon, pos[t])
