"""Tour of the skeleton data pipeline on the synthetic benchmark.

Generates a small separable dataset, then walks through the steps a clip
goes through on its way into the model: motion derivation, temporal
segmentation, and per-segment cropping and resampling.

Run:  python3 demos/synthetic_data_tour.py
"""

import tempfile
from contextlib import closing

import numpy as np

from tssan.data import frame_differences, load_samples, make_synthetic_dataset
from tssan.segments import TsnConfig, sample_segments, segment_spans

with tempfile.TemporaryDirectory() as workdir:
    manifest = make_synthetic_dataset(workdir, num_labels=3, samples_per_label=4,
                                      frames=48, joints=5, persons=2, coords=3,
                                      noise=0.05, seed=7)
    with closing(load_samples(manifest)) as split:    # the clips, read from the pack
        samples = list(split)
    print(f"dataset: {len(samples)} samples, {manifest.num_labels} classes")

    clip = samples[0].clip
    print(f"\nclip shape (F, S, J, C) = {clip.positions.shape}, "
          f"label = {samples[0].label}")

    # motion is the frame-to-frame difference, zero-padded at the end
    motion = frame_differences(clip.positions)
    print(f"motion magnitude: mean {np.abs(motion).mean():.4f}, "
          f"last frame all-zero: {not motion[-1].any()}")

    # dyadic-grid coordinates make the reconstruction exact, not just close
    recon = clip.positions[0].copy()
    exact = True
    frames = clip.positions.shape[0]
    for t in range(1, frames):
        recon = recon + motion[t - 1]
        exact &= np.array_equal(recon, clip.positions[t])
    print(f"prefix-sum reconstructs positions exactly: {exact}")

    config = TsnConfig(segments=3, frames_per_segment=32)
    spans = segment_spans(frames, config.segments)
    print(f"\ntemporal segments of a {frames}-frame clip: {spans}")

    # each segment is cropped (random in training, centered in eval) and
    # resampled to a fixed length; rows are segment-major over the batch
    pairs = [(s.clip.positions, frame_differences(s.clip.positions))
             for s in samples[:2]]
    train_pos, _ = sample_segments(pairs, config, True, np.random.default_rng(0))
    eval_pos, _ = sample_segments(pairs, config, False)
    print(f"batch of {len(pairs)} clips -> (K*B, n, S, J, C) = {train_pos.shape}")
    print(f"training crops differ from eval crops: "
          f"{not np.array_equal(train_pos, eval_pos)}")
