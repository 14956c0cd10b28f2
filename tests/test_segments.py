import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tssan.data import center_crop_window, resample_frames
from tssan.models import ModelConfig, build_variant
from tssan.segments import TsnConfig, TsSan, sample_segments, segment_spans, ts_loss
from tssan.tensor import backward


def _model(consensus="avg", variant="v2", segments=3, frames=4, **kw):
    config = ModelConfig(variant=variant, encoder="ff", num_labels=4, joints=2,
                         coords=3, persons=2, frames=frames, san_layers=1,
                         san_heads=2, ff_coord_width=2, **kw)
    net = build_variant(config, np.random.default_rng(0))
    return TsSan(net, TsnConfig(segments=segments, frames_per_segment=frames,
                                consensus=consensus))


def _pair(rng, frames=24, persons=2, joints=2, coords=3):
    return (rng.normal(size=(frames, persons, joints, coords)),
            rng.normal(size=(frames, persons, joints, coords)))


class TestTsnConfig:
    @pytest.mark.parametrize("kw, message", [
        ({"segments": 0}, "segment count must be >= 1, got 0"),
        ({"frames_per_segment": 1}, "frames_per_segment must be >= 2"),
        ({"consensus": "median"}, "consensus must be one of ('avg', 'max'), got 'median'"),
        ({"eval_crop": 0.0}, "eval_crop must lie in (0, 1], got 0.0"),
    ], ids=["segments-0", "frames-1", "consensus", "eval-crop-0"])
    def test_bad_setting_rejected(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TsnConfig(**kw)


class TestSegmentSpans:
    def test_even_split(self):
        assert segment_spans(96, 3) == [(0, 32), (32, 64), (64, 96)]

    def test_remainder_to_earliest(self):
        spans = segment_spans(10, 3)
        assert spans == [(0, 4), (4, 7), (7, 10)]

    def test_single_segment_is_whole_clip(self):
        assert segment_spans(17, 1) == [(0, 17)]

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="cannot split"):
            segment_spans(2, 3)


def _ramp(frames, offset=0.0):
    """A (frames, 1, 2, 3) clip whose every coordinate is offset + frame index."""
    return offset + np.broadcast_to(np.arange(float(frames))[:, None, None, None],
                                    (frames, 1, 2, 3))


class TestSampleSegmentFrames:
    """Per-segment cropping and resampling done by ``sample_segments``."""

    def test_eval_identity_when_ratio_one(self):
        rng = np.random.default_rng(0)
        pos, mot = rng.normal(size=(8, 1, 2, 3)), rng.normal(size=(8, 1, 2, 3))
        config = TsnConfig(segments=1, frames_per_segment=8, eval_crop=1.0)
        out_pos, out_mot = sample_segments([(pos, mot)], config, training=False)
        np.testing.assert_array_equal(out_pos, pos[None])
        np.testing.assert_array_equal(out_mot, mot[None])

    def test_deterministic_under_seed(self):
        pair = _pair(np.random.default_rng(1), frames=20, persons=1)
        config = TsnConfig(frames_per_segment=8)
        a = sample_segments([pair], config, True, np.random.default_rng(5))
        b = sample_segments([pair], config, True, np.random.default_rng(5))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_output_length_always_target(self):
        rng = np.random.default_rng(2)
        config = TsnConfig(frames_per_segment=8)
        pairs = [_pair(rng, frames=f, persons=1) for f in (3, 4, 9, 40)]
        for training in (True, False):
            pos, mot = sample_segments(pairs, config, training, rng)
            assert pos.shape == mot.shape == (3 * 4, 8, 1, 2, 3)

    def test_segment_major_rows(self):
        # 12-frame clips split into 4-frame spans; n = 4 at ratio 1 is the identity
        clips = [_ramp(12, 100.0 * b) for b in range(2)]
        config = TsnConfig(segments=3, frames_per_segment=4, eval_crop=1.0)
        pos, mot = sample_segments([(c, -c) for c in clips], config, training=False)
        for k in range(3):
            for b in range(2):
                np.testing.assert_array_equal(pos[k * 2 + b], clips[b][4 * k:4 * k + 4])
                np.testing.assert_array_equal(mot[k * 2 + b], -clips[b][4 * k:4 * k + 4])

    def test_eval_one_frame_segment_stays_in_its_span(self):
        # F=4, K=3 spans (0, 2), (2, 3), (3, 4): segment 1 is frame 2 alone
        clip = _ramp(4)
        pos, _ = sample_segments([(clip, clip)], TsnConfig(frames_per_segment=2),
                                 training=False)
        np.testing.assert_array_equal(pos[1], np.full((2, 1, 2, 3), 2.0))

    def test_eval_one_frame_per_segment_matches_training(self):
        clip = _ramp(3)
        config = TsnConfig(frames_per_segment=4)
        evaluated, _ = sample_segments([(clip, clip)], config, training=False)
        trained, _ = sample_segments([(clip, clip)], config, True, np.random.default_rng(0))
        for k in range(3):
            np.testing.assert_array_equal(evaluated[k], np.full((4, 1, 2, 3), float(k)))
        np.testing.assert_array_equal(evaluated, trained)


@st.composite
def _segment_batches(draw):
    """(pairs, config, training, seed): clips of random geometry and length
    >= K in float32 or float64, with random segment counts and crop ratios;
    a clip may hold each value for a few frames."""
    segments = draw(st.integers(1, 4))
    geometry = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    lengths = draw(st.lists(st.integers(segments, 40), min_size=1, max_size=3))
    lo = draw(st.floats(0.01, 1.0))
    config = TsnConfig(segments=segments, frames_per_segment=draw(st.integers(2, 9)),
                       train_crop=(lo, draw(st.floats(lo, 1.0))),
                       eval_crop=draw(st.floats(0.01, 1.0)))
    hold = draw(st.integers(1, 3))                 # frames per distinct value
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def clip(frames, scale):
        values = rng.normal(0.0, scale, size=(-(-frames // hold),) + geometry)
        return np.repeat(values, hold, axis=0)[:frames].astype(dtype)

    pairs = [(clip(f, 3.0), clip(f, 1.0)) for f in lengths]
    return pairs, config, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


class TestSampleSegmentsProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_segment_batches())
    def test_stack_shape_dtype_and_bounds(self, case):
        pairs, config, training, seed = case
        stacks = sample_segments(pairs, config, training, np.random.default_rng(seed))
        k, b, n = config.segments, len(pairs), config.frames_per_segment
        for which, stack in enumerate(stacks):
            clips = [pair[which] for pair in pairs]
            assert stack.shape == (k * b, n) + clips[0].shape[1:]
            assert stack.dtype == clips[0].dtype
            for index, clip in enumerate(clips):
                rows = stack[index::b]          # segment k of this clip is row k*B + b
                # a*(1-w) + b*w rounds up to an ulp past equal neighbours a == b
                slack = 2 * np.finfo(clip.dtype).eps * np.abs(clip).max(axis=0)
                assert (rows >= clip.min(axis=0) - slack).all()
                assert (rows <= clip.max(axis=0) + slack).all()


class TestConsensus:
    def test_identical_segments_reduce_to_single_segment(self):
        rng = np.random.default_rng(3)
        one = rng.normal(size=(8, 2, 2, 3))
        positions = np.concatenate([one, one, one])
        motions = np.concatenate([one, one, one]) * 0.5
        for consensus in ("avg", "max"):
            model = _model(consensus, frames=8)
            model.eval()
            model.config.eval_crop = 1.0
            fused = model.forward_batch([(positions, motions)])
            single = _model(consensus, segments=1, frames=8)
            single.eval()
            single.config.eval_crop = 1.0
            alone = single.forward_batch([(one, one * 0.5)])
            np.testing.assert_allclose(fused.probabilities, alone.probabilities,
                                       atol=1e-12)

    def test_average_of_onehot_probabilities(self):
        lp = np.log(np.array([[[1 - 1e-12, 1e-12]], [[1e-12, 1 - 1e-12]]]))
        from tssan.segments import _fuse
        from tssan.tensor import Tensor
        fused = _fuse(Tensor(lp.reshape(2, 2)), segments=2, mode="avg")
        np.testing.assert_allclose(np.exp(fused.data), [[0.5, 0.5]], atol=1e-9)

    def test_max_consensus_renormalizes(self):
        from tssan.segments import _fuse
        from tssan.tensor import Tensor
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        fused = _fuse(Tensor(np.log(probs)), segments=2, mode="max")
        np.testing.assert_allclose(np.exp(fused.data), [[0.7 / 1.5, 0.8 / 1.5]],
                                   atol=1e-12)

    def test_segment_permutation_invariance(self):
        rng = np.random.default_rng(4)
        segs = [rng.normal(size=(8, 2, 2, 3)) for _ in range(3)]
        mots = [rng.normal(size=(8, 2, 2, 3)) for _ in range(3)]
        for consensus in ("avg", "max"):
            model = _model(consensus, frames=8)
            model.eval()
            model.config.eval_crop = 1.0
            a = model.forward_batch([(np.concatenate(segs), np.concatenate(mots))])
            order = [2, 0, 1]
            b = model.forward_batch([(np.concatenate([segs[i] for i in order]),
                                      np.concatenate([mots[i] for i in order]))])
            np.testing.assert_allclose(a.probabilities, b.probabilities, atol=1e-12)

    def test_fused_probabilities_are_stochastic(self):
        rng = np.random.default_rng(5)
        for consensus in ("avg", "max"):
            model = _model(consensus)
            model.eval()
            out = model.forward_batch([_pair(rng), _pair(rng)])
            probs = out.probabilities
            assert probs.min() >= 0
            np.testing.assert_allclose(probs.sum(axis=1), np.ones(2), atol=1e-9)


class TestTsSan:
    def test_frame_count_mismatch_rejected(self):
        net = _model(frames=4).variant
        with pytest.raises(ValueError, match="the model takes 4 frames, but each segment "
                                             "is resampled to 5"):
            TsSan(net, TsnConfig(segments=3, frames_per_segment=5))

    def test_single_parameter_set_for_all_segments(self):
        model = _model(segments=4)
        ts_names = [n for n, _ in model.named_parameters()]
        bare = [n for n, _ in model.variant.named_parameters()]
        assert ts_names == [f"variant.{n}" for n in bare]

    def test_k1_uniform_sampling_reduces_to_bare_variant(self):
        rng = np.random.default_rng(6)
        model = _model(segments=1, frames=8)
        model.eval()
        positions, motions = _pair(rng, frames=20)
        fused = model.forward_batch([(positions, motions)])
        window = center_crop_window(20, 0.9)
        pos = resample_frames(positions[window], 8)
        mot = resample_frames(motions[window], 8)
        direct = model.variant(pos[None], mot[None])
        from tssan.tensor import Tensor
        from tssan import tensor as T
        np.testing.assert_allclose(fused.log_probs.data,
                                   T.log_softmax(direct.heads["main"]).data, atol=1e-12)

    def test_fused_output_and_per_segment_traces(self):
        rng = np.random.default_rng(7)
        model = _model(segments=3, frames=4)
        model.eval()
        out = model.forward_batch([_pair(rng), _pair(rng)])
        assert out.log_probs.shape == (2, 4)
        assert len(out.traces) == 3
        assert out.traces[0]["person0"].stacked.shape[1] == 2

    def test_loss_backward_through_fusion(self):
        rng = np.random.default_rng(8)
        for consensus in ("avg", "max"):
            model = _model(consensus)
            model.train()
            out = model.forward_batch([_pair(rng), _pair(rng)],
                                      rng=np.random.default_rng(9))
            loss = ts_loss(out, [0, 3])
            assert np.isfinite(loss.item())
            backward(loss)
            for name, p in model.named_parameters():
                assert p.grad is not None, name

    def test_v3_heads_all_fused(self):
        rng = np.random.default_rng(10)
        model = _model(variant="v3")
        model.eval()
        out = model.forward_batch([_pair(rng)])
        assert set(out.head_log_probs) == {"position", "motion", "concat"}
        np.testing.assert_array_equal(out.log_probs.data,
                                      out.head_log_probs["concat"].data)

    def test_v3_mean_inference_flag(self):
        rng = np.random.default_rng(11)
        model = _model(variant="v3", v3_inference="mean")
        model.eval()
        out = model.forward_batch([_pair(rng)])
        mean_probs = np.mean([np.exp(lp.data) for lp in out.head_log_probs.values()],
                             axis=0)
        np.testing.assert_allclose(out.probabilities, mean_probs, atol=1e-12)
