import numpy as np
import pytest

from tssan import tensor as T
from tssan.attention import (AttentionTrace, MultiHeadAttention, SanBlock,
                             SanConfig, SanLayer, position_embed)
from tssan.gradcheck import check_parameter_gradients
from tssan.tensor import Tensor, backward

from oracles import layer_norm_rows, multi_head_attention_loops, softmax_rows


def _config(**kw):
    base = dict(layers=2, heads=2, width=8, max_frames=6, dropout=0.2)
    base.update(kw)
    return SanConfig(**base)


class TestPositionEmbed:
    def test_zero_table_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 6, 8)))
        table = Tensor(np.zeros((6, 8)))
        np.testing.assert_array_equal(position_embed(x, table).data, x.data)

    def test_zero_input_returns_table(self):
        table = Tensor(np.random.default_rng(1).normal(size=(6, 8)))
        out = position_embed(Tensor(np.zeros((1, 6, 8))), table)
        np.testing.assert_array_equal(out.data[0], table.data)

    def test_additivity(self):
        rng = np.random.default_rng(2)
        x1, x2 = rng.normal(size=(2, 6, 8)), rng.normal(size=(2, 6, 8))
        table = Tensor(rng.normal(size=(6, 8)))
        a = position_embed(Tensor(x1 + x2), table).data
        b = position_embed(Tensor(x1), table).data + x2
        np.testing.assert_allclose(a, b, atol=1e-15)

    @pytest.mark.parametrize("frames", [1, 4, 5, 7])
    def test_other_frame_count_rejected(self, frames):
        with pytest.raises(ValueError, match=f"sequence of {frames} frames does not match "
                                             f"the position table length 6"):
            position_embed(Tensor(np.zeros((1, frames, 8))), Tensor(np.zeros((6, 8))))


class TestMultiHeadAttention:
    def test_single_frame_prob_is_one(self):
        rng = np.random.default_rng(3)
        mha = MultiHeadAttention(8, 2, rng)
        _, probs = mha(Tensor(rng.normal(size=(1, 1, 8))))
        np.testing.assert_array_equal(probs, np.ones((1, 2, 1, 1)))

    def test_identical_frames_give_uniform_rows(self):
        rng = np.random.default_rng(4)
        mha = MultiHeadAttention(8, 4, rng)
        frame = rng.normal(size=8)
        _, probs = mha(Tensor(np.tile(frame, (1, 5, 1))))
        np.testing.assert_allclose(probs, np.full((1, 4, 5, 5), 0.2), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        mha = MultiHeadAttention(4, 2, rng)
        y = rng.normal(size=(3, 4))
        out, probs = mha(Tensor(y[None]))
        expected, eprobs = multi_head_attention_loops(
            y, mha.wq.w.data, mha.wq.b.data, mha.wk.w.data, mha.wk.b.data,
            mha.wv.w.data, mha.wv.b.data, mha.wo.w.data, mha.wo.b.data, heads=2)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-10)
        np.testing.assert_allclose(probs[0], eprobs, atol=1e-10)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        mha = MultiHeadAttention(16, 8, rng)
        _, probs = mha(Tensor(rng.normal(scale=5, size=(2, 7, 16))))
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones((2, 8, 7)), atol=1e-9)
        assert probs.min() >= 0 and probs.max() <= 1


class TestSanLayer:
    def test_eval_mode_is_deterministic(self):
        rng = np.random.default_rng(7)
        layer = SanLayer(_config(), rng)
        layer.eval()
        y = Tensor(rng.normal(size=(2, 4, 8)))
        a, _ = layer(y)
        b, _ = layer(y)
        np.testing.assert_array_equal(a.data, b.data)

    def test_zero_weights_reduce_to_double_layer_norm(self):
        rng = np.random.default_rng(8)
        layer = SanLayer(_config(), rng)
        layer.eval()
        for _, p in layer.named_parameters():
            if p is not layer.norm1.gamma and p is not layer.norm2.gamma:
                p.data[:] = 0.0
        y = rng.normal(size=(1, 4, 8))
        out, _ = layer(Tensor(y))
        expected = layer_norm_rows(layer_norm_rows(y, np.ones(8), np.zeros(8)),
                                   np.ones(8), np.zeros(8))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        layer = SanLayer(_config(layers=1), rng)
        layer.eval()
        y = Tensor(rng.normal(size=(1, 3, 8)), requires_grad=True)
        mix = Tensor(rng.normal(size=(1, 3, 8)))

        def loss_value():
            return T.tsum(layer(y)[0] * mix).data

        backward(T.tsum(layer(y)[0] * mix))
        errors = check_parameter_gradients(loss_value, {"y": y})
        assert errors["y"] <= 1e-5

    def test_train_mode_requires_rng_and_diverges_from_eval(self):
        rng = np.random.default_rng(10)
        layer = SanLayer(_config(), rng)
        y = Tensor(rng.normal(size=(1, 4, 8)))
        with pytest.raises(ValueError, match="rng"):
            layer(y)
        out_train, _ = layer(y, np.random.default_rng(1))
        layer.eval()
        out_eval, _ = layer(y)
        assert np.abs(out_train.data - out_eval.data).max() > 1e-6


class TestSanBlock:
    def test_minimal_shapes(self):
        rng = np.random.default_rng(11)
        block = SanBlock(_config(layers=1, max_frames=1), rng)
        block.eval()
        o, trace = block(Tensor(rng.normal(size=(1, 1, 8))))
        assert o.shape == (1, 8)
        assert trace.stacked.shape == (1, 1, 2, 1, 1)

    def test_trace_shape_and_row_sums(self):
        rng = np.random.default_rng(12)
        block = SanBlock(_config(layers=3, heads=4, width=8, max_frames=5), rng)
        block.eval()
        _, trace = block(Tensor(rng.normal(size=(2, 5, 8))))
        assert trace.stacked[:, 0].shape == (3, 4, 5, 5)  # layers x heads x F x F
        np.testing.assert_allclose(trace.stacked.sum(axis=-1),
                                   np.ones((3, 2, 4, 5)), atol=1e-9)

    def test_frame_permutation_with_matching_position_rows(self):
        rng = np.random.default_rng(13)
        block = SanBlock(_config(max_frames=4), rng)
        block.eval()
        x = rng.normal(size=(1, 4, 8))
        o1, _ = block(Tensor(x))
        perm = [2, 0, 3, 1]
        saved = block.pos_table.data.copy()
        block.pos_table.data[:] = saved[perm]
        o2, _ = block(Tensor(x[:, perm]))
        block.pos_table.data[:] = saved
        np.testing.assert_allclose(o1.data, o2.data, atol=1e-9)

    def test_permutation_equivariance_with_zero_position_table(self):
        rng = np.random.default_rng(14)
        config = _config(max_frames=5)
        block = SanBlock(config, rng)
        block.eval()
        block.pos_table.data[:] = 0.0
        x = rng.normal(size=(1, 5, 8))
        perm = [4, 2, 0, 1, 3]

        layer = block.layers[0]
        z1, _ = layer(position_embed(Tensor(x), block.pos_table))
        z2, _ = layer(position_embed(Tensor(x[:, perm]), block.pos_table))
        np.testing.assert_allclose(z2.data, z1.data[:, perm], atol=1e-12)

        o1, _ = block(Tensor(x))
        o2, _ = block(Tensor(x[:, perm]))
        np.testing.assert_allclose(o1.data, o2.data, atol=1e-12)

    def test_identical_frames_collapse_in_every_layer(self):
        rng = np.random.default_rng(15)
        block = SanBlock(_config(layers=3, max_frames=6), rng)
        block.eval()
        block.pos_table.data[:] = 0.0
        frame = rng.normal(size=8)
        z = position_embed(Tensor(np.tile(frame, (1, 6, 1))), block.pos_table)
        for layer in block.layers:
            z, _ = layer(z)
            spread = np.abs(z.data - z.data[:, :1]).max()
            assert spread <= 1e-12

    def test_composed_oracle_toy_block(self):
        rng = np.random.default_rng(16)
        config = _config(layers=2, heads=2, width=8, max_frames=4)
        block = SanBlock(config, rng)
        block.eval()
        x = rng.normal(size=(4, 8))
        o, _ = block(Tensor(x[None]))

        ones, zeros = np.ones(8), np.zeros(8)
        z = x + block.pos_table.data[:4]
        collected = []
        for layer in block.layers:
            mha = layer.attn
            attended, _ = multi_head_attention_loops(
                z, mha.wq.w.data, mha.wq.b.data, mha.wk.w.data, mha.wk.b.data,
                mha.wv.w.data, mha.wv.b.data, mha.wo.w.data, mha.wo.b.data, heads=2)
            a = layer_norm_rows(z + attended, layer.norm1.gamma.data, layer.norm1.beta.data)
            hidden = np.maximum(0.0, a @ layer.ff1.w.data + layer.ff1.b.data)
            ffn = hidden @ layer.ff2.w.data + layer.ff2.b.data
            z = layer_norm_rows(a + ffn, layer.norm2.gamma.data, layer.norm2.beta.data)
            collected.append(z)
        c = np.concatenate(collected, axis=-1)
        pooled = c.mean(axis=0)
        expected = np.maximum(0.0, pooled @ block.proj.w.data + block.proj.b.data)
        np.testing.assert_allclose(o.data[0], expected, atol=1e-9)

    def test_two_layer_block_parameter_gradients(self):
        # fixed seed keeps the rectifier margins clear of the FD step
        rng = np.random.default_rng(1)
        block = SanBlock(_config(layers=2, max_frames=3), rng)
        block.eval()
        x = rng.normal(size=(1, 3, 8))
        mix = Tensor(rng.normal(size=(1, 8)))

        def loss_value():
            return T.tsum(block(Tensor(x))[0] * mix).data

        backward(T.tsum(block(Tensor(x))[0] * mix))
        # floor 1e-6 keeps structurally-zero gradients (e.g. the key bias,
        # which softmax row-shift invariance kills) from comparing FD noise
        errors = check_parameter_gradients(loss_value, dict(block.named_parameters()),
                                           sample=24, sample_seed=3, floor=1e-6)
        assert max(errors.values()) <= 1e-4, errors

    def test_attention_trace_accessors(self):
        # (layers, B, heads, F, F), every value distinct
        stacked = np.arange(2 * 3 * 2 * 4 * 4.0).reshape(2, 3, 2, 4, 4)
        trace = AttentionTrace(stacked)
        assert trace.stacked is stacked
        part = trace.batch_slice(1, 3)
        assert isinstance(part, AttentionTrace) and part.stacked.shape == (2, 2, 2, 4, 4)
        np.testing.assert_array_equal(part.stacked, stacked[:, 1:3])
