import numpy as np
import pytest

from tssan import tensor as T
from tssan.gradcheck import check_parameter_gradients
from tssan.models import ModelConfig, SanV2, build_variant
from tssan.segments import TsnConfig, TsSan, ts_loss
from tssan.tensor import Tensor, backward

from oracles import ff_encode_loops, layer_norm_rows, multi_head_attention_loops


def _config(variant, encoder="ff", **kw):
    base = dict(variant=variant, encoder=encoder, num_labels=4, joints=3,
                coords=3, persons=2, frames=4, san_layers=1, san_heads=2,
                ff_coord_width=2)
    base.update(kw)
    return ModelConfig(**base)


def _inputs(rng, config, batch=2):
    shape = (batch, config.frames, config.persons, config.joints, config.coords)
    return rng.normal(size=shape), rng.normal(size=shape)


def _one_segment_model(config, rng):
    """K=1 TsSan whose eval-mode sampling hands clips to the variant unchanged."""
    return TsSan(build_variant(config, rng),
                 TsnConfig(segments=1, frames_per_segment=config.frames, eval_crop=1.0))


def _clips(rng, config, batch=2):
    return list(zip(*_inputs(rng, config, batch)))


class TestShapesAndFiniteness:
    @pytest.mark.parametrize("variant", ["v1", "v2", "v3"])
    @pytest.mark.parametrize("encoder", ["ff", "cnn"])
    def test_logits_width_is_num_labels(self, variant, encoder):
        rng = np.random.default_rng(0)
        config = _config(variant, encoder)
        model = build_variant(config, rng)
        model.eval()
        out = model(*_inputs(rng, config))
        assert out.logits.shape == (2, 4)
        for logits in out.aux_logits.values():
            assert logits.shape == (2, 4)

    @pytest.mark.parametrize("variant", ["v1", "v2", "v3"])
    def test_all_zero_input_gives_finite_logits(self, variant):
        rng = np.random.default_rng(1)
        config = _config(variant)
        model = build_variant(config, rng)
        model.eval()
        zeros = np.zeros((1, 4, 2, 3, 3))
        out = model(zeros, zeros)
        assert np.all(np.isfinite(out.logits.data))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        config = _config("v1")
        model = build_variant(config, rng)
        model.eval()
        with pytest.raises(T.ShapeError):
            model(np.zeros((1, 4, 2, 3, 3)), np.zeros((1, 4, 2, 3, 2)))
        with pytest.raises(T.ShapeError):
            model(np.zeros((1, 4, 1, 3, 3)), np.zeros((1, 4, 1, 3, 3)))


class TestV1:
    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(3)
        config = _config("v1", persons=1, joints=2)  # J' = 2, fused J_dim = 4
        model = build_variant(config, rng)
        model.eval()
        positions, motions = _inputs(rng, config, batch=1)
        out = model(positions, motions)

        fused = np.concatenate([positions[0, :, 0], motions[0, :, 0]], axis=1)
        feats = ff_encode_loops(fused, model.encoder.proj.w.data, model.encoder.proj.b.data)
        block = model.block
        z = feats + block.pos_table.data[:4]
        layer = block.layers[0]
        mha = layer.attn
        attended, _ = multi_head_attention_loops(
            z, mha.wq.w.data, mha.wq.b.data, mha.wk.w.data, mha.wk.b.data,
            mha.wv.w.data, mha.wv.b.data, mha.wo.w.data, mha.wo.b.data, config.san_heads)
        a = layer_norm_rows(z + attended, layer.norm1.gamma.data, layer.norm1.beta.data)
        ffn = np.maximum(0.0, a @ layer.ff1.w.data + layer.ff1.b.data) \
            @ layer.ff2.w.data + layer.ff2.b.data
        z = layer_norm_rows(a + ffn, layer.norm2.gamma.data, layer.norm2.beta.data)
        o = np.maximum(0.0, z.mean(axis=0) @ block.proj.w.data + block.proj.b.data)
        logits = np.maximum(0.0, o) @ model.head.linear.w.data + model.head.linear.b.data
        np.testing.assert_allclose(out.logits.data[0], logits, atol=1e-9)


class TestV2:
    def test_duplicate_person_equals_single_person_signal(self):
        rng = np.random.default_rng(4)
        config = _config("v2")
        model = build_variant(config, rng)
        model.eval()
        positions, motions = _inputs(rng, config)
        positions[:, :, 1] = positions[:, :, 0]
        motions[:, :, 1] = motions[:, :, 0]
        out = model(positions, motions)
        # both person branches are identical, so the max equals either branch
        feats = T.concat([model.pos_encoder(Tensor(positions[:, :, 0])),
                          model.mot_encoder(Tensor(motions[:, :, 0]))], axis=-1)
        o, _ = model.block(feats)
        solo = model.head(o, None)
        np.testing.assert_array_equal(out.logits.data, solo.data)

    def test_person_swap_is_bit_exact(self):
        rng = np.random.default_rng(5)
        config = _config("v2", encoder="cnn")
        model = build_variant(config, rng)
        model.eval()
        positions, motions = _inputs(rng, config)
        out = model(positions, motions)
        swapped = model(positions[:, :, ::-1], motions[:, :, ::-1])
        np.testing.assert_array_equal(out.logits.data, swapped.logits.data)

    def test_single_block_parameter_set(self):
        rng = np.random.default_rng(6)
        model = build_variant(_config("v2", persons=3), rng)
        block_params = [n for n, _ in model.named_parameters() if n.startswith("block.")]
        all_block_like = [n for n, _ in model.named_parameters() if ".pos_table" in n]
        assert len(all_block_like) == 1  # one position table -> one block
        assert block_params  # and it lives under the single shared prefix

    def test_matches_per_person_composition(self):
        rng = np.random.default_rng(7)
        config = _config("v2")
        model = build_variant(config, rng)
        model.eval()
        positions, motions = _inputs(rng, config, batch=3)
        out = model(positions, motions)
        branches = []
        for s in range(2):
            feats = T.concat([model.pos_encoder(Tensor(positions[:, :, s])),
                              model.mot_encoder(Tensor(motions[:, :, s]))], axis=-1)
            o, _ = model.block(feats)
            branches.append(o.data)
        merged = np.maximum(branches[0], branches[1])
        relu = np.maximum(0.0, merged)
        logits = relu @ model.head.linear.w.data + model.head.linear.b.data
        np.testing.assert_allclose(out.logits.data, logits, atol=1e-9)

    def test_per_person_traces_exposed(self):
        rng = np.random.default_rng(8)
        config = _config("v2")
        model = build_variant(config, rng)
        model.eval()
        out = model(*_inputs(rng, config, batch=2))
        assert set(out.traces) == {"person0", "person1"}
        assert out.traces["person0"].stacked.shape == (1, 2, 2, 4, 4)


class TestV3:
    def test_three_heads_and_traces(self):
        rng = np.random.default_rng(9)
        config = _config("v3")
        model = build_variant(config, rng)
        model.eval()
        out = model(*_inputs(rng, config))
        assert set(out.aux_logits) == {"position", "motion", "concat"}
        assert set(out.traces) == {"position", "motion"}
        assert out.logits is out.aux_logits["concat"]

    def test_person_swap_invariance(self):
        rng = np.random.default_rng(10)
        config = _config("v3", encoder="cnn")
        model = build_variant(config, rng)
        model.eval()
        positions, motions = _inputs(rng, config)
        a = model(positions, motions)
        b = model(positions[:, :, ::-1], motions[:, :, ::-1])
        for key in a.aux_logits:
            np.testing.assert_array_equal(a.aux_logits[key].data, b.aux_logits[key].data)

    def test_summed_loss_closed_form(self):
        # three uniform heads over 4 labels -> total loss 3 * ln 4
        rng = np.random.default_rng(11)
        config = _config("v3")
        model = _one_segment_model(config, rng)
        model.eval()
        for head in (model.variant.pos_head, model.variant.mot_head, model.variant.cat_head):
            head.linear.w.data[:] = 0.0
            head.linear.b.data[:] = 0.0
        loss = ts_loss(model.forward_batch(_clips(rng, config)), [0, 2])
        assert abs(loss.item() - 3 * np.log(4.0)) <= 1e-12


class TestTrainingBehaviour:
    @pytest.mark.parametrize("variant", ["v1", "v2", "v3"])
    def test_loss_backward_populates_every_parameter(self, variant):
        rng = np.random.default_rng(12)
        config = _config(variant)
        model = _one_segment_model(config, rng)
        model.train()
        out = model.forward_batch(_clips(rng, config), rng=np.random.default_rng(13))
        backward(ts_loss(out, [1, 3]))
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.all(np.isfinite(p.grad)), name

    def test_v2_parameter_gradients_match_fd(self):
        rng = np.random.default_rng(1)
        config = _config("v2")
        model = _one_segment_model(config, rng)
        model.eval()
        clips = _clips(rng, config, batch=1)
        labels = [2]

        def loss_value():
            return ts_loss(model.forward_batch(clips), labels).data

        backward(ts_loss(model.forward_batch(clips), labels))
        errors = check_parameter_gradients(loss_value, dict(model.named_parameters()),
                                           sample=16, sample_seed=5, floor=1e-6)
        assert max(errors.values()) <= 1e-4, errors

