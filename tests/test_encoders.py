import re

import numpy as np
import pytest

from tssan import tensor as T
from tssan.encoders import CnnEncoder, FeedForwardEncoder
from tssan.gradcheck import check_parameter_gradients
from tssan.models import ModelConfig, build_variant
from tssan.tensor import Tensor, backward

from oracles import conv2d_loops, ff_encode_loops, maxpool_loops


class TestFeedForwardEncoder:
    def test_zero_weights_give_zero_features(self):
        enc = FeedForwardEncoder(3, 4, np.random.default_rng(0))
        enc.proj.w.data[:] = 0.0
        out = enc(Tensor(np.random.default_rng(1).normal(size=(2, 5, 3, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 5, 12)))

    def test_identity_projection_passes_nonnegative_input(self):
        enc = FeedForwardEncoder(3, 3, np.random.default_rng(0))
        enc.proj.w.data[:] = np.eye(3)
        x = np.abs(np.random.default_rng(2).normal(size=(1, 4, 2, 3)))
        out = enc(Tensor(x))
        np.testing.assert_allclose(out.data, x.reshape(1, 4, 6), atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        enc = FeedForwardEncoder(3, 5, rng)
        x = rng.normal(size=(6, 4, 3))
        out = enc(Tensor(x[None])).data[0]
        expected = ff_encode_loops(x, enc.proj.w.data, enc.proj.b.data)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_coordinate_mismatch_rejected(self):
        enc = FeedForwardEncoder(3, 4, np.random.default_rng(0))
        with pytest.raises(T.ShapeError):
            enc(Tensor(np.zeros((1, 4, 2, 2))))


class TestCnnEncoder:
    @pytest.mark.parametrize("shape", [(1, 4, 5, 2), (1, 4, 4, 3)], ids=["coords", "joints"])
    def test_geometry_mismatch_rejected(self, shape):
        enc = CnnEncoder(3, 5, np.random.default_rng(0), 0.5)
        with pytest.raises(T.ShapeError, match=r"built for \(J=5, C=3\), got input shape "
                                               + re.escape(str(shape))):
            enc(Tensor(np.zeros(shape)))

    def test_ntu_shaped_output_width(self):
        # 2 persons x 25 joints -> J' = 50; output must be F x 512 = F x (8*64)
        enc = CnnEncoder(3, 50, np.random.default_rng(4), 0.5)
        enc.eval()
        out = enc(Tensor(np.random.default_rng(5).normal(size=(1, 32, 50, 3))), None)
        assert out.shape == (1, 32, 512)

    def test_output_width_independent_of_geometry(self):
        for joints, coords, frames in [(2, 1, 4), (7, 3, 6), (10, 2, 5)]:
            enc = CnnEncoder(coords, joints, np.random.default_rng(6), 0.5)
            enc.eval()
            out = enc(Tensor(np.zeros((2, frames, joints, coords))), None)
            assert out.shape == (2, frames, 512)

    def test_zero_input_zero_biases_gives_zero(self):
        enc = CnnEncoder(3, 4, np.random.default_rng(7), 0.5)
        enc.eval()
        out = enc(Tensor(np.zeros((1, 4, 4, 3))), None)
        np.testing.assert_array_equal(out.data, np.zeros((1, 4, 512)))

    def test_matches_composed_loop_oracles(self):
        rng = np.random.default_rng(8)
        frames, joints, coords = 4, 2, 1
        enc = CnnEncoder(coords, joints, rng, 0.5)
        enc.eval()
        x = rng.normal(size=(frames, joints, coords))
        out = enc(Tensor(x[None]), None).data[0]

        def conv_relu(img, layer):
            raw = conv2d_loops(img, layer.w.data) + layer.b.data[:, None, None]
            return np.maximum(raw, 0.0)

        h = conv_relu(x.transpose(2, 0, 1), enc.conv1)          # (64, F, J)
        h = conv_relu(h, enc.conv2)                              # (32, F, J)
        h = h.transpose(2, 1, 0)                                 # (J, F, 32)
        h = maxpool_loops(conv_relu(h, enc.conv3), 2)            # (32, F, 16)
        h = maxpool_loops(conv_relu(h, enc.conv4), 2)            # (64, F, 8)
        expected = h.transpose(1, 2, 0).reshape(frames, 512)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_frame_locality_receptive_field(self):
        rng = np.random.default_rng(9)
        enc = CnnEncoder(2, 3, rng, 0.5)
        enc.eval()
        x = rng.normal(size=(1, 12, 3, 2))
        base = enc(Tensor(x), None).data
        bumped = x.copy()
        bumped[0, 6] += 5.0
        moved = enc(Tensor(bumped), None).data
        changed = np.where(np.abs(moved - base).sum(axis=2)[0] > 0)[0]
        assert changed.size > 0
        assert changed.min() >= 3 and changed.max() <= 9

    def test_eval_mode_deterministic_train_mode_masks(self):
        rng = np.random.default_rng(10)
        enc = CnnEncoder(2, 2, rng, 0.5)
        x = Tensor(rng.normal(size=(1, 4, 2, 2)))
        enc.eval()
        a = enc(x, None).data
        b = enc(x, None).data
        np.testing.assert_array_equal(a, b)
        enc.train()
        c = enc(x, np.random.default_rng(11)).data
        assert (c == 0).sum() > (a == 0).sum()

    def test_gradients_match_finite_differences(self):
        # seed picked away from relu/pool kinks, where central FD is valid
        rng = np.random.default_rng(5)
        enc = CnnEncoder(1, 2, rng, 0.5)
        enc.eval()
        x = rng.normal(size=(1, 4, 2, 1))
        mix = Tensor(rng.normal(size=(1, 4, 512)))

        def loss_value():
            return T.tsum(enc(Tensor(x), None) * mix).data

        backward(T.tsum(enc(Tensor(x), None) * mix))
        errors = check_parameter_gradients(loss_value, dict(enc.named_parameters()),
                                           sample=40, sample_seed=7)
        assert max(errors.values()) <= 1e-5, errors

    def test_model_config_selects_encoder(self):
        def built(encoder):
            config = ModelConfig(variant="v1", encoder=encoder, num_labels=2, joints=4,
                                 coords=3, persons=1, frames=4, san_layers=1, san_heads=2,
                                 ff_coord_width=2, conv_dropout=0.3)
            return build_variant(config, np.random.default_rng(0)).encoder

        ff = built("ff")
        assert isinstance(ff, FeedForwardEncoder) and ff.proj.w.shape == (3, 2)
        cnn = built("cnn")
        assert isinstance(cnn, CnnEncoder) and cnn.joints_in == 8 and cnn.drop.rate == 0.3
        with pytest.raises(ValueError, match="encoder must be one of"):
            built("rnn")
