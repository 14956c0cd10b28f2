import itertools
import re
import tracemalloc

import numpy as np
import pytest

from tssan import tensor as T
from tssan.gradcheck import check_parameter_gradients, numeric_gradient, relative_error
from tssan.nn import Linear
from tssan.tensor import ShapeError, Tensor, backward

from oracles import (amax_loops, conv2d_grad_loops, conv2d_loops, matmul_loops,
                     maxpool_grad_loops, maxpool_loops)


def fd_check(build_loss, leaves, tol=1e-5, eps=1e-5):
    """Backward grads of `leaves` vs central differences of the same loss."""
    loss = build_loss()
    backward(loss)
    for leaf in leaves:
        numeric = numeric_gradient(lambda: build_loss().data, leaf.data, eps=eps)
        assert relative_error(leaf.grad, numeric) <= tol


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 4)))
        eye = Tensor(np.eye(4))
        np.testing.assert_array_equal(T.matmul(a, eye).data, a.data)

    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[3.0], [7.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, matmul_loops(a, b), rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        b = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)))  # fixed weights make a scalar loss
        fd_check(lambda: T.tsum(T.matmul(a, b) * w), [a, b], tol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_one_d_operand_rejected(self):
        with pytest.raises(ShapeError, match=r"2-D\+ operands, got \(3,\) and \(3, 2\)"):
            T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))

    def test_batched_broadcast_gradients(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        fd_check(lambda: T.tsum(T.matmul(a, b)), [a, b], tol=1e-6)

    @pytest.mark.parametrize("shapes", [((5, 7), (7, 3)), ((2, 4, 7), (7, 3)),
                                        ((2, 4, 7), (2, 7, 3))],
                             ids=["2d", "stacked", "batched"])
    @pytest.mark.parametrize("dtypes", list(itertools.product((np.float32, np.float64),
                                                              repeat=3)),
                             ids=lambda d: "-".join(np.dtype(t).name for t in d))
    def test_bias_has_the_bits_of_matmul_then_add(self, shapes, dtypes):
        rng = np.random.default_rng(14)
        arrays = [rng.normal(size=shape) for shape in shapes + ((3,),)]
        upstream = rng.normal(size=np.broadcast_shapes(shapes[0][:-1] + (3,),
                                                       shapes[1][:-2] + (1, 3)))
        runs = []
        for fused in (True, False):
            a, w, bias = (Tensor(x.astype(t), requires_grad=True)
                          for x, t in zip(arrays, dtypes))
            out = T.matmul(a, w, bias) if fused else T.add(T.matmul(a, w), bias)
            backward(T.tsum(out * Tensor(upstream.astype(out.dtype))))
            runs.append([out.data, a.grad, w.grad, bias.grad])
        assert runs[0][0].dtype == min(map(np.dtype, dtypes), key=lambda d: d.itemsize)
        for got, want in zip(*runs):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_linear_forward_allocates_one_output(self):
        # the bias is added into the product: no pre-bias array outlives it
        layer = Linear(64, 96, np.random.default_rng(15))
        x = Tensor(np.random.default_rng(16).normal(size=(8, 50, 64)), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = layer(x)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out._parents == (x, layer.w, layer.b)
        assert out.data.nbytes <= held < 1.25 * out.data.nbytes


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 4, 6)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(T.conv2d(x, w, Tensor([0.25])).data, x.data + 0.25)

    def test_zero_kernel(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 4, 4)))
        w = Tensor(np.zeros((3, 2, 3, 3)))
        b = np.array([-1.0, 0.0, 2.5])
        np.testing.assert_array_equal(T.conv2d(x, w, Tensor(b)).data,
                                      np.broadcast_to(b[:, None, None], (3, 4, 4)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, conv2d_loops(x, w) + b[:, None, None],
                                   rtol=0, atol=1e-12)

    def test_asymmetric_kernel_matches_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 5, 4))
        w = rng.normal(size=(2, 3, 3, 1))
        b = rng.normal(size=2)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, conv2d_loops(x, w) + b[:, None, None],
                                   rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        mix = Tensor(rng.normal(size=(3, 4, 4)))
        fd_check(lambda: T.tsum(T.conv2d(x, w, b) * mix), [x, w, b], tol=1e-6)

    def test_batched_leading_dims(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        for i in range(5):
            np.testing.assert_allclose(got[i], conv2d_loops(x[i], w) + b[:, None, None],
                                       atol=1e-12)

    @pytest.mark.parametrize("layout", ["single", "batched", "batched-permuted"])
    @pytest.mark.parametrize("extent", [(4, 5), (1, 5), (4, 1)], ids=["4x5", "H1", "W1"])
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 1), (1, 3), (3, 3), (5, 3)],
                             ids=["1x1", "3x1", "1x3", "3x3", "5x3"])
    def test_forward_and_gradients_match_loop_oracles(self, kernel, extent, layout):
        # H=1 or W=1 puts the padding wider than the extent, so the shifted
        # slices reach into the spare zero rows at both ends of the buffer
        rng = np.random.default_rng(12)
        cin, cout = 2, 3
        lead = () if layout == "single" else (2, 3)
        if layout == "batched-permuted":
            # channels-inner memory viewed as (..., Cin, H, W), as CnnEncoder passes
            xd = np.moveaxis(rng.normal(size=lead + extent + (cin,)), -1, -3)
            assert not xd.flags.c_contiguous
        else:
            xd = rng.normal(size=lead + (cin,) + extent)
        wd = rng.normal(size=(cout, cin) + kernel)
        bd = rng.normal(size=cout)
        gd = rng.normal(size=lead + (cout,) + extent)
        x = Tensor(xd, requires_grad=True)
        w = Tensor(wd, requires_grad=True)
        b = Tensor(bd, requires_grad=True)
        out = T.conv2d(x, w, b)
        backward(T.tsum(out * Tensor(gd)))
        dw_want = np.zeros_like(wd)
        for idx in np.ndindex(*lead):
            np.testing.assert_allclose(out.data[idx],
                                       conv2d_loops(xd[idx], wd) + bd[:, None, None],
                                       rtol=0, atol=1e-12)
            dx_want, dw_part = conv2d_grad_loops(xd[idx], wd, gd[idx])
            np.testing.assert_allclose(x.grad[idx], dx_want, rtol=0, atol=1e-12)
            dw_want += dw_part
        np.testing.assert_allclose(w.grad, dw_want, rtol=0, atol=1e-12)
        channel = gd.ndim - 3
        np.testing.assert_allclose(
            b.grad, gd.sum(axis=tuple(a for a in range(gd.ndim) if a != channel)),
            rtol=0, atol=1e-12)

    def test_backward_keeps_no_column_matrix(self):
        # the rule may hold the padded input, not a kh*kw-times-larger im2col
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 8, 16, 16)), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 8, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=16), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = T.conv2d(x, w, b)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        assert held <= 2 * (x.data.nbytes + out.data.nbytes)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel mismatch"):
            T.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 5, 3, 3))),
                     Tensor(np.zeros(3)))

    def test_weight_not_4d_rejected(self):
        with pytest.raises(ShapeError, match=r"weight must be 4-D .*got \(3, 2, 3\)"):
            T.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2, 3))),
                     Tensor(np.zeros(3)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            T.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2, 2, 2))),
                     Tensor(np.zeros(3)))

    @pytest.mark.parametrize("shape", [(2,), (3, 1), ()])
    def test_bias_not_one_per_output_channel_rejected(self, shape):
        with pytest.raises(ShapeError, match=r"bias must be \(3,\)"):
            T.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))),
                     Tensor(np.zeros(shape)))


class TestMaxPool:
    def test_hand_case(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4))
        np.testing.assert_array_equal(T.maxpool2d(x).data, [[[2.0, 4.0]]])

    def test_tie_routes_to_first(self):
        x = Tensor(np.full((1, 1, 4), 7.0), requires_grad=True)
        out = T.maxpool2d(x)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2), 7.0))
        backward(T.tsum(out))
        np.testing.assert_array_equal(x.grad, [[[1.0, 0.0, 1.0, 0.0]]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 4, 8))
        got = T.maxpool2d(Tensor(x)).data
        np.testing.assert_array_equal(got, maxpool_loops(x, 2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        mix = Tensor(rng.normal(size=(2, 3, 3)))
        fd_check(lambda: T.tsum(T.maxpool2d(x) * mix), [x], tol=1e-6)

    def test_odd_width_rejected(self):
        with pytest.raises(ShapeError, match="not divisible"):
            T.maxpool2d(Tensor(np.zeros((1, 2, 5))))

    def test_window_taller_than_one_rejected(self):
        with pytest.raises(ShapeError, match=r"\(1, k\) windows only, got \(2, 2\)"):
            T.maxpool2d(Tensor(np.zeros((1, 4, 4))), (2, 2))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_strided_max_with_ties_matches_loop_oracle(self, k, dtype):
        rng = np.random.default_rng(20 + k)
        # ReLU zeros tie whole windows at 0; a half-unit grid ties positives
        x = np.maximum(np.round(rng.normal(size=(2, 3, 4, 6 * k)) * 2) / 2, 0.0).astype(dtype)
        g = rng.normal(size=(2, 3, 4, 6)).astype(dtype)
        windows = x.reshape(-1, k)
        assert ((windows == windows.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        xt = Tensor(x, requires_grad=True)
        out = T.maxpool2d(xt, (1, k))
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, maxpool_loops(x, k))
        backward(T.tsum(out * Tensor(g)))
        assert xt.grad.dtype == dtype
        np.testing.assert_array_equal(xt.grad, maxpool_grad_loops(x, g, k))


class TestDtypeRules:
    def test_float_input_keeps_its_dtype(self):
        assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.zeros(3)).data.dtype == np.float64

    @pytest.mark.parametrize("value", [[1, 2], np.arange(3), True, 2])
    def test_non_float_input_becomes_float64(self, value):
        assert Tensor(value).data.dtype == np.float64

    @pytest.mark.parametrize("op", ["add", "matmul-flat", "matmul-batched", "conv2d",
                                    "layer_norm"])
    def test_float32_activations_over_float64_masters(self, op):
        # the master operands' gradient is the float32 one a float32 copy of
        # them gets; the output and the activations stay float32
        rng = np.random.default_rng(30)
        x_shape, masters, apply = {
            "add": ((3, 4), [(4,)], lambda x, p: T.add(x, p[0])),
            "matmul-flat": ((2, 3, 4), [(4, 5)], lambda x, p: T.matmul(x, p[0])),
            "matmul-batched": ((2, 3, 4), [(2, 4, 5)], lambda x, p: T.matmul(x, p[0])),
            "conv2d": ((2, 3, 4, 5), [(2, 3, 3, 3), (2,)],
                       lambda x, p: T.conv2d(x, p[0], p[1])),
            "layer_norm": ((3, 6), [(6,), (6,)], lambda x, p: T.layer_norm(x, p[0], p[1])),
        }[op]
        x = rng.normal(size=x_shape).astype(np.float32)
        masters = [rng.normal(size=shape) for shape in masters]

        def run(params):
            xt = Tensor(x, requires_grad=True)
            params = [Tensor(p, requires_grad=True) for p in params]
            out = apply(xt, params)
            mix = np.random.default_rng(31).normal(size=out.shape).astype(np.float32)
            backward(T.tsum(out * Tensor(mix)))
            return out, xt, params

        out, xt, params = run(masters)
        want, xt_want, copies = run([m.astype(np.float32) for m in masters])
        assert out.data.dtype == xt.grad.dtype == np.float32
        assert out.data.tobytes() == want.data.tobytes()
        assert xt.grad.tobytes() == xt_want.grad.tobytes()
        for p, c in zip(params, copies):
            assert p.grad.dtype == c.grad.dtype == np.float32
            assert p.grad.tobytes() == c.grad.tobytes()

    def test_master_used_twice_accumulates_in_float64(self):
        # float32 contributions summed in float32 would round 0.1f + 1
        w = Tensor(np.array([0.1, 0.2, 0.3]), requires_grad=True)
        x = Tensor(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        c = np.array([[0.1, 0.2, 0.3]], dtype=np.float32)
        loss = T.tsum(T.add(x, w) * Tensor(c)) + T.tsum(T.add(x, w))
        assert loss.data.dtype == np.float32
        backward(loss)
        assert w.grad.dtype == np.float64
        np.testing.assert_array_equal(w.grad, c[0].astype(np.float64) + 1.0)

    def test_master_keeps_a_float32_gradient_and_sums_uses_in_float64(self):
        # one use keeps the contribution in its own dtype; two uses, in any
        # order of dtypes, give float64(g1) + float64(g2)
        rng = np.random.default_rng(32)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        uses = [(Tensor(rng.normal(size=(5, 3)).astype(dtype)),
                 Tensor(rng.normal(size=(5, 2)).astype(dtype)))
                for dtype in (np.float32, np.float32, np.float64)]

        def term(use):
            x, c = uses[use]
            return T.tsum(T.matmul(x, w) * c)

        alone = []
        for use, dtype in enumerate((np.float32, np.float32, np.float64)):
            w.grad = None
            backward(term(use))
            assert w.grad.dtype == dtype
            alone.append(w.grad)
        for first, second in [(0, 1), (0, 2), (2, 0)]:
            w.grad = None
            backward(term(first) + term(second))
            want = alone[first].astype(np.float64) + alone[second].astype(np.float64)
            assert w.grad.dtype == np.float64 and w.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_operands_already_narrowest_are_not_copied(self, dtype):
        a = Tensor(np.ones((2, 3), dtype=dtype))
        b = Tensor(np.ones(3, dtype=np.float64))
        ad, bd = T._narrowest(a, b)
        assert ad is a.data and ad.dtype == dtype
        assert (bd is b.data) == (dtype == np.float64)

    def test_dropout_mask_is_the_float64_draw_cast(self):
        x = np.linspace(0.5, 2.0, 200)
        out64 = T.dropout(Tensor(x), 0.3, True, np.random.default_rng(4)).data
        out32 = T.dropout(Tensor(x.astype(np.float32)), 0.3, True,
                          np.random.default_rng(4)).data
        assert out32.dtype == np.float32
        np.testing.assert_array_equal(out32 == 0, out64 == 0)
        np.testing.assert_allclose(out32, out64, rtol=1e-6)


class TestSoftmax:
    def test_constant_row_is_uniform(self):
        out = T.softmax(Tensor(np.full((3, 5), 2.0))).data
        np.testing.assert_allclose(out, np.full((3, 5), 0.2), atol=1e-15)

    def test_closed_form(self):
        out = T.softmax(Tensor([[0.0, np.log(3.0)]])).data
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_large_inputs_stay_finite(self):
        out = T.softmax(Tensor([[1000.0, 1000.1]])).data
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-9

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        out = T.softmax(Tensor(rng.normal(scale=50, size=(10, 7)))).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(10), atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        mix = Tensor(rng.normal(size=(4, 6)))
        fd_check(lambda: T.tsum(T.softmax(x) * mix), [x], tol=1e-6)


class TestLayerNorm:
    def _params(self, dim):
        return Tensor(np.ones(dim), requires_grad=True), Tensor(np.zeros(dim), requires_grad=True)

    def test_fixed_point(self):
        # already zero-mean unit-variance -> roughly unchanged
        row = np.array([1.0, -1.0, 1.0, -1.0])
        gamma, beta = self._params(4)
        out = T.layer_norm(Tensor(row[None]), gamma, beta).data
        np.testing.assert_allclose(out, row[None], atol=1e-5)

    def test_constant_row_goes_to_zero(self):
        gamma, beta = self._params(6)
        out = T.layer_norm(Tensor(np.full((2, 6), 3.7)), gamma, beta).data
        np.testing.assert_allclose(out, np.zeros((2, 6)), atol=1e-12)

    def test_statistics(self):
        rng = np.random.default_rng(14)
        gamma, beta = self._params(32)
        out = T.layer_norm(Tensor(rng.normal(size=(5, 32)) * 3 + 1), gamma, beta).data
        assert np.all(np.abs(out.mean(axis=-1)) <= 1e-9)
        np.testing.assert_allclose(out.var(axis=-1), np.ones(5), atol=1e-4)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        gamma = Tensor(rng.normal(size=8), requires_grad=True)
        beta = Tensor(rng.normal(size=8), requires_grad=True)
        mix = Tensor(rng.normal(size=(3, 8)))
        fd_check(lambda: T.tsum(T.layer_norm(x, gamma, beta) * mix),
                 [x, gamma, beta], tol=1e-5)

    def test_single_feature_rejected(self):
        gamma, beta = self._params(1)
        with pytest.raises(ShapeError, match="feature axis of length >= 2, got 1"):
            T.layer_norm(Tensor(np.zeros((3, 1))), gamma, beta)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = T.cross_entropy(Tensor(np.zeros((2, 4))), [1, 3])
        assert abs(loss.item() - np.log(4.0)) <= 1e-12

    def test_saturated_case(self):
        loss = T.cross_entropy(Tensor([[100.0, 0.0, 0.0, 0.0]]), [0])
        assert loss.item() <= 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        labels = [4, 0, 2]
        fd_check(lambda: T.cross_entropy(logits, labels), [logits], tol=1e-6)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(17)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        labels = np.array([1, 2, 0])
        backward(T.cross_entropy(logits, labels))
        probs = T.softmax(Tensor(logits.data)).data
        onehot = np.eye(5)[labels]
        np.testing.assert_allclose(logits.grad, (probs - onehot) / 3, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            T.cross_entropy(Tensor(np.zeros((2, 4))), [0, 4])

    @pytest.mark.parametrize("logits, labels", [((2, 4), (3,)), ((2, 2, 4), (2,)),
                                                ((2, 4), (2, 1))],
                             ids=["count", "logits-3d", "labels-2d"])
    def test_shapes_that_disagree_rejected(self, logits, labels):
        with pytest.raises(ShapeError, match=rf"\(B, L\) logits and \(B,\) labels, "
                                             rf"got {re.escape(str(logits))}"):
            T.cross_entropy(Tensor(np.zeros(logits)), np.zeros(labels, dtype=int))


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert T.dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert T.dropout(x, 0.9, False, None) is x

    def test_survivor_mean_is_unbiased(self):
        rng = np.random.default_rng(18)
        n = 100_000
        out = T.dropout(Tensor(np.ones(n)), 0.5, True, rng).data
        # survivors scaled by 2; mean of n Bernoulli(0.5)*2 has sigma 1/sqrt(n)
        assert abs(out.mean() - 1.0) <= 3.0 / np.sqrt(n)

    def test_gradient_uses_same_mask(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = T.dropout(x, 0.3, True, np.random.default_rng(19))
        backward(T.tsum(out))
        np.testing.assert_array_equal(x.grad, (out.data != 0) / 0.7)

    def test_full_rate_rejected(self):
        with pytest.raises(ValueError):
            T.dropout(Tensor(np.ones(3)), 1.0, True, np.random.default_rng(0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_a_stored_scaled_mask(self, dtype):
        # the reference keeps the scaled mask in x's dtype; the op keeps only
        # the bool keep-mask, one byte per value beyond its output
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(6, 50, 40)).astype(dtype), requires_grad=True)
        g = rng.normal(size=x.shape).astype(dtype)
        mask = ((np.random.default_rng(21).random(x.shape) >= 0.3).astype(dtype)
                * (1.0 / (1.0 - 0.3)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = T.dropout(x, 0.3, True, np.random.default_rng(21))
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= out.data.nbytes + x.data.size + 4096
        assert out.data.dtype == dtype and out.data.tobytes() == (x.data * mask).tobytes()
        backward(T.tsum(out * Tensor(g)))
        assert x.grad.dtype == dtype and x.grad.tobytes() == (g * mask).tobytes()


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(T.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_reuse_accumulates(self):
        x = Tensor(np.ones(4), requires_grad=True)
        backward(T.tsum(x) + T.tsum(x))
        np.testing.assert_array_equal(x.grad, np.full(4, 2.0))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x + x)

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with T.no_grad():
            out = T.tsum(x * 2.0)
        assert not out.requires_grad
        assert out._backward is None

    def test_diamond_graph(self):
        # x feeds two paths that rejoin; grads must add exactly once per use
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = x * 3.0
        loss = T.tsum(y * y) + T.tsum(y)
        backward(loss)
        np.testing.assert_allclose(x.grad, 2 * 9 * x.data + 3, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_same_tensor_twice_in_one_add(self, dtype):
        x = Tensor(np.arange(6, dtype=dtype).reshape(2, 3), requires_grad=True)
        c = np.linspace(-1.0, 1.0, 6).reshape(2, 3).astype(dtype)
        backward(T.tsum(T.add(x, x) * c))
        np.testing.assert_array_equal(x.grad, 2 * c)

    def test_zero_d_gradient_is_an_array(self):
        # g * s on a 0-d gradient is a numpy scalar; .grad stays an ndarray,
        # also when a second use adds a numpy scalar to it
        x = Tensor(np.array(2.0), requires_grad=True)
        backward(T.mul(x, 3.0))
        assert isinstance(x.grad, np.ndarray) and x.grad.shape == () and x.grad == 3.0
        y = Tensor(np.array(2.0), requires_grad=True)
        backward(T.mul(y, 3.0) + T.mul(y, 4.0))
        assert isinstance(y.grad, np.ndarray) and y.grad.shape == () and y.grad == 7.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_no_gradient_aliases_another(self, dtype):
        # add hands one upstream gradient to both parents, the broadcast add
        # reduces it, matmul and mul build fresh ones; p then takes three more
        # contributions in place, which must reach no other tensor's grad
        rng = np.random.default_rng(4)
        p, q = (Tensor(rng.normal(size=(3, 4)).astype(dtype), requires_grad=True)
                for _ in range(2))
        r = Tensor(rng.normal(size=4).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)).astype(dtype), requires_grad=True)
        c, d, e = (rng.normal(size=(3, 4)).astype(dtype) for _ in range(3))
        t = T.add(T.add(p, q), r)
        loss = (T.tsum(t * c) + T.tsum(T.matmul(p, w) * d) + T.tsum(p * e)
                + T.tsum(T.sub(q, p)))
        backward(loss)
        tol = {"rtol": 1e-5 if dtype == np.float32 else 1e-12}
        np.testing.assert_allclose(p.grad, c + d @ w.data.T + e - 1.0, **tol)
        np.testing.assert_allclose(q.grad, c + 1.0, **tol)
        np.testing.assert_allclose(r.grad, c.sum(axis=0), **tol)
        np.testing.assert_allclose(w.grad, p.data.T @ d, **tol)
        grads = [p.grad, q.grad, r.grad, w.grad]
        assert all(g.dtype == dtype for g in grads)
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_relu_rule_keeps_no_mask_and_matches_the_input_mask(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -1.5, 2.0, tiny, -tiny], dtype)
        g = np.array([3.0, -2.0, 1.0, 4.0, np.inf, np.nan, -0.5, 7.0, -1.0], dtype)
        t = Tensor(x, requires_grad=True)
        with np.errstate(invalid="ignore"):    # inf * 0 is NaN on both sides
            out = T.relu(t)
            assert out.data.tobytes() == (x * (x > 0)).tobytes()
            saved = [c.cell_contents for c in out._backward.__closure__
                     if isinstance(c.cell_contents, np.ndarray)]
            assert len(saved) == 1 and saved[0] is out.data
            out._backward(g)
            assert t.grad.dtype == dtype and t.grad.tobytes() == (g * (x > 0)).tobytes()

    def test_backward_calls_the_rule_set_on_a_result(self):
        # bench/tracer.py times each rule by setting a wrapper as the op
        # result's _backward; the walk calls the rule held when it gets there
        x = Tensor(np.array([-1.0, 2.0, 3.0]), requires_grad=True)
        y = T.relu(x)
        loss = T.tsum(y * 2.0)
        rule, seen = y._backward, []

        def wrapper(g):
            seen.append(g.copy())
            rule(g)

        y._backward = wrapper
        assert y._backward is wrapper
        backward(loss)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], np.full(3, 2.0))
        np.testing.assert_array_equal(x.grad, [0.0, 2.0, 2.0])

    def test_second_backward_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = T.tsum(T.relu(x) * 2.0)
        backward(loss)
        with pytest.raises(RuntimeError, match="consumed by an earlier backward.*forward again"):
            backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_new_op_on_a_spent_tensor_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.relu(x)
        backward(T.tsum(y))
        assert y._parents == () and y.grad is None
        with pytest.raises(RuntimeError, match="consumed by an earlier backward"):
            backward(T.tsum(y * 3.0))
        np.testing.assert_array_equal(x.grad, np.ones(3))


class TestMiscOps:
    def test_amax_first_index_ties(self):
        x = Tensor(np.array([[1.0, 5.0], [5.0, 0.0]]), requires_grad=True)
        out = T.amax(x, axis=0)
        np.testing.assert_array_equal(out.data, [5.0, 5.0])
        backward(T.tsum(out))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("axis", [0, 1, -1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_amax_with_ties_matches_loop_oracle(self, axis, dtype):
        rng = np.random.default_rng(27)
        # ReLU zeros and a half-unit grid tie maxima along every axis
        x = np.maximum(np.round(rng.normal(size=(3, 4, 5)) * 2) / 2, 0.0).astype(dtype)
        assert ((x == x.max(axis=axis, keepdims=True)).sum(axis=axis) > 1).any()
        g = rng.normal(size=np.delete(x.shape, axis)).astype(dtype)
        out_want, grad_want = amax_loops(x, g, axis)
        xt = Tensor(x, requires_grad=True)
        out = T.amax(xt, axis)
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, out_want)
        backward(T.tsum(out * Tensor(g)))
        assert xt.grad.dtype == dtype
        np.testing.assert_array_equal(xt.grad, grad_want)

    def test_amax_gradient_fd(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
        mix = Tensor(rng.normal(size=(3, 5)))
        fd_check(lambda: T.tsum(T.amax(x, axis=0) * mix), [x], tol=1e-6)

    def test_logsumexp_matches_direct(self):
        rng = np.random.default_rng(21)
        x = rng.normal(scale=30, size=(4, 5))
        got = T.logsumexp(Tensor(x), axis=0).data
        np.testing.assert_allclose(got, np.log(np.exp(x).sum(axis=0)), atol=1e-9)

    def test_logsumexp_gradient_fd(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        mix = Tensor(rng.normal(size=4))
        fd_check(lambda: T.tsum(T.logsumexp(x, axis=0) * mix), [x], tol=1e-6)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3, 6))
        np.testing.assert_allclose(T.log_softmax(Tensor(x)).data,
                                   np.log(T.softmax(Tensor(x)).data), atol=1e-12)

    def test_log_softmax_gradient_fd(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        mix = Tensor(rng.normal(size=(3, 6)))
        fd_check(lambda: T.tsum(T.log_softmax(x) * mix), [x], tol=1e-6)

    def test_nll_from_log_probs(self):
        lp = Tensor(np.log(np.full((2, 4), 0.25)), requires_grad=True)
        loss = T.nll_from_log_probs(lp, [0, 3])
        assert abs(loss.item() - np.log(4.0)) <= 1e-12
        backward(loss)
        expected = np.zeros((2, 4))
        expected[0, 0] = expected[1, 3] = -0.5
        np.testing.assert_array_equal(lp.grad, expected)

    def test_index_and_concat_gradients(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        mix = Tensor(rng.normal(size=(3, 6)))
        fd_check(lambda: T.tsum(T.concat([T.index(x, slice(1, 4)), T.index(y, slice(3))],
                                         axis=1) * mix), [x, y], tol=1e-6)

    def test_permute_reshape_roundtrip_gradient(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        mix = Tensor(rng.normal(size=(4, 6)))
        fd_check(lambda: T.tsum(T.reshape(T.permute(x, (2, 0, 1)), (4, 6)) * mix),
                 [x], tol=1e-6)

    def test_mean_gradient(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        backward(T.index(T.tmean(x, axis=0), 0) * 3.0)
        expected = np.zeros((3, 4))
        expected[:, 0] = 1.0
        np.testing.assert_array_equal(x.grad, expected)


class TestGradcheck:
    def test_parameter_without_gradient_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="parameter w has no gradient"):
            check_parameter_gradients(lambda: T.tsum(w).data, {"w": w})


class TestDeterminismAndFiniteness:
    def test_identical_seeds_identical_results(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
            w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
            h = T.relu(T.matmul(x, w))
            h = T.dropout(h, 0.5, True, rng)
            loss = T.cross_entropy(T.matmul(h, w), [0, 1, 2, 3])
            backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, g1, gw1 = run()
        l2, g2, gw2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(gw1, gw2)

    def test_composed_forward_stays_finite(self):
        rng = np.random.default_rng(100)
        x = Tensor(rng.normal(scale=100, size=(2, 3, 16, 16)))
        w = Tensor(rng.normal(scale=10, size=(4, 3, 3, 3)))
        g = Tensor(np.ones(8)); b = Tensor(np.zeros(8))
        h = T.maxpool2d(T.relu(T.conv2d(x, w, Tensor(rng.normal(size=4)))))
        h = T.reshape(h, (2, 4 * 16, 8))
        h = T.layer_norm(h, g, b)
        out = T.softmax(h)
        assert np.all(np.isfinite(out.data))
