import numpy as np
import pytest

from tssan import tensor as T
from tssan import training
from tssan.models import ModelConfig
from tssan.nn import Conv2d, Dropout, LayerNorm, Linear, Module
from tssan.optim import _ADAM_BLOCK, BETA1, BETA2, EPS, Adam
from tssan.segments import TsnConfig
from tssan.tensor import Tensor, backward
from tssan.training import TrainConfig


class TestAdam:
    def test_zero_grad_zero_decay_leaves_param(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        # hand-evaluated recurrence: m-hat = v-hat = 1 at t=1 for g=1
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        Adam({"p": p}, lr=0.1).step()
        assert abs(p.data[0] - 0.9) <= 1e-7

    def test_identical_params_stay_identical(self):
        rng = np.random.default_rng(0)
        init = rng.normal(size=(3, 3))
        g = rng.normal(size=(3, 3))
        a = Tensor(init.copy(), requires_grad=True); a.grad = g.copy()
        b = Tensor(init.copy(), requires_grad=True); b.grad = g.copy()
        opt = Adam({"a": a, "b": b}, lr=0.01, weight_decay=5e-5)
        for _ in range(5):
            opt.step()
        np.testing.assert_array_equal(a.data, b.data)

    def test_weight_decay_shrinks_params_without_gradient_signal(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01, weight_decay=5e-5)
        prev = abs(p.data[0])
        for _ in range(3):
            p.grad = np.zeros(1)
            opt.step()
            assert abs(p.data[0]) < prev
            prev = abs(p.data[0])

    def test_missing_grad_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError, match="missing gradient"):
            Adam({"p": p}, lr=0.1).step()

    def test_missing_grad_writes_nothing(self):
        # a gradient missing for the last parameter leaves the first one's
        # weights and moments, and the step count, as they were
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        opt = Adam({"a": a, "b": b}, lr=0.01, weight_decay=1e-3)
        a.grad, b.grad = rng.normal(size=(4, 3)), rng.normal(size=5)
        opt.step()
        state = [x.copy() for x in (a.data, b.data, opt.m["a"], opt.v["a"], opt.m["b"],
                                    opt.v["b"])]
        a.grad, b.grad = rng.normal(size=(4, 3)), None
        with pytest.raises(ValueError, match="missing gradient for b"):
            opt.step()
        after = (a.data, b.data, opt.m["a"], opt.v["a"], opt.m["b"], opt.v["b"])
        assert all(x.tobytes() == y.tobytes() for x, y in zip(state, after))
        assert opt.step_count == 1

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-5])
    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    def test_blocked_step_matches_the_whole_array_formula(self, weight_decay, grad_dtype):
        self._check_blocked_step(weight_decay, grad_dtype, narrow=False)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-5])
    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    def test_blocked_step_writes_float32_masters_into_narrowed_parameters(
            self, weight_decay, grad_dtype):
        self._check_blocked_step(weight_decay, grad_dtype, narrow=True)

    @staticmethod
    def _check_blocked_step(weight_decay, grad_dtype, narrow):
        # the whole-array update on float64-upcast gradients is the reference;
        # "big" spans two blocks and a ragged tail, "small" less than a block;
        # a narrowed parameter holds the float32 of the master after each step
        rng = np.random.default_rng(5)
        shapes = {"big": (3, _ADAM_BLOCK * 2 // 3 + 41), "small": (7, 5), "scalar": ()}
        params = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
        ref = {n: p.data.copy() for n, p in params.items()}
        ref_m = {n: np.zeros_like(p) for n, p in ref.items()}
        ref_v = {n: np.zeros_like(p) for n, p in ref.items()}
        lr = 1e-3
        opt = Adam(params, lr=lr, weight_decay=weight_decay)
        if narrow:
            for p in params.values():
                p.data = p.data.astype(np.float32)
        for t in range(1, 5):
            bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
            for name, p in params.items():
                p.grad = np.asarray(rng.normal(size=shapes[name]), dtype=grad_dtype)
                g = p.grad.astype(np.float64)
                if weight_decay:
                    g = g + weight_decay * ref[name]
                ref_m[name] = ref_m[name] * BETA1 + (1.0 - BETA1) * g
                ref_v[name] = ref_v[name] * BETA2 + (1.0 - BETA2) * (g * g)
                ref[name] = ref[name] - lr * (ref_m[name] / bc1) / (
                    np.sqrt(ref_v[name] / bc2) + EPS)
            opt.step()
            for name, p in params.items():
                for got, want in ((opt.master[name], ref[name]), (opt.m[name], ref_m[name]),
                                  (opt.v[name], ref_v[name])):
                    assert got.tobytes() == want.tobytes(), (name, t)
                want = ref[name].astype(np.float32) if narrow else opt.master[name]
                assert p.data.dtype == want.dtype and p.data.tobytes() == want.tobytes()
                assert (p.data is opt.master[name]) is not narrow

    def test_masters_adopt_float64_arrays_and_widen_others(self):
        wide = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        narrow = Tensor(np.array([1.5, 3.0], np.float32), requires_grad=True)
        opt = Adam({"wide": wide, "narrow": narrow}, lr=0.1)
        assert opt.master["wide"] is wide.data
        assert opt.master["narrow"].dtype == np.float64
        np.testing.assert_array_equal(opt.master["narrow"], [1.5, 3.0])
        wide.grad = narrow.grad = np.ones(2, np.float32)
        opt.step()
        assert narrow.data.dtype == np.float32
        assert narrow.data.tobytes() == opt.master["narrow"].astype(np.float32).tobytes()


def _lr_after_each_epoch(tmp_path, monkeypatch, top1s, lr=1e-4):
    """The lr that each epoch of ``run_training`` leaves for the next, when
    validation top-1 follows ``top1s`` (training itself is stubbed out)."""
    scripted = iter(top1s)
    monkeypatch.setattr(training, "train_epoch", lambda *args: 0.0)
    monkeypatch.setattr(training, "evaluate", lambda *args: (next(scripted), 0.0))
    model = ModelConfig(variant="v1", encoder="ff", num_labels=2, joints=1, coords=1,
                        persons=1, frames=2, san_layers=1, san_heads=1, ff_coord_width=1,
                        san_ff_width=2)
    run = training.run_training(model, TsnConfig(segments=1, frames_per_segment=2),
                                TrainConfig(lr=lr, epochs=len(top1s)), [],
                                out_dir=str(tmp_path / "run"))
    return [r.lr for r in run.history[1:]] + [run.optimizer.lr]


class TestPlateauScheduler:
    """The plateau rule of ``run_training``'s epoch loop, at the default
    patience 5 and factor 0.5."""

    def test_improving_history_keeps_lr(self, tmp_path, monkeypatch):
        lrs = _lr_after_each_epoch(tmp_path, monkeypatch, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        assert lrs == [1e-4] * 7

    def test_flat_history_halves_at_epoch_six(self, tmp_path, monkeypatch):
        lrs = _lr_after_each_epoch(tmp_path, monkeypatch, [0.5] * 6)
        assert lrs[:5] == [1e-4] * 5
        assert lrs[5] == 5e-5

    def test_two_stagnation_spans_two_halvings(self, tmp_path, monkeypatch):
        lrs = _lr_after_each_epoch(tmp_path, monkeypatch, [0.5] * 11)
        assert lrs == [1e-4] * 5 + [5e-5] * 5 + [2.5e-5]

    def test_equal_metric_is_not_improvement(self, tmp_path, monkeypatch):
        lrs = _lr_after_each_epoch(tmp_path, monkeypatch, [0.9] * 6, lr=1e-2)
        assert lrs[-1] == 5e-3


class TestModules:
    def test_linear_shapes_and_grads(self):
        rng = np.random.default_rng(2)
        layer = Linear(5, 3, rng)
        out = layer(Tensor(rng.normal(size=(4, 5))))
        assert out.shape == (4, 3)
        backward(T.tsum(out))
        assert layer.w.grad.shape == (5, 3)
        assert layer.b.grad.shape == (3,)

    def test_conv_bias_broadcasts_per_channel(self):
        rng = np.random.default_rng(3)
        layer = Conv2d(2, 4, (3, 3), rng)
        layer.b.data[:] = [1.0, 2.0, 3.0, 4.0]
        layer.w.data[:] = 0.0
        out = layer(Tensor(np.zeros((2, 5, 6))))
        for c in range(4):
            np.testing.assert_array_equal(out.data[c], np.full((5, 6), c + 1.0))

    def test_named_parameters_are_deterministic_and_complete(self):
        rng = np.random.default_rng(4)

        class Block(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(2, 2, rng)
                self.norm = LayerNorm(2)
                self.stack = [Linear(2, 2, rng), Linear(2, 2, rng)]

        names = [n for n, _ in Block().named_parameters()]
        assert names == ["lin.w", "lin.b", "norm.gamma", "norm.beta",
                         "stack.0.w", "stack.0.b", "stack.1.w", "stack.1.b"]

    def test_train_eval_propagates(self):
        rng = np.random.default_rng(5)

        class Net(Module):
            def __init__(self):
                super().__init__()
                self.drop = Dropout(0.5)
                self.inner = [Dropout(0.2)]

        net = Net()
        net.eval()
        assert not net.drop.training and not net.inner[0].training
        x = Tensor(np.ones(10))
        assert net.drop(x, None) is x
        net.train()
        assert net.drop.training
        assert (net.drop(x, np.random.default_rng(0)).data == 0).any()

    def test_narrow_rebinds_float64_parameters_to_float32_copies(self):
        rng = np.random.default_rng(6)

        class Net(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(3, 2, rng)
                self.stack = [LayerNorm(2)]

        net = Net()
        before = {name: p.data for name, p in net.named_parameters()}
        assert net.narrow() is net
        after = {name: p.data for name, p in net.named_parameters()}
        for name, data in after.items():
            assert data.dtype == np.float32 and before[name].dtype == np.float64
            assert data.tobytes() == before[name].astype(np.float32).tobytes(), name
        net.narrow()
        assert all(p.data is after[name] for name, p in net.named_parameters())
