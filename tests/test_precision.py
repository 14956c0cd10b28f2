"""Mixed precision: float32 activations, weights and gradients, with the
float64 masters in ``Adam``.

The compute dtype follows the model input: ``prepare_samples`` hands the
network float32 clips, and the ops that take parameters compute in the
narrowest dtype among their operands.  A model is built in float64;
``evaluate`` and ``run_training`` narrow it to float32 copies
(``Module.narrow``) once ``Adam`` has adopted the float64 arrays as its
masters.  Each parameter keeps the float32 gradient it was computed in
as its ``.grad``; ``Adam`` upcasts it block by block to update the
float64 master and moments, then writes the master back as float32.  A
model that is never narrowed casts its float64 weights as they enter and
computes the same bits.  Float64 input runs the float64 graph.
"""

import hashlib

import numpy as np
import pytest

from tssan import tensor as T
from tssan.models import ModelConfig, build_variant
from tssan.nn import Module
from tssan.optim import Adam
from tssan.segments import TsnConfig, TsSan, ts_loss
from tssan.training import PreparedSample, evaluate, topk_hits


def _model(variant, encoder, consensus="avg"):
    config = ModelConfig(variant=variant, encoder=encoder, num_labels=5, joints=4,
                         coords=3, persons=2, frames=4, san_layers=1, san_heads=2,
                         san_ff_width=16, ff_coord_width=4, v3_inference="mean")
    return TsSan(build_variant(config, np.random.default_rng(1)),
                 TsnConfig(segments=2, frames_per_segment=4, consensus=consensus))


def _clips(dtype, seed=0, lengths=(8, 11, 9)):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(f, 2, 4, 3)).astype(dtype),
             rng.normal(size=(f, 2, 4, 3)).astype(dtype)) for f in lengths]


def _graph(*roots):
    """Every vertex reachable from ``roots`` through the recorded parents,
    the leaves that need a gradient included."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _describe(node):
    return node.shape if isinstance(node, T.Tensor) else node._backward.__qualname__


@pytest.mark.parametrize("variant", ["v1", "v2", "v3"])
@pytest.mark.parametrize("encoder", ["ff", "cnn"])
@pytest.mark.parametrize("consensus", ["avg", "max"])
def test_float32_input_computes_in_float32_over_float64_masters(variant, encoder,
                                                                 consensus, monkeypatch):
    # each vertex holds its op's output dtype; the operands that need no
    # gradient are not vertices, so every tensor an op takes is recorded too
    operands, as_tensor = [], T.as_tensor
    monkeypatch.setattr(T, "as_tensor", lambda x: operands.append(as_tensor(x)) or operands[-1])
    model = _model(variant, encoder, consensus)
    out = model.forward_batch(_clips(np.float32), np.random.default_rng(2))
    loss = ts_loss(out, [1, 3, 0])
    monkeypatch.undo()
    params = dict(model.named_parameters())
    master_ids = {id(p) for p in params.values()}
    nodes = _graph(loss._vertex, out.log_probs._vertex)
    assert sum(not isinstance(node, T.Tensor) for node in nodes) >= 20
    upcast = [(_describe(node), node.dtype) for node in nodes + operands
              if id(node) not in master_ids and node.dtype != np.float32]
    assert upcast == []
    T.backward(loss)
    for name, p in params.items():
        assert p.data.dtype == np.float64, name
        assert p.grad is not None and p.grad.dtype == np.float32, name


def test_float32_agrees_with_float64():
    runs = []
    for dtype in (np.float64, np.float32):
        model = _model("v3", "cnn")
        out = model.forward_batch(_clips(dtype, seed=3), np.random.default_rng(2))
        loss = ts_loss(out, [1, 3, 0])
        assert loss.data.dtype == dtype
        T.backward(loss)
        runs.append((loss.item(), {n: p.grad for n, p in model.named_parameters()}))
    (loss64, grads64), (loss32, grads32) = runs
    assert abs(loss32 - loss64) <= 1e-5 * abs(loss64)
    for name, g64 in grads64.items():
        # atol: the key biases' gradient is zero in exact arithmetic (softmax
        # ignores a per-row shift), so both precisions hold rounding noise
        np.testing.assert_allclose(grads32[name], g64, rtol=1e-3, atol=1e-6, err_msg=name)


@pytest.mark.parametrize("variant", ["v2", "v3"])
def test_float32_probabilities_are_renormalised_float64(variant):
    model = _model(variant, "cnn").eval()
    with T.no_grad():
        out = model.forward_batch(_clips(np.float32, seed=5, lengths=(8, 11, 9, 14, 10)))
    assert out.log_probs.data.dtype == np.float32
    probs = out.probabilities
    assert probs.dtype == np.float64
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12
    order = np.argsort(-probs, axis=1, kind="stable")
    np.testing.assert_array_equal(order, np.argsort(-out.log_probs.data, axis=1,
                                                    kind="stable"))
    labels = np.arange(len(probs)) % probs.shape[1]
    for k in (1, 3):
        assert topk_hits(probs, labels, k) == topk_hits(out.log_probs.data, labels, k)


@pytest.mark.parametrize("variant", ["v1", "v2", "v3"])
@pytest.mark.parametrize("encoder", ["ff", "cnn"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_stored_gradient_is_written_again(variant, encoder, dtype, monkeypatch):
    # every gradient is made read-only the moment it is stored, so a backward
    # rule, a later contribution or the optimizer writing into one raises
    def step():
        model = _model(variant, encoder)
        params = dict(model.named_parameters())
        optimizer = Adam(params, lr=1e-3, weight_decay=1e-4)
        out = model.forward_batch(_clips(dtype), np.random.default_rng(2))
        T.backward(ts_loss(out, [1, 3, 0]))
        grads = {name: p.grad.copy() for name, p in params.items()}
        optimizer.step()
        return grads, {name: p.data for name, p in params.items()}

    want = step()
    real = T._accumulate

    def read_only(t, *args, **kwargs):
        real(t, *args, **kwargs)
        t.grad.setflags(write=False)

    monkeypatch.setattr(T, "_accumulate", read_only)
    got = step()
    for expected, actual in zip(want, got):
        for name, a in expected.items():
            assert a.dtype == actual[name].dtype and a.tobytes() == actual[name].tobytes(), name


def _prepared(seed=0, lengths=(8, 11, 9, 14, 10)):
    labels = np.arange(len(lengths)) % 5
    return [PreparedSample(positions, motions, int(label))
            for (positions, motions), label in zip(_clips(np.float32, seed, lengths), labels)]


@pytest.mark.parametrize("variant", ["v1", "v2", "v3"])
@pytest.mark.parametrize("encoder", ["ff", "cnn"])
def test_evaluate_narrows_and_predicts_as_the_float64_twin(variant, encoder, monkeypatch):
    samples = _prepared(seed=4)

    def run():
        model = _model(variant, encoder)
        probs = []

        def forward_batch(pairs, rng=None):
            out = TsSan.forward_batch(model, pairs, rng)
            probs.append(out.probabilities)
            return out

        model.forward_batch = forward_batch
        accuracy = evaluate(model, samples, batch_size=2)
        digest = hashlib.sha256(np.concatenate(probs).tobytes()).hexdigest()
        return model, accuracy, digest

    narrowed, accuracy, digest = run()
    assert all(p.data.dtype == np.float32 for _, p in narrowed.named_parameters())
    monkeypatch.setattr(Module, "narrow", lambda self: self)
    twin, twin_accuracy, twin_digest = run()
    assert all(p.data.dtype == np.float64 for _, p in twin.named_parameters())
    assert (accuracy, digest) == (twin_accuracy, twin_digest)


@pytest.mark.parametrize("variant", ["v1", "v2", "v3"])
@pytest.mark.parametrize("encoder", ["ff", "cnn"])
def test_adam_on_a_narrowed_model_keeps_the_float64_twins_masters(variant, encoder):
    runs = []
    for narrow in (True, False):
        model = _model(variant, encoder)
        optimizer = Adam(dict(model.named_parameters()), lr=1e-2, weight_decay=1e-3)
        if narrow:
            model.narrow()
        rng = np.random.default_rng(7)
        losses = []
        for step in range(3):
            out = model.forward_batch(_clips(np.float32, seed=step), rng)
            loss = ts_loss(out, [1, 3, 0])
            optimizer.zero_grad()
            T.backward(loss)
            optimizer.step()
            losses.append(loss.item())
        runs.append((model, optimizer, losses))
    (narrowed, adam, losses), (twin, twin_adam, twin_losses) = runs
    assert losses == twin_losses
    for name, p in narrowed.named_parameters():
        master = adam.master[name]
        assert master.dtype == np.float64
        assert master.tobytes() == twin_adam.master[name].tobytes(), name
        assert p.data.dtype == np.float32
        assert p.data.tobytes() == master.astype(np.float32).tobytes(), name
    assert all(p.data is twin_adam.master[name] for name, p in twin.named_parameters())
