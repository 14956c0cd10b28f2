"""Minimal parameter-holding modules over the tensor core.

Parameters are built in float64.  ``optim.Adam`` keeps those arrays as
its masters, and a model that trains or evaluates computes on float32
copies (:meth:`Module.narrow`) that Adam rewrites after each step.  An op
computes in the narrowest dtype among its operands, and a ``.grad`` stays
in the float32 it was computed in.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Base class: tracks child modules / parameters and a training flag.

    Parameters are discovered by walking instance attributes in insertion
    order, so construction order fixes the (deterministic) parameter order.
    Each subclass defines its own ``__call__`` rather than inheriting one:
    the benchmark's tracer (bench/tracer.py) wraps ``vars(cls)["__call__"]``.
    ``TsSan`` is the exception: its one entry is ``forward_batch``.
    """

    def __init__(self):
        self.training = True

    def _children(self, prefix: str = ""):
        """(dotted name, value) per attribute and per list/tuple item."""
        for name, value in vars(self).items():
            if isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    yield f"{prefix}{name}.{i}", item
            else:
                yield f"{prefix}{name}", value

    def named_parameters(self, prefix: str = ""):
        for key, value in self._children(prefix):
            if isinstance(value, Tensor) and value.requires_grad:
                yield key, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{key}.")

    def train(self, mode: bool = True):
        self.training = mode
        for _, value in self._children():
            if isinstance(value, Module):
                value.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def narrow(self):
        """Rebind each parameter's data to a float32 copy; a float32 one is kept."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(np.float32, copy=False)
        return self


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


class Linear(Module):
    """Affine map over the last axis: y = x @ w + b, recorded as one
    ``matmul`` node that adds the bias into the product in place."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.w = glorot_uniform(rng, (in_dim, out_dim), in_dim, out_dim)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.w, self.b)


class Conv2d(Module):
    """Same-padded stride-1 convolution layer with per-channel bias."""

    def __init__(self, in_channels: int, out_channels: int, kernel: tuple[int, int],
                 rng: np.random.Generator):
        super().__init__()
        kh, kw = kernel
        fan_in = in_channels * kh * kw
        fan_out = out_channels * kh * kw
        self.w = glorot_uniform(rng, (out_channels, in_channels, kh, kw), fan_in, fan_out)
        self.b = Tensor(np.zeros(out_channels), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


class Dropout(Module):
    def __init__(self, rate: float):
        super().__init__()
        self.rate = rate

    def __call__(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return T.dropout(x, self.rate, self.training, rng)
