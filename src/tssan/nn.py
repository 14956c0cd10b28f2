"""Minimal parameter-holding modules over the tensor core."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Base class: tracks child modules / parameters and a training flag.

    Parameters are discovered by walking instance attributes in insertion
    order, so construction order fixes the (deterministic) parameter order.
    """

    def __init__(self):
        self.training = True

    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield key, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{key}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{key}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{key}.{i}", item

    def train(self, mode: bool = True):
        self.training = mode
        for value in vars(self).values():
            if isinstance(value, Module):
                value.train(mode)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item.train(mode)
        return self

    def eval(self):
        return self.train(False)


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


class Linear(Module):
    """Affine map over the last axis: y = x @ w + b."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.w = glorot_uniform(rng, (in_dim, out_dim), in_dim, out_dim)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.w) + self.b

    __call__ = forward


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

    def forward(self, x: Tensor) -> Tensor:
        out = T.conv2d(x, self.w)
        return out + T.reshape(self.b, (-1, 1, 1))

    __call__ = forward


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)

    __call__ = forward


class Dropout(Module):
    def __init__(self, rate: float):
        super().__init__()
        self.rate = rate

    def forward(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return T.dropout(x, self.rate, self.training, rng)

    __call__ = forward
