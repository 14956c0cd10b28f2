"""Stacked multi-head self-attention over frame sequences.

A block is: learned position embedding, N post-norm self-attention layers,
concatenation of all layer outputs along the feature axis, a global average
over frames, and a rectified linear projection back to the model width.
Every layer's per-head attention probabilities are kept for export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import Dropout, LayerNorm, Linear, Module
from .tensor import Tensor


@dataclass
class SanConfig:
    """Width H must divide evenly over the heads (d_k = d_v = H / heads)."""

    layers: int
    heads: int
    width: int
    max_frames: int
    ff_width: int = 0       # 0 selects the default 2 * width
    dropout: float = 0.2

    def __post_init__(self):
        if min(self.layers, self.heads, self.width, self.max_frames) < 1:
            raise ValueError(f"all attention extents must be positive: {self}")
        if self.width % self.heads != 0:
            raise ValueError(f"width {self.width} not divisible by {self.heads} heads")
        if self.ff_width < 0:
            raise ValueError(f"ff_width must be >= 0, got {self.ff_width}")
        self.ff_width = self.ff_width or 2 * self.width


class AttentionTrace:
    """Row-stochastic attention probabilities, one (heads, F, F) matrix set
    per layer per batch entry; rows are query frames."""

    def __init__(self, stacked: np.ndarray):
        self.stacked = stacked  # (layers, B, heads, F, F)

    def batch_slice(self, start: int, stop: int) -> "AttentionTrace":
        return AttentionTrace(self.stacked[:, start:stop])


def position_embed(x: Tensor, table: Tensor) -> Tensor:
    """Add row f of the learned position table to frame f, of as many frames."""
    frames = x.shape[-2]
    if frames != table.shape[0]:
        raise ValueError(f"sequence of {frames} frames does not match the position "
                         f"table length {table.shape[0]}")
    return x + table


class MultiHeadAttention(Module):
    """Scaled dot-product attention with h parallel heads.

    Returns the reprojected output and the per-head probability matrices
    (detached) for tracing.
    """

    def __init__(self, width: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.heads = heads
        self.head_dim = width // heads
        self.wq = Linear(width, width, rng)
        self.wk = Linear(width, width, rng)
        self.wv = Linear(width, width, rng)
        self.wo = Linear(width, width, rng)

    def __call__(self, y: Tensor) -> tuple[Tensor, np.ndarray]:
        b, f, width = y.shape

        def split_heads(t: Tensor) -> Tensor:
            return T.permute(T.reshape(t, (b, f, self.heads, self.head_dim)), (0, 2, 1, 3))

        q = split_heads(self.wq(y))
        k = split_heads(self.wk(y))
        v = split_heads(self.wv(y))
        scores = T.matmul(q, T.permute(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(self.head_dim))
        probs = T.softmax(scores)                          # (B, heads, F, F)
        ctx = T.matmul(probs, v)
        ctx = T.reshape(T.permute(ctx, (0, 2, 1, 3)), (b, f, width))
        return self.wo(ctx), probs.data


class SanLayer(Module):
    """Post-norm attention layer: attend, add & normalize, feed-forward,
    add & normalize.  Dropout sits on each sublayer output before the
    residual addition."""

    def __init__(self, config: SanConfig, rng: np.random.Generator):
        super().__init__()
        self.attn = MultiHeadAttention(config.width, config.heads, rng)
        self.norm1 = LayerNorm(config.width)
        self.norm2 = LayerNorm(config.width)
        self.ff1 = Linear(config.width, config.ff_width, rng)
        self.ff2 = Linear(config.ff_width, config.width, rng)
        self.drop = Dropout(config.dropout)

    def __call__(self, y: Tensor, rng: np.random.Generator | None = None
                 ) -> tuple[Tensor, np.ndarray]:
        attended, probs = self.attn(y)
        a = self.norm1(y + self.drop(attended, rng))
        ffn = self.ff2(T.relu(self.ff1(a)))
        return self.norm2(a + self.drop(ffn, rng)), probs


class SanBlock(Module):
    """Position embedding, N attention layers, all-layer concat, frame
    average, and a rectified projection back to width H."""

    def __init__(self, config: SanConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.pos_table = Tensor(rng.normal(0.0, 0.02, size=(config.max_frames, config.width)),
                                requires_grad=True)
        self.layers = [SanLayer(config, rng) for _ in range(config.layers)]
        self.proj = Linear(config.width * config.layers, config.width, rng)

    def __call__(self, x: Tensor, rng: np.random.Generator | None = None
                 ) -> tuple[Tensor, AttentionTrace]:
        z = position_embed(x, self.pos_table)
        outputs = []
        probs = []
        for layer in self.layers:
            z, p = layer(z, rng)
            outputs.append(z)
            probs.append(p)
        c = T.concat(outputs, axis=-1)                     # (B, F, H * N)
        pooled = T.tmean(c, axis=1)                        # average over frames
        return T.relu(self.proj(pooled)), AttentionTrace(np.stack(probs))
