"""Raw-coordinate encoders producing per-frame feature sequences.

Both encoders map a (B, F, J, C) block of joint coordinates to (B, F, H)
features with the frame count untouched, so downstream attention sees one
feature vector per frame.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .nn import Conv2d, Dropout, Linear, Module
from .tensor import Tensor


class FeedForwardEncoder(Module):
    """Per-joint affine lift C -> C' with a rectifier, flattened per frame."""

    def __init__(self, coords_in: int, coords_out: int, rng: np.random.Generator):
        super().__init__()
        self.coords_in = coords_in
        self.proj = Linear(coords_in, coords_out, rng)

    def __call__(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        if x.shape[-1] != self.coords_in:
            raise T.ShapeError(f"encoder expects {self.coords_in} coordinates, "
                               f"got input shape {x.shape}")
        lifted = T.relu(self.proj(x))                      # (B, F, J, C')
        b, f, j, cp = lifted.shape
        return T.reshape(lifted, (b, f, j * cp))


class CnnEncoder(Module):
    """Four-layer convolutional encoder, fixed 512-wide output per frame.

    Layer chain for input (F, J, C): 1x1 conv C->64, 3x1 conv (frame axis)
    64->32, then the joint axis is moved to channels so the last two 3x3
    convs mix all joints; each of those is followed by a (1, 2) max-pool,
    taking the non-frame width 32 -> 16 -> 8.  Flattening 8 x 64 per frame
    yields width 512 regardless of J and C.
    """

    OUTPUT_WIDTH = 8 * 64

    def __init__(self, coords_in: int, joints_in: int, rng: np.random.Generator,
                 dropout: float):
        super().__init__()
        self.coords_in = coords_in
        self.joints_in = joints_in
        self.conv1 = Conv2d(coords_in, 64, (1, 1), rng)
        self.conv2 = Conv2d(64, 32, (3, 1), rng)
        self.conv3 = Conv2d(joints_in, 32, (3, 3), rng)
        self.conv4 = Conv2d(32, 64, (3, 3), rng)
        self.drop = Dropout(dropout)

    def __call__(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        b, f, j, c = x.shape
        if c != self.coords_in or j != self.joints_in:
            raise T.ShapeError(f"encoder built for (J={self.joints_in}, C={self.coords_in}), "
                               f"got input shape {x.shape}")
        h = T.permute(x, (0, 3, 1, 2))                     # (B, C, F, J)
        h = T.relu(self.conv1(h))                          # (B, 64, F, J)
        h = T.relu(self.conv2(h))                          # (B, 32, F, J)
        h = T.permute(h, (0, 3, 2, 1))                     # joints become channels
        h = T.maxpool2d(T.relu(self.conv3(h)))             # (B, 32, F, 16)
        h = T.maxpool2d(T.relu(self.conv4(h)))             # (B, 64, F, 8)
        h = T.permute(h, (0, 2, 3, 1))                     # (B, F, 8, 64)
        h = T.reshape(h, (b, f, self.OUTPUT_WIDTH))
        return self.drop(h, rng)

