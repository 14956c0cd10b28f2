"""Finite-difference gradient check of a small segment-consensus model.

Builds a toy two-segment model on the feed-forward encoder, runs one
backward pass, and verifies a sampled subset of every parameter's gradient
against central differences.

Run:  python3 demos/gradient_check.py
"""

import numpy as np

from tssan.data import frame_differences
from tssan.gradcheck import check_parameter_gradients
from tssan.models import ModelConfig
from tssan.segments import TsnConfig, ts_loss
from tssan.tensor import backward
from tssan.training import build_ts_model

config = ModelConfig(variant="v2", encoder="ff", num_labels=4, joints=4,
                     coords=3, persons=2, frames=8, san_layers=2, san_heads=2,
                     ff_coord_width=2)
model = build_ts_model(config, TsnConfig(segments=2, frames_per_segment=8,
                                         eval_crop=1.0), seed=3)
model.eval()  # deterministic loss surface for the numeric sweep

rng = np.random.default_rng(0)
# The final frame's motion is all zeros, so zero-initialised biases put ReLU
# inputs exactly on the kink, where a central difference straddles it.
for name, p in model.named_parameters():
    if name.endswith(".b"):
        p.data += 0.05 * rng.normal(size=p.data.shape)
positions = rng.normal(size=(16, 2, 4, 3))
motions = frame_differences(positions)
labels = [2]


def loss_value():
    return ts_loss(model.forward(positions, motions), labels).data


backward(ts_loss(model.forward(positions, motions), labels))
params = dict(model.named_parameters())
print(f"checking {sum(p.data.size for p in params.values())} parameters "
      f"across {len(params)} tensors (sampled)")
errors = check_parameter_gradients(loss_value, params, sample=12,
                                   sample_seed=1, floor=1e-6)
worst = max(errors, key=errors.get)
for name in sorted(errors, key=errors.get, reverse=True)[:5]:
    print(f"  {name:45s} max relative error {errors[name]:.3e}")
print(f"\nworst tensor: {worst} at {errors[worst]:.3e} "
      f"({'OK' if errors[worst] <= 1e-4 else 'TOO LARGE'})")
