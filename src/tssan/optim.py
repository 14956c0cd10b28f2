"""Adam's update rule.

Settings and running state are plain attributes.  The learning rate is
read on every step, so ``training.run_training`` cuts it in place when
validation top-1 stalls; which attributes a run checkpoint stores is
decided in ``training.save_training_checkpoint`` alone.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

# the conventional Adam constants (Kingma & Ba, arXiv 1412.6980)
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction; weight decay enters as an added grad term.
    Moment arrays ``m`` and ``v`` are keyed by parameter name."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"adam step with missing gradient for {name}")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

