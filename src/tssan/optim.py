"""Adam optimizer and the halve-on-plateau learning-rate schedule.

Settings and running state are plain attributes; which of them a run
checkpoint stores is decided in ``training.save_training_checkpoint`` alone.
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


class PlateauScheduler:
    """Halve the learning rate after ``patience`` epochs without improvement.

    Improvement means a strictly higher metric than the best seen so far.
    The stagnation counter resets both on improvement and after a cut.
    """

    def __init__(self, lr: float, patience: int = 5, factor: float = 0.5):
        if not 0.0 < factor < 1.0:
            raise ValueError(f"factor must lie in (0, 1), got {factor}")
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.best = -np.inf
        self.bad_epochs = 0

    def step(self, metric: float) -> float:
        """Record one epoch's validation metric; returns the lr to use next."""
        if metric > self.best:
            self.best = metric
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr *= self.factor
                self.bad_epochs = 0
        return self.lr
