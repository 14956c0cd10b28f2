"""Adam optimizer and the halve-on-plateau learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam with bias correction; weight decay enters as an added grad term.

    Betas (0.9, 0.999) and eps 1e-8 are the conventional defaults.  Moment
    arrays are keyed by parameter name so checkpoints can restore them.
    """

    def __init__(self, params: dict[str, Tensor], lr: float,
                 weight_decay: float = 0.0,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"adam step with missing gradient for {name}")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def state_dict(self) -> dict:
        return {
            "step_count": self.step_count,
            "lr": self.lr,
            "weight_decay": self.weight_decay,
            "betas": [self.beta1, self.beta2],
            "eps": self.eps,
            "m": self.m,
            "v": self.v,
        }

    def load_state_dict(self, state: dict):
        self.step_count = int(state["step_count"])
        self.lr = float(state["lr"])
        self.weight_decay = float(state["weight_decay"])
        self.beta1, self.beta2 = (float(b) for b in state["betas"])
        self.eps = float(state["eps"])
        for name, p in self.params.items():
            self.m[name] = np.array(state["m"][name], dtype=np.float64)
            self.v[name] = np.array(state["v"][name], dtype=np.float64)
            if not self.m[name].shape == self.v[name].shape == p.data.shape:
                raise ValueError(f"moment shapes for {name} differ from {p.data.shape}")


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

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "patience": self.patience,
            "factor": self.factor,
            "best": self.best,
            "bad_epochs": self.bad_epochs,
        }

    def load_state_dict(self, state: dict):
        self.lr = float(state["lr"])
        self.patience = int(state["patience"])
        self.factor = float(state["factor"])
        self.best = float(state["best"])
        self.bad_epochs = int(state["bad_epochs"])
