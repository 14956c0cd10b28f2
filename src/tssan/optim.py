"""Adam's update rule.

Settings and running state are plain attributes.  The learning rate is
read on every step, so ``training.run_training`` cuts it in place when
validation top-1 stalls; which attributes a run checkpoint stores is
decided in ``training.save_training_checkpoint`` alone.

``master`` holds each parameter's float64 array, adopted without a copy.
Once the model computes on float32 copies (``nn.Module.narrow``), a step
also writes ``float32(master)`` into ``p.data``.  Gradients arrive in the
dtype they were computed in, float32 under float32 input.  A step runs over
contiguous blocks of ``_ADAM_BLOCK`` values per parameter, so each block's
weights, moments, gradient and two reused float64 scratch blocks stay in
cache, rather than streaming whole arrays through memory once per pass.
Each gradient block is upcast to float64 before any arithmetic: under
numpy's promotion rules ``(1 - BETA1) * g`` on a float32 ``g`` would
otherwise compute in float32.  The order of operations is that of the
whole-array formula, so the result is the same to the bit.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

# the conventional Adam constants (Kingma & Ba, arXiv 1412.6980)
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8

# values per block of a step: the block's weights, moments and gradient and
# the two float64 scratch blocks (256 KB each in float64) stay in L2
_ADAM_BLOCK = 32768


class Adam:
    """Adam with bias correction; weight decay enters as an added grad term.
    Masters and moment arrays ``m`` and ``v`` are keyed by parameter name."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.master = {name: p.data.astype(np.float64, copy=False)
                       for name, p in self.params.items()}
        self.m = {name: np.zeros_like(w) for name, w in self.master.items()}
        self.v = {name: np.zeros_like(w) for name, w in self.master.items()}

    def step(self):
        """One update of every parameter, per value::

            g = grad + weight_decay * master
            m = m * BETA1 + (1 - BETA1) * g
            v = v * BETA2 + (1 - BETA2) * (g * g)
            master -= lr * (m / bc1) / (sqrt(v / bc2) + EPS)
            p = float32(master)    # only where p is not the master

        Every gradient is checked before anything is written: a missing one
        raises ValueError with no weight, moment or step count changed.
        """
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"adam step with missing gradient for {name}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        g_block = np.empty(_ADAM_BLOCK)
        scratch = np.empty(_ADAM_BLOCK)
        for name, p in self.params.items():
            # in-place views of the master, its compute copy and the moments;
            # a layout that would need a copy raises rather than updating it
            w = self.master[name].reshape(-1, copy=False)
            compute = None if p.data is self.master[name] else p.data.reshape(-1, copy=False)
            m = self.m[name].reshape(-1, copy=False)
            v = self.v[name].reshape(-1, copy=False)
            grad = p.grad.reshape(-1)
            for start in range(0, w.size, _ADAM_BLOCK):
                block = slice(start, start + _ADAM_BLOCK)
                wb, mb, vb = w[block], m[block], v[block]
                g, tmp = g_block[:wb.size], scratch[:wb.size]
                g[...] = grad[block]
                if self.weight_decay:
                    np.multiply(wb, self.weight_decay, out=tmp)
                    g += tmp
                mb *= BETA1
                np.multiply(g, 1.0 - BETA1, out=tmp)
                mb += tmp
                vb *= BETA2
                np.multiply(g, g, out=tmp)
                tmp *= 1.0 - BETA2
                vb += tmp
                np.divide(vb, bc2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += EPS
                np.divide(mb, bc1, out=g)
                g *= self.lr
                g /= tmp
                wb -= g
                if compute is not None:
                    compute[block] = wb

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()
