"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records its inputs and a backward rule on the produced
tensor, so the computation graph doubles as the gradient tape.  Calling
:func:`backward` on a scalar walks that graph once in reverse topological
order, accumulating into ``.grad`` exactly once per use of each input.

Only the operations the models need are provided; shapes follow numpy
broadcasting where noted and raise :class:`ShapeError` otherwise.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure numpy forward)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A float64 array plus an optional gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, scalar):
        return mul(self, 1.0 / float(scalar))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray):
    # First write copies: backward rules may hand the same array to two
    # parents, and in-place accumulation must never alias another grad.
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _node(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor):
    """Populate ``.grad`` on every requires_grad tensor reachable from loss.

    Multiple uses of a tensor accumulate by sum.  The loss must be scalar.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
        if node._parents:
            # interior nodes: fully consumed once their rule has fired;
            # dropping their grads bounds peak memory on deep graphs
            node.grad = None


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), bwd)


def mul(a, b) -> Tensor:
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        s = float(b)

        def bwd_scalar(g):
            _accumulate(a, g * s)

        return _node(a.data * s, (a,), bwd_scalar)
    if isinstance(a, (int, float)):
        return mul(b, a)

    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bwd)


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.exp(x.data)

    def bwd(g):
        _accumulate(x, g * out_data)

    return _node(out_data, (x,), bwd)


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        _accumulate(x, g / x.data)

    return _node(np.log(x.data), (x,), bwd)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def bwd(g):
        _accumulate(x, g * mask)

    return _node(x.data * mask, (x,), bwd)


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    old = x.data.shape

    def bwd(g):
        _accumulate(x, g.reshape(old))

    return _node(x.data.reshape(shape), (x,), bwd)


def permute(x: Tensor, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        _accumulate(x, g.transpose(inverse))

    return _node(x.data.transpose(axes), (x,), bwd)


def index(x: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing; the backward scatters into zeros."""
    x = as_tensor(x)

    def bwd(g):
        full = np.zeros_like(x.data)
        full[key] = g
        _accumulate(x, full)

    return _node(x.data[key], (x,), bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + size)
            if t.requires_grad:
                _accumulate(t, g[tuple(sl)])
            offset += size

    return _node(out_data, tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# reductions

def _normalize_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def tsum(x: Tensor, axis=None) -> Tensor:
    x = as_tensor(x)
    axes = _normalize_axis(axis, x.data.ndim)

    def bwd(g):
        _accumulate(x, np.broadcast_to(np.expand_dims(g, axes), x.data.shape))

    return _node(x.data.sum(axis=axes), (x,), bwd)


def tmean(x: Tensor, axis=None) -> Tensor:
    x = as_tensor(x)
    axes = _normalize_axis(axis, x.data.ndim)
    count = int(np.prod([x.data.shape[a] for a in axes]))

    def bwd(g):
        _accumulate(x, np.broadcast_to(np.expand_dims(g, axes), x.data.shape) / count)

    return _node(x.data.mean(axis=axes), (x,), bwd)


def amax(x: Tensor, axis: int) -> Tensor:
    """Maximum along one axis; gradient routes to the first argmax."""
    x = as_tensor(x)
    axis = axis % x.data.ndim
    idx = np.expand_dims(np.argmax(x.data, axis=axis), axis)
    out_data = np.take_along_axis(x.data, idx, axis=axis).squeeze(axis)

    def bwd(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, idx, np.expand_dims(g, axis), axis=axis)
        _accumulate(x, full)

    return _node(out_data, (x,), bwd)


def logsumexp(x: Tensor, axis: int) -> Tensor:
    x = as_tensor(x)
    axis = axis % x.data.ndim
    m = np.max(x.data, axis=axis, keepdims=True)
    shifted = np.exp(x.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(np.log(total) + m, axis=axis)

    def bwd(g):
        _accumulate(x, np.expand_dims(g, axis) * shifted / total)

    return _node(out_data, (x,), bwd)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs 2-D+ operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.data.shape} x {b.data.shape}")

    if a.data.ndim > 2 and b.data.ndim == 2:
        # stacked input times one weight matrix: flatten the stack so the
        # forward and both backward products are single GEMMs instead of a
        # per-slice loop plus a huge broadcast reduction
        lead = a.data.shape[:-1]
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out_data = (a2 @ b.data).reshape(lead + (b.data.shape[-1],))

        def bwd_flat(g):
            g2 = g.reshape(-1, b.data.shape[-1])
            if a.requires_grad:
                _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accumulate(b, a2.T @ g2)

        return _node(out_data, (a, b), bwd_flat)

    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(out_data, (a, b), bwd)


# ---------------------------------------------------------------------------
# softmax family

def softmax(x: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, max-shifted for stability."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        _accumulate(x, s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return _node(s, (x,), bwd)


def log_softmax(x: Tensor) -> Tensor:
    x = as_tensor(x)
    m = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse

    def bwd(g):
        _accumulate(x, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))

    return _node(out_data, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    dim = x.data.shape[-1]
    if dim < 2:
        raise ShapeError(f"layer_norm needs a feature axis of length >= 2, got {dim}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xh = xc * inv

    def bwd(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * xh).reshape(-1, dim).sum(axis=0))
        if beta.requires_grad:
            _accumulate(beta, g.reshape(-1, dim).sum(axis=0))
        if x.requires_grad:
            gh = g * gamma.data
            _accumulate(x, inv * (gh - gh.mean(axis=-1, keepdims=True)
                                  - xh * (gh * xh).mean(axis=-1, keepdims=True)))

    return _node(gamma.data * xh + beta.data, (x, gamma, beta), bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.data.shape[0]:
        raise ShapeError(f"cross_entropy expects (B, L) logits and (B,) labels, "
                         f"got {logits.data.shape} and {labels.shape}")
    n, num_labels = logits.data.shape
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= num_labels:
        raise IndexError(f"labels must lie in [0, {num_labels}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    m = logits.data.max(axis=-1, keepdims=True)
    shifted = logits.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(n), labels]
    out_data = np.mean(lse - picked)

    def bwd(g):
        probs = np.exp(shifted - lse[:, None])
        probs[np.arange(n), labels] -= 1.0
        _accumulate(logits, probs * (float(g) / n))

    return _node(out_data, (logits,), bwd)


def nll_from_log_probs(log_probs: Tensor, labels) -> Tensor:
    """Mean negative picked log-probability; used on fused consensus outputs."""
    log_probs = as_tensor(log_probs)
    labels = np.asarray(labels, dtype=np.int64)
    n, num_labels = log_probs.data.shape
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= num_labels:
        raise IndexError(f"labels must lie in [0, {num_labels})")
    out_data = -np.mean(log_probs.data[np.arange(n), labels])

    def bwd(g):
        full = np.zeros_like(log_probs.data)
        full[np.arange(n), labels] = -float(g) / n
        _accumulate(log_probs, full)

    return _node(out_data, (log_probs,), bwd)


# ---------------------------------------------------------------------------
# regularization

def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Identity in eval mode, so inference needs no rescaling.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    x = as_tensor(x)
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an explicit rng")
    scale = 1.0 / (1.0 - rate)
    mask = (rng.random(x.data.shape) >= rate) * scale

    def bwd(g):
        _accumulate(x, g * mask)

    return _node(x.data * mask, (x,), bwd)


# ---------------------------------------------------------------------------
# convolution and pooling

def conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Same-padded stride-1 cross-correlation.

    ``x``: (..., Cin, H, W); ``w``: (Cout, Cin, kh, kw) with odd kernel
    extents so the zero padding is symmetric.  Spatial extents are kept.
    """
    x, w = as_tensor(x), as_tensor(w)
    if w.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-D (Cout, Cin, kh, kw), got {w.data.shape}")
    cout, cin, kh, kw = w.data.shape
    if x.data.ndim < 3 or x.data.shape[-3] != cin:
        raise ShapeError(f"conv2d channel mismatch: input {x.data.shape} vs weight {w.data.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d kernel extents must be odd, got {(kh, kw)}")

    lead = x.data.shape[:-3]
    h, width = x.data.shape[-2:]
    xb = x.data.reshape((-1, cin, h, width))
    b = xb.shape[0]
    ph, pw = kh // 2, kw // 2
    padded = np.pad(xb, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    # im2col: one GEMM per conv, rows are output positions.
    win = sliding_window_view(padded, (kh, kw), axis=(2, 3))     # (b, cin, h, w, kh, kw)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * h * width, cin * kh * kw)
    w2 = w.data.reshape(cout, cin * kh * kw)
    out = (cols @ w2.T).reshape(b, h, width, cout).transpose(0, 3, 1, 2)

    def bwd(g):
        g2 = g.reshape(b, cout, h, width).transpose(0, 2, 3, 1).reshape(b * h * width, cout)
        if w.requires_grad:
            _accumulate(w, (g2.T @ cols).reshape(w.data.shape))
        if x.requires_grad:
            dcols = (g2 @ w2).reshape(b, h, width, cin, kh, kw).transpose(0, 3, 1, 2, 4, 5)
            gpad = np.zeros_like(padded)
            for u in range(kh):
                for v in range(kw):
                    gpad[:, :, u:u + h, v:v + width] += dcols[:, :, :, :, u, v]
            _accumulate(x, gpad[:, :, ph:ph + h, pw:pw + width].reshape(x.data.shape))

    return _node(out.reshape(lead + (cout, h, width)), (x, w), bwd)


def maxpool2d(x: Tensor, window: tuple[int, int] = (1, 2)) -> Tensor:
    """Max pooling with a (1, k) window along the last axis, stride k.

    Gradient routes to the first position of the window maximum.
    """
    x = as_tensor(x)
    if window[0] != 1:
        raise ShapeError(f"maxpool2d supports (1, k) windows only, got {window}")
    k = window[1]
    width = x.data.shape[-1]
    if width % k != 0:
        raise ShapeError(f"maxpool2d width {width} not divisible by window {k}")
    grouped = x.data.reshape(x.data.shape[:-1] + (width // k, k))
    idx = np.expand_dims(np.argmax(grouped, axis=-1), -1)
    out_data = np.take_along_axis(grouped, idx, axis=-1).squeeze(-1)

    def bwd(g):
        full = np.zeros_like(grouped)
        np.put_along_axis(full, idx, np.expand_dims(g, -1), axis=-1)
        _accumulate(x, full.reshape(x.data.shape))

    return _node(out_data, (x,), bwd)
