"""Dense float tensors with reverse-mode automatic differentiation.

The graph is made of vertices, not of tensors.  Every operation whose
operands need a gradient records a vertex: the gradient that reaches it,
its output's dtype, the vertices of those operands and a backward rule.
A leaf that requires grad is its own vertex.  A rule closes over its
operands' vertices, their shapes and the arrays it reads (``relu`` reads
its output, not a mask), never over an operand tensor, so an op's output
lives only as long as its caller or a rule that saved it holds it.
Calling :func:`backward` on a scalar walks the vertices once in reverse
topological order, accumulating exactly once per use of each input; only
leaves get a ``.grad``, and an interior tensor's ``.grad`` is never set.
The walk consumes the graph: after a vertex's rule has fired, the vertex
drops its grad, its parents and the rule, so the arrays the rule saved
are freed during the walk, and a second :func:`backward` through it, or
through a new op on its tensor, raises ``RuntimeError``.
A stored gradient is never written again: a later use replaces ``.grad``
with a new sum.  So ``.grad`` may be a view of, or the same array as,
another tensor's gradient, and callers treat it as read-only.

Layout rule: a rule that allocates a gradient shaped like its input makes
it with ``empty_like`` or ``zeros_like`` of the input's array, which it
keeps only where the array stays alive anyway (``index``'s output views
it, ``_max_of_slices`` holds its slices) or is small (the (B, L) log
probabilities of ``nll_from_log_probs``).  The gradient then has the
input's memory layout, so a later GEMM over it sums in the same order.

Dtype rule: a tensor keeps the dtype of floating input and stores
anything else as float64.  The ops that take parameters (:func:`add`,
:func:`matmul` with its optional bias, :func:`conv2d`, :func:`layer_norm`)
compute in the narrowest floating dtype among their operands; a matmul
bias narrower than both factors narrows the product after the GEMM, as a
separate :func:`add` would.  A model that trains or evaluates holds
float32 copies of its parameters, and ``optim.Adam`` the float64 masters;
a float64 model computes the same bits, cast per op.  A gradient is
stored in the narrower of its own dtype and the tensor's, so a float32
activation never holds a float64 one.  A second use sums in the wider
dtype, stored in the tensor's (no model uses a parameter twice).

Only the operations the models need are provided; shapes follow numpy
broadcasting where noted and raise :class:`ShapeError` otherwise.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np


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


class _Vertex:
    """A recorded op's place in the graph: the gradient that reaches it, its
    output's dtype, the vertices of its inputs that need a gradient, and its
    rule.  It never holds the op's output."""

    __slots__ = ("grad", "dtype", "_parents", "_backward")

    def __init__(self, dtype, parents, rule):
        self.grad = None
        self.dtype = dtype
        self._parents = parents
        self._backward = rule


class Tensor:
    """A float array plus an optional gradient of the same shape, held in
    the same or a narrower floating dtype (see the module's dtype rule).

    Floating input keeps its dtype (float32 activations, float64 masters);
    integer, boolean and Python-scalar input becomes float64.  A leaf that
    requires grad is its own vertex; an op's result points to the vertex
    its op recorded, and its ``_parents`` and ``_backward`` are that
    vertex's (the rule may be replaced, say by a wrapper that times it).
    """

    __slots__ = ("data", "grad", "requires_grad", "_vertex")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._vertex = None

    @property
    def _parents(self):
        return () if self._vertex is None else self._vertex._parents

    @property
    def _backward(self):
        return None if self._vertex is None else self._vertex._backward

    @_backward.setter
    def _backward(self, rule):
        self._vertex._backward = rule

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _target(t: Tensor):
    """The vertex a rule sends ``t``'s gradient to: a leaf itself, an op
    result's vertex, or None when ``t`` needs no gradient or nothing is
    recorded (under :func:`no_grad`)."""
    if not (_GRAD_ENABLED and t.requires_grad):
        return None
    return t if t._vertex is None else t._vertex


def _accumulate(v, g: np.ndarray):
    # the first contribution is kept as it is, narrowed only to v's dtype or
    # made an array from the numpy scalar of a 0-d op; a later one makes a new
    # sum in the wider dtype, stored in v's dtype, never +=
    if v.grad is None:
        g = np.asarray(g)
        v.grad = g if g.dtype.itemsize <= v.dtype.itemsize else g.astype(v.dtype)
    else:
        v.grad = np.asarray(v.grad.astype(v.dtype, copy=False) + g, dtype=v.dtype)


def _node(data, inputs, backward_fn) -> Tensor:
    # inputs are the _target of each operand; the result needs a gradient
    # when any of them is a vertex
    out = Tensor(data)
    parents = tuple(v for v in inputs if v is not None)
    if parents:
        out.requires_grad = True
        out._vertex = _Vertex(out.data.dtype, parents, backward_fn)
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


def _narrowest(*tensors) -> list[np.ndarray]:
    """The tensors' data in their narrowest dtype; arrays already in it are not copied."""
    dtype = min((t.data.dtype for t in tensors), key=lambda d: d.itemsize)
    return [t.data.astype(dtype, copy=False) for t in tensors]


def _spent(g):
    raise RuntimeError("this graph was consumed by an earlier backward, which freed "
                       "its saved arrays; run the forward again")


def backward(loss: Tensor):
    """Populate ``.grad`` on every requires_grad leaf reachable from loss.

    Multiple uses of a tensor accumulate by sum.  The loss must be scalar.
    The graph is consumed: once a vertex's rule has fired, the vertex drops
    its grad, its parents and the rule with the arrays it saved, and a
    later backward through it raises ``RuntimeError``.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    root = loss if loss._vertex is None else loss._vertex
    topo = []
    seen: set[int] = set()
    stack = [(root, False)]
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
            if id(p) not in seen:
                stack.append((p, False))

    root.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            # a vertex is fully consumed once its rule has fired; freeing it
            # as the walk goes bounds peak memory on deep graphs
            node.grad = None
            node._parents = ()
            node._backward = _spent


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = _narrowest(a, b)
    va, vb, a_shape, b_shape = _target(a), _target(b), a.shape, b.shape

    def bwd(g):
        if va is not None:
            _accumulate(va, _unbroadcast(g, a_shape))
        if vb is not None:
            _accumulate(vb, _unbroadcast(g, b_shape))

    return _node(ad + bd, (va, vb), bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    va, vb, a_shape, b_shape = _target(a), _target(b), a.shape, b.shape

    def bwd(g):
        if va is not None:
            _accumulate(va, _unbroadcast(g, a_shape))
        if vb is not None:
            _accumulate(vb, _unbroadcast(-g, b_shape))

    return _node(a.data - b.data, (va, vb), bwd)


def mul(a, b) -> Tensor:
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        s = float(b)
        va = _target(a)

        def bwd_scalar(g):
            _accumulate(va, g * s)

        return _node(a.data * s, (va,), bwd_scalar)

    a, b = as_tensor(a), as_tensor(b)
    ad, bd, va, vb = a.data, b.data, _target(a), _target(b)

    def bwd(g):
        if va is not None:
            _accumulate(va, _unbroadcast(g * bd, ad.shape))
        if vb is not None:
            _accumulate(vb, _unbroadcast(g * ad, bd.shape))

    return _node(ad * bd, (va, vb), bwd)


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data, vx = np.exp(x.data), _target(x)
    return _node(out_data, (vx,), lambda g: _accumulate(vx, g * out_data))


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    xd, vx = x.data, _target(x)
    return _node(np.log(xd), (vx,), lambda g: _accumulate(vx, g / xd))


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = x.data * (x.data > 0)
    vx = _target(x)

    def bwd(g):
        # out > 0 exactly where x > 0 (also for -0.0, NaN and -inf, whose
        # outputs -0.0, NaN and NaN are not positive), so no mask is kept
        _accumulate(vx, g * (out_data > 0))

    return _node(out_data, (vx,), bwd)


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    old, vx = x.shape, _target(x)

    def bwd(g):
        _accumulate(vx, g.reshape(old))

    return _node(x.data.reshape(shape), (vx,), bwd)


def permute(x: Tensor, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    vx = _target(x)

    def bwd(g):
        _accumulate(vx, g.transpose(inverse))

    return _node(x.data.transpose(axes), (vx,), bwd)


def index(x: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing; the backward scatters into zeros laid out
    like the input, which the output views anyway."""
    x = as_tensor(x)
    xd, vx = x.data, _target(x)

    def bwd(g):
        full = np.zeros_like(xd)
        full[key] = g
        _accumulate(vx, full)

    return _node(xd[key], (vx,), bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    vertices = [_target(t) for t in tensors]

    def bwd(g):
        offset = 0
        for v, size in zip(vertices, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + size)
            if v is not None:
                _accumulate(v, g[tuple(sl)])
            offset += size

    return _node(out_data, vertices, bwd)


# ---------------------------------------------------------------------------
# reductions

def _normalize_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    return (axis % ndim,)


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    x = as_tensor(x)
    axes = _normalize_axis(axis, x.data.ndim)
    shape, vx = x.shape, _target(x)

    def bwd(g):
        _accumulate(vx, np.broadcast_to(np.expand_dims(g, axes), shape))

    return _node(x.data.sum(axis=axes), (vx,), bwd)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    x = as_tensor(x)
    axes = _normalize_axis(axis, x.data.ndim)
    shape, vx = x.shape, _target(x)
    count = int(np.prod([shape[a] for a in axes]))

    def bwd(g):
        _accumulate(vx, np.broadcast_to(np.expand_dims(g, axes), shape) / count)

    return _node(x.data.mean(axis=axes), (vx,), bwd)


def _max_of_slices(x: Tensor, slices_of) -> Tensor:
    """Elementwise maximum of the same-shape views ``slices_of(x.data)``.

    The backward writes through ``slices_of`` of an array laid out like
    ``x.data``, which the saved slices hold anyway: slice i takes the
    gradient where it equals the maximum and no earlier slice did, and the
    last slice takes every position still left.
    """
    xd, vx = x.data, _target(x)
    slices = slices_of(xd)
    out_data = np.maximum(slices[0], slices[-1])    # a new array, also for one slice
    for s in slices[1:-1]:
        np.maximum(out_data, s, out=out_data)

    def bwd(g):
        full = np.empty_like(xd)
        free = np.ones(out_data.shape, dtype=bool)    # positions not yet routed
        for i, (s, dst) in enumerate(zip(slices, slices_of(full))):
            first = free if i == len(slices) - 1 else (s == out_data) & free
            np.multiply(g, first, out=dst)
            free ^= first
        _accumulate(vx, full)

    return _node(out_data, (vx,), bwd)


def amax(x: Tensor, axis: int) -> Tensor:
    """Maximum along one axis; gradient routes to the first maximum."""
    return _max_of_slices(as_tensor(x), lambda a: list(np.moveaxis(a, axis, 0)))


def logsumexp(x: Tensor, axis: int) -> Tensor:
    x = as_tensor(x)
    axis = axis % x.data.ndim
    m = np.max(x.data, axis=axis, keepdims=True)
    shifted = np.exp(x.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(np.log(total) + m, axis=axis)
    vx = _target(x)

    def bwd(g):
        _accumulate(vx, np.expand_dims(g, axis) * shifted / total)

    return _node(out_data, (vx,), bwd)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus ``bias`` broadcast over the product when one is given.

    With a bias it is one node with the bits of ``add(matmul(a, b), bias)``:
    the product is computed in the narrower dtype of ``a`` and ``b``, held
    in the narrowest of all three, and the bias, cast to that dtype, is
    added into it in place.  So no pre-bias product outlives the forward.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs 2-D+ operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.data.shape} x {b.data.shape}")
    ad, bd = _narrowest(a, b)
    va, vb = _target(a), _target(b)

    if ad.ndim > 2 and bd.ndim == 2:
        # stacked input times one weight matrix: flatten the stack so the
        # forward and both backward products are single GEMMs instead of a
        # per-slice loop plus a huge broadcast reduction
        lead = ad.shape[:-1]
        a2 = ad.reshape(-1, ad.shape[-1])
        out_data = (a2 @ bd).reshape(lead + (bd.shape[-1],))

        def product_bwd(g):
            g2 = g.reshape(-1, bd.shape[-1])
            if va is not None:
                _accumulate(va, (g2 @ bd.T).reshape(ad.shape))
            if vb is not None:
                _accumulate(vb, a2.T @ g2)
    else:
        out_data = ad @ bd

        def product_bwd(g):
            if va is not None:
                _accumulate(va, _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape))
            if vb is not None:
                _accumulate(vb, _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))

    if bias is None:
        return _node(out_data, (va, vb), product_bwd)

    bias = as_tensor(bias)
    dtype = min(out_data.dtype, bias.data.dtype, key=lambda d: d.itemsize)
    out_data = out_data.astype(dtype, copy=False)
    out_data += bias.data.astype(dtype, copy=False)
    vbias, bias_shape = _target(bias), bias.shape

    def bwd(g):
        product_bwd(g)
        if vbias is not None:
            _accumulate(vbias, _unbroadcast(g, bias_shape))

    return _node(out_data, (va, vb, vbias), bwd)


# ---------------------------------------------------------------------------
# softmax family

def softmax(x: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, max-shifted for stability."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    vx = _target(x)

    def bwd(g):
        _accumulate(vx, s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return _node(s, (vx,), bwd)


def log_softmax(x: Tensor) -> Tensor:
    x = as_tensor(x)
    m = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse
    vx = _target(x)

    def bwd(g):
        _accumulate(vx, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))

    return _node(out_data, (vx,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    dim = x.data.shape[-1]
    if dim < 2:
        raise ShapeError(f"layer_norm needs a feature axis of length >= 2, got {dim}")
    xd, gd, bd = _narrowest(x, gamma, beta)
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xh = xc * inv
    vx, vgamma, vbeta = _target(x), _target(gamma), _target(beta)

    def bwd(g):
        if vgamma is not None:
            _accumulate(vgamma, (g * xh).reshape(-1, dim).sum(axis=0))
        if vbeta is not None:
            _accumulate(vbeta, g.reshape(-1, dim).sum(axis=0))
        if vx is not None:
            gh = g * gd
            _accumulate(vx, inv * (gh - gh.mean(axis=-1, keepdims=True)
                                   - xh * (gh * xh).mean(axis=-1, keepdims=True)))

    return _node(gd * xh + bd, (vx, vgamma, vbeta), bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.data.shape[0]:
        raise ShapeError(f"cross_entropy expects (B, L) logits and (B,) labels, "
                         f"got {logits.data.shape} and {labels.shape}")
    return nll_from_log_probs(log_softmax(logits), labels)


def nll_from_log_probs(log_probs: Tensor, labels) -> Tensor:
    """Mean negative picked log-probability; used on fused consensus outputs."""
    log_probs = as_tensor(log_probs)
    labels = np.asarray(labels, dtype=np.int64)
    n, num_labels = log_probs.data.shape
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= num_labels:
        raise IndexError(f"labels must lie in [0, {num_labels})")
    lpd, vlp = log_probs.data, _target(log_probs)
    out_data = -np.mean(lpd[np.arange(n), labels])

    def bwd(g):
        full = np.zeros_like(lpd)
        full[np.arange(n), labels] = -float(g) / n
        _accumulate(vlp, full)

    return _node(out_data, (vlp,), bwd)


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
    # float64 draws in every dtype, so a seed fixes the same mask; only the
    # bool keep-mask is held for the backward, which scales it again
    keep = rng.random(x.data.shape) >= rate
    dtype, vx = x.data.dtype, _target(x)

    def bwd(g):
        _accumulate(vx, g * (keep.astype(dtype) * scale))

    return _node(x.data * (keep.astype(dtype) * scale), (vx,), bwd)


# ---------------------------------------------------------------------------
# convolution and pooling

# rows per block of conv2d's shifted GEMMs: a block's operands, sum and
# scratch (1024 x C float64, 200-512 KB at the encoder's widths) stay in L2
_CONV_ROW_BLOCK = 1024


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-padded stride-1 cross-correlation as kh*kw shifted GEMMs, plus bias.

    ``x``: (..., Cin, H, W); ``w``: (Cout, Cin, kh, kw) with odd kernel
    extents so the zero padding is symmetric; ``b``: (Cout,), added at
    every position of its output channel.  Spatial extents are kept.

    The input is copied once into a zero-padded, channels-inner row buffer
    ``X`` of shape (B*Hp*Wp + 2*tail, Cin): row ``tail + p`` holds padded
    position p, and ``tail`` spare zero rows sit at each end.  Tap (u, v)
    then reads the contiguous slice ``X[s]`` of B*Hp*Wp rows shifted by
    ``s = (u - ph)*Wp + (v - pw)``, and the output at every padded position
    is the sum over taps of ``X[s] @ w[:, :, u, v].T``; border positions,
    whose taps wrap into neighbouring rows, are cropped.

    The backward rule pads the output gradient ``G`` the same way (zero on
    the border) and sums, per tap, ``dw[:, :, u, v] = (X[s].T @ G).T`` and
    ``dx += G[-s] @ w[:, :, u, v]`` (the transposed convolution with the
    flipped kernel), then crops dx.  It keeps only ``X``, about 1.1-1.3x
    the input, not an im2col matrix kh*kw times the input.

    Every sum runs over blocks of ``_CONV_ROW_BLOCK`` rows, each tap
    multiplying into one reused scratch block with ``out=``, so no GEMM
    makes a fresh temporary and the running sums stay in cache.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-D (Cout, Cin, kh, kw), got {w.data.shape}")
    cout, cin, kh, kw = w.data.shape
    if x.data.ndim < 3 or x.data.shape[-3] != cin:
        raise ShapeError(f"conv2d channel mismatch: input {x.data.shape} vs weight {w.data.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d kernel extents must be odd, got {(kh, kw)}")
    if b.data.shape != (cout,):
        raise ShapeError(f"conv2d bias must be ({cout},), got {b.data.shape}")
    xd, wd, bd = _narrowest(x, w, b)

    lead = x.data.shape[:-3]
    h, width = x.data.shape[-2:]
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, width + 2 * pw
    rows = math.prod(lead) * hp * wp
    tail = ph * wp + pw
    shifts = [(u - ph) * wp + (v - pw) for u in range(kh) for v in range(kw)]
    taps = wd.transpose(2, 3, 1, 0).reshape(kh * kw, cin, cout)
    dtype = xd.dtype

    def interior(flat):
        # (rows, C) -> (..., H, W, C) view of the unpadded positions
        return flat.reshape(lead + (hp, wp, flat.shape[-1]))[..., ph:ph + h, pw:pw + width, :]

    def padded_rows(a):
        buf = np.zeros((rows + 2 * tail, a.shape[-3]), dtype=dtype)
        interior(buf[tail:tail + rows])[...] = np.moveaxis(a, -3, -1)
        return buf

    def shifted_gemms(buf, mats, sign):
        # sum over taps of the rows shifted by sign*s times mats[tap], cropped;
        # a block of rows at a time, so the sum and its scratch stay in cache
        acc = np.empty((rows, mats.shape[-1]), dtype=dtype)
        scratch = np.empty((min(rows, _CONV_ROW_BLOCK), mats.shape[-1]), dtype=dtype)
        for r0 in range(0, rows, _CONV_ROW_BLOCK):
            block = acc[r0:r0 + _CONV_ROW_BLOCK]
            part = scratch[:len(block)]
            for t, s in enumerate(shifts):
                lo = tail + sign * s + r0
                if t == 0:
                    np.matmul(buf[lo:lo + len(block)], mats[t], out=block)
                else:
                    np.matmul(buf[lo:lo + len(block)], mats[t], out=part)
                    block += part
        return np.moveaxis(interior(acc), -1, -3)

    xbuf = padded_rows(xd)
    out = shifted_gemms(xbuf, taps, 1)
    out += bd[:, None, None]
    vx, vw, vb = _target(x), _target(w), _target(b)

    def bwd(g):
        gbuf = padded_rows(g)
        if vw is not None:
            dtaps = np.zeros((kh * kw, cin, cout), dtype=dtype)
            part = np.empty((cin, cout), dtype=dtype)
            for r0 in range(0, rows, _CONV_ROW_BLOCK):
                grows = gbuf[tail + r0:tail + min(r0 + _CONV_ROW_BLOCK, rows)]
                for t, s in enumerate(shifts):
                    lo = tail + s + r0
                    np.matmul(xbuf[lo:lo + len(grows)].T, grows, out=part)
                    dtaps[t] += part
            _accumulate(vw, dtaps.reshape(kh, kw, cin, cout).transpose(3, 2, 0, 1))
        if vx is not None:
            _accumulate(vx, shifted_gemms(gbuf, taps.transpose(0, 2, 1), -1))
        if vb is not None:
            _accumulate(vb, _unbroadcast(g, (cout, 1, 1)).reshape(cout))

    return _node(out, (vx, vw, vb), bwd)


def maxpool2d(x: Tensor, window: tuple[int, int] = (1, 2)) -> Tensor:
    """Max pooling with a (1, k) window along the last axis, stride k.

    The output is the elementwise maximum of the k strided slices
    ``x[..., i::k]``; gradient routes to the first position of the window
    maximum.
    """
    x = as_tensor(x)
    if window[0] != 1:
        raise ShapeError(f"maxpool2d supports (1, k) windows only, got {window}")
    k = window[1]
    width = x.data.shape[-1]
    if width % k != 0:
        raise ShapeError(f"maxpool2d width {width} not divisible by window {k}")
    return _max_of_slices(x, lambda a: [a[..., i::k] for i in range(k)])
