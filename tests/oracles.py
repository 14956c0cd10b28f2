"""Naive loop reference implementations used as independent test oracles.

Everything here is deliberately written as plain loops over numpy scalars
(or the most literal vector form), separate from the library's vectorized
paths, so agreement between the two is meaningful evidence.
"""

import numpy as np


def matmul_loops(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def conv2d_loops(x, w):
    """Same-padded stride-1 cross-correlation; x (Cin,H,W), w (Cout,Cin,kh,kw)."""
    cin, h, width = x.shape
    cout, cin2, kh, kw = w.shape
    assert cin == cin2
    ph, pw = kh // 2, kw // 2
    out = np.zeros((cout, h, width))
    for o in range(cout):
        for i in range(h):
            for j in range(width):
                acc = 0.0
                for c in range(cin):
                    for u in range(kh):
                        for v in range(kw):
                            ii = i + u - ph
                            jj = j + v - pw
                            if 0 <= ii < h and 0 <= jj < width:
                                acc += x[c, ii, jj] * w[o, c, u, v]
                out[o, i, j] = acc
    return out


def conv2d_grad_loops(x, w, g):
    """Gradients of sum(conv2d_loops(x, w) * g) with respect to x and w."""
    cin, h, width = x.shape
    cout, cin2, kh, kw = w.shape
    assert cin == cin2 and g.shape == (cout, h, width)
    ph, pw = kh // 2, kw // 2
    dx = np.zeros((cin, h, width))
    dw = np.zeros((cout, cin, kh, kw))
    for o in range(cout):
        for i in range(h):
            for j in range(width):
                for c in range(cin):
                    for u in range(kh):
                        for v in range(kw):
                            ii = i + u - ph
                            jj = j + v - pw
                            if 0 <= ii < h and 0 <= jj < width:
                                dx[c, ii, jj] += g[o, i, j] * w[o, c, u, v]
                                dw[o, c, u, v] += g[o, i, j] * x[c, ii, jj]
    return dx, dw


def maxpool_loops(x, k):
    """(1, k) max-pool along the last axis of x (..., W), stride k."""
    assert x.shape[-1] % k == 0
    rows = x.reshape(-1, x.shape[-1])
    out = np.zeros((rows.shape[0], rows.shape[1] // k), dtype=x.dtype)
    for r in range(rows.shape[0]):
        for j in range(out.shape[1]):
            best = rows[r, j * k]
            for i in range(1, k):
                if rows[r, j * k + i] > best:
                    best = rows[r, j * k + i]
            out[r, j] = best
    return out.reshape(x.shape[:-1] + (out.shape[1],))


def maxpool_grad_loops(x, g, k):
    """Gradient of sum(maxpool_loops(x, k) * g): each window's g goes to the
    first position that holds the window's maximum."""
    rows = x.reshape(-1, x.shape[-1])
    grows = g.reshape(rows.shape[0], -1)
    dx = np.zeros_like(rows)
    for r in range(rows.shape[0]):
        for j in range(grows.shape[1]):
            first = j * k
            for i in range(1, k):
                if rows[r, j * k + i] > rows[r, first]:
                    first = j * k + i
            dx[r, first] = grows[r, j]
    return dx.reshape(x.shape)


def amax_loops(x, g, axis):
    """Maximum of x along ``axis`` and the gradient of sum(max * g): each
    entry of g goes to the first index along ``axis`` holding the maximum."""
    moved = np.moveaxis(x, axis, -1)
    rows = moved.reshape(-1, moved.shape[-1])
    grows = g.reshape(-1)
    out = np.zeros(rows.shape[0], dtype=x.dtype)
    dx = np.zeros_like(rows)
    for r in range(rows.shape[0]):
        first = 0
        for i in range(1, rows.shape[1]):
            if rows[r, i] > rows[r, first]:
                first = i
        out[r] = rows[r, first]
        dx[r, first] = grows[r]
    return out.reshape(moved.shape[:-1]), np.moveaxis(dx.reshape(moved.shape), -1, axis)


def softmax_rows(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = x.reshape(-1, x.shape[-1])
    oflat = out.reshape(-1, x.shape[-1])
    for r in range(flat.shape[0]):
        row = flat[r] - flat[r].max()
        e = np.exp(row)
        oflat[r] = e / e.sum()
    return out


def multi_head_attention_loops(y, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Per-head loop evaluation of scaled dot-product attention.

    y: (F, H); projection weights (H, H) with biases (H,).  Returns the
    output (F, H) and per-head probability matrices (heads, F, F).
    """
    f, h_dim = y.shape
    dk = h_dim // heads
    q = y @ wq + bq
    k = y @ wk + bk
    v = y @ wv + bv
    ctx = np.zeros((f, h_dim))
    probs = np.zeros((heads, f, f))
    for hd in range(heads):
        sl = slice(hd * dk, (hd + 1) * dk)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        scores = np.zeros((f, f))
        for i in range(f):
            for j in range(f):
                scores[i, j] = float(qh[i] @ kh[j]) / np.sqrt(dk)
        p = softmax_rows(scores)
        probs[hd] = p
        for i in range(f):
            acc = np.zeros(dk)
            for j in range(f):
                acc += p[i, j] * vh[j]
            ctx[i, sl] = acc
    return ctx @ wo + bo, probs


def layer_norm_rows(x, gamma, beta, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = x.reshape(-1, x.shape[-1])
    oflat = out.reshape(-1, x.shape[-1])
    for r in range(flat.shape[0]):
        mu = flat[r].mean()
        var = ((flat[r] - mu) ** 2).mean()
        oflat[r] = gamma * (flat[r] - mu) / np.sqrt(var + eps) + beta
    return out


def ff_encode_loops(x, w, b):
    """Per-joint affine + rectifier + per-frame flatten; x (F, J, C), w (C, C')."""
    f, j, c = x.shape
    cp = w.shape[1]
    out = np.zeros((f, j * cp))
    for t in range(f):
        for jj in range(j):
            proj = np.maximum(0.0, x[t, jj] @ w + b)
            out[t, jj * cp:(jj + 1) * cp] = proj
    return out


def load_sample_loops(path):
    """Sample-file reader, one line at a time: (label, positions (F, S, J, C)).

    Raises ``tssan.data.SampleFormatError`` with the library's file:line
    wording for every malformed file.
    """
    from tssan.data import SampleFormatError

    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append((lineno, line))
    if not rows:
        raise SampleFormatError(f"{path}:1: empty sample file")
    (lineno, header), rows = rows[0], rows[1:]
    parts = header.split()
    if len(parts) != 5:
        raise SampleFormatError(f"{path}:{lineno}: header must be 'F S J C label', got {header!r}")
    try:
        frames, persons, joints, coords, label = (int(p) for p in parts)
    except ValueError:
        raise SampleFormatError(f"{path}:{lineno}: non-integer header field in {header!r}") from None
    if min(frames, persons, joints, coords) < 1 or label < 0:
        raise SampleFormatError(f"{path}:{lineno}: header extents must be positive")
    if frames < 2:
        raise SampleFormatError(f"{path}:{lineno}: a clip needs at least 2 frames "
                                f"to derive motion, got {frames}")
    expected = frames * persons * joints
    values = np.zeros((expected, coords))
    for count, (lineno, line) in enumerate(rows):
        if count >= expected:
            raise SampleFormatError(f"{path}:{lineno}: trailing data beyond {expected} rows")
        fields = line.split()
        if len(fields) != coords:
            raise SampleFormatError(f"{path}:{lineno}: expected {coords} values, got {len(fields)}")
        for c, field in enumerate(fields):
            try:
                values[count, c] = float(field)
            except ValueError:
                raise SampleFormatError(f"{path}:{lineno}: non-numeric value in {line!r}") from None
    if len(rows) != expected:
        raise SampleFormatError(f"{path}: truncated: {len(rows)} of {expected} data rows")
    for count, (lineno, line) in enumerate(rows):
        for c in range(coords):
            if not np.isfinite(values[count, c]):
                raise SampleFormatError(f"{path}:{lineno}: non-finite value in {line!r}")
    return label, values.reshape(frames, persons, joints, coords)


def save_sample_loops(path, positions, label):
    """Sample-file writer, one value at a time: each value as repr(float)."""
    frames, persons, joints, coords = positions.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{frames} {persons} {joints} {coords} {label}\n")
        for f in range(frames):
            for s in range(persons):
                for j in range(joints):
                    row = [repr(float(positions[f, s, j, c])) for c in range(coords)]
                    fh.write(" ".join(row) + "\n")
