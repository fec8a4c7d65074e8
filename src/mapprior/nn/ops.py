"""Differentiable ops: elementwise math, dense/conv layers, pooling, losses."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, make_node


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b; an operand that needs a gradient must have the result's shape."""
    out = a.data + b.data

    def back(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return make_node(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """a * b; an operand that needs a gradient must have the result's shape."""
    out = a.data * b.data

    def back(g):
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return make_node(out, (a, b), back)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def back(g):
        x.accumulate(g * (x.data > 0))

    return make_node(out, (x,), back)


def logistic(d: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-d)) on an array without overflow: exp only sees -|d|,
    as min(d, -d) so that a nan keeps its sign."""
    e = np.exp(np.minimum(d, -d))
    q = 1.0 + e
    return np.where(d >= 0, 1.0 / q, e / q)


def sigmoid(x: Tensor) -> Tensor:
    out = logistic(x.data)

    def back(g):
        x.accumulate(g * out * (1.0 - out))

    return make_node(out, (x,), back)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def back(g):
        x.accumulate(g * (1.0 - out * out))

    return make_node(out, (x,), back)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def back(g):
        offset = 0
        for t, s in zip(tensors, sizes):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + s)
                t.accumulate(g[tuple(idx)])
            offset += s

    return make_node(out, tuple(tensors), back)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def back(g):
        x.accumulate(np.broadcast_to(g, x.data.shape).astype(x.data.dtype))

    return make_node(out, (x,), back)


def _correlate(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """'Same'-padded cross-correlation of x (N,C,H,W) with w (F,C,kh,kw).

    Each kernel tap (i, j) is one GEMM on the contiguous slice of the
    flattened padded input that starts at i*Wp + j: output row y then spans
    padded-width columns, and the kw-1 columns past W are dropped at the end.
    One spare bottom row keeps the last tap's slice in bounds."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    wp = wd + 2 * pw
    xf = np.pad(x, ((0, 0), (0, 0), (ph, ph + 1), (pw, pw))).reshape(n, c, -1)
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    out = np.zeros((n, f, h * wp), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            xs = xf[:, :, i * wp + j : i * wp + j + h * wp]
            # With one input channel the GEMM is one product per element.
            out += taps[i, j] * xs if c == 1 else taps[i, j] @ xs
    return out.reshape(n, f, h, wp)[..., :wd]


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """'Same'-padded, stride-1 cross-correlation: x (N,C,H,W), w (F,C,kh,kw)
    with odd kh and kw, b (F,)."""
    n, c, h, wd = x.data.shape
    f, cw, kh, kw = w.data.shape
    if cw != c:
        raise ValueError(f"input has {c} channels, kernel expects {cw}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("'same' padding requires odd kernel dims")
    out = _correlate(x.data, w.data) + b.data[:, None, None]

    def back(g):
        if b.requires_grad:
            b.accumulate(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            ph, pw = (kh - 1) // 2, (kw - 1) // 2
            xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
            g3 = np.ascontiguousarray(g).reshape(n, f, h * wd)
            dw = np.empty_like(w.data)
            for i in range(kh):
                for j in range(kw):
                    xs = np.ascontiguousarray(xp[:, :, i : i + h, j : j + wd])
                    dw[:, :, i, j] = (g3 @ xs.reshape(n, c, h * wd)
                                      .transpose(0, 2, 1)).sum(axis=0)
            w.accumulate(dw)
        if x.requires_grad:
            # dx is the correlation of the output gradient with the spatially
            # flipped kernel, channels swapped.
            x.accumulate(_correlate(g, w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)))

    return make_node(out, (x, w, b), back)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties resolve to the first position."""
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    blocks = x.data.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = np.ascontiguousarray(blocks).reshape(n, c, h // 2, w // 2, 4)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    # The closure keeps the argmax indices, not the copy of x in flat.
    def back(g):
        dflat = np.zeros(idx.shape + (4,), dtype=x.data.dtype)
        np.put_along_axis(dflat, idx[..., None], g[..., None], axis=-1)
        dx = dflat.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        x.accumulate(dx.reshape(n, c, h, w))

    return make_node(out, (x,), back)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor x2 upsampling."""
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def back(g):
        n, c, h2, w2 = g.shape
        x.accumulate(g.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5)))

    return make_node(out, (x,), back)


def channel_dot(maps: Tensor, vecs: Tensor) -> Tensor:
    """Per-location dot product: maps (N,C,H,W) . vecs (N,C) -> (N,H,W)."""
    if maps.data.shape[1] != vecs.data.shape[1]:
        raise ValueError(
            f"channel mismatch: map {maps.data.shape[1]} vs vector {vecs.data.shape[1]}")
    out = np.einsum("nchw,nc->nhw", maps.data, vecs.data)

    def back(g):
        if maps.requires_grad:
            maps.accumulate(g[:, None] * vecs.data[:, :, None, None])
        if vecs.requires_grad:
            vecs.accumulate(np.einsum("nhw,nchw->nc", g, maps.data))

    return make_node(out, (maps, vecs), back)


def weighted_mse(pred: Tensor, target: np.ndarray, weights: np.ndarray) -> Tensor:
    """Mean over the batch of the per-cell weighted squared error sum."""
    target = np.asarray(target, dtype=pred.data.dtype)
    weights = np.asarray(weights, dtype=pred.data.dtype)
    n = pred.data.shape[0]
    diff = pred.data - target
    out = np.asarray((weights * diff * diff).sum() / n, dtype=pred.data.dtype)

    def back(g):
        pred.accumulate(g * (2.0 / n) * weights * diff)

    return make_node(out, (pred,), back)
