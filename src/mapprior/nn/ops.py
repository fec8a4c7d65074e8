"""Differentiable ops: elementwise math, dense/conv layers, pooling, losses."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, make_node, unbroadcast


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def back(g):
        if a.requires_grad:
            a.accumulate(unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(unbroadcast(g, b.data.shape))

    return make_node(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def back(g):
        if a.requires_grad:
            a.accumulate(unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(unbroadcast(g * a.data, b.data.shape))

    return make_node(out, (a, b), back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b with w of shape (out_features, in_features)."""
    out = x.data @ w.data.T + b.data

    def back(g):
        if x.requires_grad:
            x.accumulate(g @ w.data)
        if w.requires_grad:
            w.accumulate(g.T @ x.data)
        if b.requires_grad:
            b.accumulate(g.sum(axis=0))

    return make_node(out, (x, w, b), back)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def back(g):
        if x.requires_grad:
            x.accumulate(g * (x.data > 0))

    return make_node(out, (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)

    def back(g):
        if x.requires_grad:
            x.accumulate(g * out * (1.0 - out))

    return make_node(out, (x,), back)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def back(g):
        if x.requires_grad:
            x.accumulate(g * (1.0 - out * out))

    return make_node(out, (x,), back)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = x.data[idx]

    def back(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[idx] = g
            x.accumulate(full)

    return make_node(out, (x,), back)


def chunk(x: Tensor, n: int, axis: int = 1) -> list[Tensor]:
    size = x.data.shape[axis]
    if size % n != 0:
        raise ValueError(f"cannot split axis of size {size} into {n} chunks")
    step = size // n
    return [narrow(x, axis, i * step, step) for i in range(n)]


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
        if x.requires_grad:
            x.accumulate(np.broadcast_to(g, x.data.shape).astype(x.data.dtype))

    return make_node(out, (x,), back)


def _tap(xp: np.ndarray, i: int, j: int, oh: int, ow: int) -> np.ndarray:
    """Contiguous (N, C, OH*OW) view of the inputs under kernel tap (i, j)."""
    n, c = xp.shape[:2]
    xs = xp[:, :, i : i + oh, j : j + ow]
    return np.ascontiguousarray(xs).reshape(n, c, oh * ow)


def _correlate(x: np.ndarray, w: np.ndarray, ph: int, pw: int):
    """Cross-correlation as one GEMM per kernel tap; returns (out, padded x)."""
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x
    n, _, hp, wp = xp.shape
    f, _, kh, kw = w.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    out = np.zeros((n, f, oh * ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            out += np.ascontiguousarray(w[:, :, i, j]) @ _tap(xp, i, j, oh, ow)
    return out.reshape(n, f, oh, ow), xp


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """'Same'-padded, stride-1 cross-correlation: x (N,C,H,W), w (F,C,kh,kw)
    with odd kh and kw, b (F,)."""
    n, c, h, wd = x.data.shape
    f, cw, kh, kw = w.data.shape
    if cw != c:
        raise ValueError(f"input has {c} channels, kernel expects {cw}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("'same' padding requires odd kernel dims")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    out, xp = _correlate(x.data, w.data, ph, pw)
    out += b.data[:, None, None]

    def back(g):
        if b.requires_grad:
            b.accumulate(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            g3 = np.ascontiguousarray(g).reshape(n, f, h * wd)
            dw = np.empty_like(w.data)
            for i in range(kh):
                for j in range(kw):
                    xs = _tap(xp, i, j, h, wd)
                    dw[:, :, i, j] = (g3 @ xs.transpose(0, 2, 1)).sum(axis=0)
            w.accumulate(dw)
        if x.requires_grad:
            # dx is the correlation of the output gradient with the spatially
            # flipped kernel, channels swapped.
            w_flip = np.ascontiguousarray(
                w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
            dxp, _ = _correlate(np.ascontiguousarray(g), w_flip, kh - 1, kw - 1)
            x.accumulate(dxp[:, :, ph : ph + h, pw : pw + wd])

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

    def back(g):
        if x.requires_grad:
            dflat = np.zeros_like(flat)
            np.put_along_axis(dflat, idx[..., None], g[..., None], axis=-1)
            dx = dflat.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
            x.accumulate(dx.reshape(n, c, h, w))

    return make_node(out, (x,), back)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor x2 upsampling."""
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def back(g):
        if x.requires_grad:
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
        if pred.requires_grad:
            pred.accumulate(g * (2.0 / n) * weights * diff)

    return make_node(out, (pred,), back)
