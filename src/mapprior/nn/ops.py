"""Differentiable ops: elementwise math, dense/conv layers, pooling, losses."""

from __future__ import annotations

import ctypes

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


# CBLAS enum values: row-major storage, no transpose.
_ROW_MAJOR, _NO_TRANS = 101, 111
# The most input channels (the GEMM's K) for which a tap goes through BLAS.
# OpenBLAS splits K into blocks (448 for sgemm and 384 for dgemm on a
# SkylakeX core) and adds each block's partial sum into C, so past one block
# a beta = 1 product would add the old C into the first block's sum, not into
# the whole product.  128 keeps a margin below those blocks.
_GEMM_MAX_K = 128


def _find_gemm() -> dict:
    """The CBLAS sgemm and dgemm that numpy links, keyed by dtype, each with
    one more than the largest size it takes; empty when none is found.

    dlsym on the handle of numpy's extension module also searches the
    libraries that module depends on, numpy's BLAS among them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return {}
    found = {}
    for dtype, real in ((np.float32, ctypes.c_float), (np.float64, ctypes.c_double)):
        gemm = ("s" if dtype is np.float32 else "d") + "gemm"
        for name, size in ((f"scipy_cblas_{gemm}64_", ctypes.c_int64),
                           (f"cblas_{gemm}64_", ctypes.c_int64),
                           (f"scipy_cblas_{gemm}", ctypes.c_int32),
                           (f"cblas_{gemm}", ctypes.c_int32)):
            fn = getattr(lib, name, None)
            if fn is not None:
                ptr = ctypes.c_void_p
                fn.argtypes = [ctypes.c_int] * 3 + [size] * 3 + [
                    real, ptr, size, ptr, size, real, ptr, size]
                fn.restype = None
                found[np.dtype(dtype)] = fn, 2 ** (8 * ctypes.sizeof(size) - 1)
                break
    return found


_GEMM = _find_gemm()


def _correlate(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """'Same'-padded cross-correlation of x (N,C,H,W) with w (F,C,kh,kw).

    Each kernel tap (i, j) is one GEMM on the contiguous slice of the
    flattened padded input that starts at i*Wp + j: output row y then spans
    padded-width columns, and the kw-1 columns past W are dropped at the end.
    One spare bottom row keeps the last tap's slice in bounds.

    The taps' products are summed into the output in tap order.  Where it
    can, BLAS does the sum: per sample and tap, one GEMM with beta = 1 adds
    the product into the output (C <- A.B + C) with no product array.  That
    gives the same bits as numpy's `out += taps[i, j] @ xs`: the kernel
    forms the same dot products in the same order and adds each to C with
    one rounding, as the separate add does, because 1.0 * C and 1.0 * A.B
    are exact.  numpy's loop stays where it alone is correct:
    - no BLAS symbol was found, or x, w are not one native float32/float64;
    - one input channel: the product is a broadcast multiply, not a GEMM;
    - more than _GEMM_MAX_K channels, where BLAS splits the sum;
    - one output channel or one output cell: OpenBLAS hands such a GEMM to
      gemv, which adds into C term by term, so the last bit can differ.
    BLAS sets no numpy warning, so after the GEMMs one pass (a sum) looks
    for a non-finite output; if it finds one, numpy's loop recomputes the
    call, with numpy's overflow warnings and values.  A finite output whose
    sum overflows is recomputed too, which costs only time."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    wp = wd + 2 * pw
    xf = np.pad(x, ((0, 0), (0, 0), (ph, ph + 1), (pw, pw))).reshape(n, c, -1)
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    out = np.zeros((n, f, h * wp), dtype=x.dtype)
    gemm, limit = _GEMM.get(x.dtype, (None, 0))
    if (gemm is not None and w.dtype == x.dtype and 1 < c <= _GEMM_MAX_K
            and f > 1 and h * wp > 1 and xf.shape[2] < limit):
        # BLAS reads raw memory where numpy slicing would clip.
        assert xf.flags.c_contiguous and taps.flags.c_contiguous
        assert out.flags.c_contiguous
        size, tap = x.itemsize, taps.ctypes.data
        x0, out0 = xf.ctypes.data, out.ctypes.data
        for s in range(n):
            xs, dst = x0 + s * xf.strides[0], out0 + s * out.strides[0]
            for i in range(kh):
                for j in range(kw):
                    gemm(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, f, h * wp, c, 1.0,
                         tap + (i * kw + j) * f * c * size, c,
                         xs + (i * wp + j) * size, xf.shape[2], 1.0, dst, h * wp)
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(out.sum()):
                return out.reshape(n, f, h, wp)[..., :wd]
        out.fill(0)
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
