"""LSTM cell and stacked-sequence forward built from the basic ops."""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Tensor, constant, make_node

# Gate layout within the stacked 4H dimension: input, forget, cell, output.


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, w_ih: Tensor,
              w_hh: Tensor, b_ih: Tensor, b_hh: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM cell update for a batch: x (N,F), h/c (N,H), weights (4H,*)."""
    hidden = h_prev.data.shape[1]
    if w_ih.data.shape != (4 * hidden, x.data.shape[1]):
        raise ValueError(
            f"w_ih shape {w_ih.data.shape} incompatible with input "
            f"{x.data.shape[1]} and hidden {hidden}")
    z = ops.add(ops.linear(x, w_ih, b_ih), ops.linear(h_prev, w_hh, b_hh))
    gi, gf, gc, go = ops.chunk(z, 4, axis=1)
    i = ops.sigmoid(gi)
    f = ops.sigmoid(gf)
    g = ops.tanh(gc)
    o = ops.sigmoid(go)
    c_t = ops.add(ops.mul(f, c_prev), ops.mul(i, g))
    h_t = ops.mul(o, ops.tanh(c_t))
    return h_t, c_t


def lstm_forward(seq: Tensor, layer_params: list[dict[str, Tensor]],
                 hidden: int) -> Tensor:
    """Run a stacked LSTM over seq (N, T, F); returns the last hidden state
    of the top layer, shape (N, hidden)."""
    n, t_len, _ = seq.data.shape
    dtype = seq.data.dtype
    inputs = [ops.narrow(seq, 1, t, 1) for t in range(t_len)]
    xs = [_squeeze_time(x) for x in inputs]
    for params in layer_params:
        h = constant(np.zeros((n, hidden), dtype=dtype))
        c = constant(np.zeros((n, hidden), dtype=dtype))
        outs = []
        for x in xs:
            h, c = lstm_step(x, h, c, params["w_ih"], params["w_hh"],
                             params["b_ih"], params["b_hh"])
            outs.append(h)
        xs = outs
    return xs[-1]


def _squeeze_time(x: Tensor) -> Tensor:
    """(N, 1, F) -> (N, F) reshape as a graph node."""
    n, _, f = x.data.shape
    out = x.data.reshape(n, f)

    def back(g):
        if x.requires_grad:
            x.accumulate(g.reshape(n, 1, f))

    return make_node(out, (x,), back)
