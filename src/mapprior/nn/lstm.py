"""Stacked LSTM forward: one graph node per layer, with a hand-written BPTT.

The backward repeats, expression for expression and in the same order, what
the graph of per-step linear, slice, sigmoid, tanh, mul and add nodes would
compute, so values and gradients are bit-identical to it at a fraction of the
Python overhead.
"""

from __future__ import annotations

import numpy as np

from .ops import logistic
from .tensor import Tensor, make_node

# Gate layout within the stacked 4H dimension: input, forget, cell, output.


def lstm_cell(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
              w_ih: np.ndarray, w_hh: np.ndarray, b_ih: np.ndarray,
              b_hh: np.ndarray):
    """One LSTM cell update for a batch: x (N,F), h/c (N,H), weights (4H,*).

    Returns h_t, c_t and the activations (i, f, g, o, tanh c_t) that the
    backward needs."""
    hidden = h_prev.shape[1]
    if w_ih.shape != (4 * hidden, x.shape[1]):
        raise ValueError(
            f"w_ih shape {w_ih.shape} incompatible with input "
            f"{x.shape[1]} and hidden {hidden}")
    z = (x @ w_ih.T + b_ih) + (h_prev @ w_hh.T + b_hh)
    s = logistic(z)  # the cell slice's sigmoid goes unused
    i, f, o = s[:, :hidden], s[:, hidden : 2 * hidden], s[:, 3 * hidden :]
    g = np.tanh(z[:, 2 * hidden : 3 * hidden])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (i, f, g, o, tc)


def _layer(xs: Tensor, params: dict[str, Tensor], hidden: int,
           last: bool) -> Tensor:
    """One LSTM layer over xs (N, T, F) from zero state, as one graph node:
    all hidden states (N, T, hidden), or with last=True the final one."""
    w_ih, w_hh, b_ih, b_hh = (params[k] for k in ("w_ih", "w_hh", "b_ih", "b_hh"))
    seq = xs.data
    n, t_len, _ = seq.shape
    h = np.zeros((n, hidden), dtype=seq.dtype)
    c = np.zeros_like(h)
    steps, hs = [], []
    for t in range(t_len):
        x, h_prev, c_prev = seq[:, t], h, c
        h, c, acts = lstm_cell(x, h_prev, c_prev, w_ih.data, w_hh.data,
                               b_ih.data, b_hh.data)
        steps.append((x, h_prev, c_prev, acts))
        hs.append(h)
    out = h if last else np.stack(hs, axis=1)

    def back(g):
        dx = np.zeros_like(seq) if xs.requires_grad else None
        dh_next = dc_next = None
        for t in range(t_len - 1, -1, -1):
            x, h_prev, c_prev, (i, f, gc, o, tc) = steps[t]
            # h_t's gradient: from the output (every step, or only the last)
            # plus the next step's recurrent path.
            dh = (g if t == t_len - 1 else None) if last else g[:, t]
            if dh_next is not None:
                dh = dh_next if dh is None else dh + dh_next
            dc = (dh * o) * (1.0 - tc * tc)
            if dc_next is not None:
                dc = dc + dc_next
            di = ((dc * gc) * i) * (1.0 - i)
            df = ((dc * c_prev) * f) * (1.0 - f)
            dg = (dc * i) * (1.0 - gc * gc)
            do = ((dh * tc) * o) * (1.0 - o)
            dz = np.concatenate((di, df, dg, do), axis=1)
            db = dz.sum(axis=0)
            if w_ih.requires_grad:
                w_ih.accumulate(dz.T @ x)
            if b_ih.requires_grad:
                b_ih.accumulate(db)
            if w_hh.requires_grad:
                w_hh.accumulate(dz.T @ h_prev)
            if b_hh.requires_grad:
                b_hh.accumulate(db)
            if dx is not None:
                dx[:, t] = dz @ w_ih.data
            if t > 0:
                dh_next = dz @ w_hh.data
                dc_next = dc * f
        if dx is not None:
            xs.accumulate(dx)

    return make_node(out, (xs, w_ih, w_hh, b_ih, b_hh), back)


def lstm_forward(seq: Tensor, layer_params: list[dict[str, Tensor]],
                 hidden: int) -> Tensor:
    """Run a stacked LSTM over seq (N, T, F); returns the last hidden state
    of the top layer, shape (N, hidden)."""
    xs = seq
    for k, params in enumerate(layer_params):
        xs = _layer(xs, params, hidden, last=k == len(layer_params) - 1)
    return xs
