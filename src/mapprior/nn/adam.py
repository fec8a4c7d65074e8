"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 0.01
    step_count: int = field(init=False, default=0)
    m: dict[str, np.ndarray] = field(init=False, default_factory=dict)
    v: dict[str, np.ndarray] = field(init=False, default_factory=dict)


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update in place; missing grads count as zero."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ValueError(f"{name}: grad shape {g.shape} != param {p.data.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= (state.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(p.data.dtype)
