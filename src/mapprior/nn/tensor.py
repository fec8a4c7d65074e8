"""Reverse-mode autodiff over numpy arrays, just big enough for the prior model.

Every op builds a node recording its parents and a closure that routes the
output gradient back to them.  Graphs are built only when some input requires
gradients, so inference runs allocation-light.

A graph can be backpropagated once: `backward` releases it as it walks it,
so interior gradients, closure temporaries and activations are freed as soon
as their last reader has run.  Leaves keep their gradients and the root keeps
its data.
"""

from __future__ import annotations

import ctypes

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ValueError(f"gradient of shape {g.shape} for a tensor of shape "
                             f"{self.data.shape}")
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g


def parameter(data, dtype=np.float32) -> Tensor:
    return Tensor(np.ascontiguousarray(data, dtype=dtype), requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=False)


def make_node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Result tensor; records the closure only if a parent needs gradients."""
    needs = any(p.requires_grad for p in parents)
    if not needs:
        return Tensor(data, requires_grad=False)
    return Tensor(data, requires_grad=True, parents=parents, backward=backward)


def topo_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering via iterative DFS."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise ValueError("graph already released by an earlier backward; "
                             "rebuild it to backpropagate again")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf the scalar loss depends on.

    Once a node popped off the reverse topological order has handed its
    gradient to its parents, its grad, closure and parents are dropped;
    parents None marks it released."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any parameter")
    order = topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward is None:  # a leaf keeps its gradient
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = node._backward = node._parents = None


def keep_freed_memory() -> None:
    """Keep the heap a released graph frees mapped for the next graph.

    glibc's malloc otherwise returns a free heap top to the OS, and a loop
    that builds and releases the same graph every batch faults it all in
    again: 200 k minor faults, 15 % of an acceptance-shape `train` call.
    Acts on the whole process; a no-op without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's largest
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def zero_grads(params) -> None:
    for p in params.values():
        p.grad = None
