"""Minimal dense-tensor reverse-mode autodiff with an Adam optimizer.

Tensors are 2-D float64 arrays. Operations build an implicit tape via
parent links; ``Tensor.backward`` replays it in reverse topological order
and accumulates gradients into ``requires_grad`` leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ShapeError


def _as_matrix(data) -> np.ndarray:
    arr = np.array(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got ndim={arr.ndim}")
    return arr


class Tensor:
    """A 2-D float64 array participating in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_matrix(data)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        self must be scalar (1x1). Repeated calls accumulate.
        """
        if self.data.shape != (1, 1):
            raise ShapeError(f"backward needs a 1x1 tensor, got {self.data.shape}")
        order = _toposort(self)
        adjoint: dict[int, np.ndarray] = {id(self): np.ones((1, 1))}
        for node in reversed(order):
            g = adjoint.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is not None:
                for parent, pg in zip(node._parents, node._vjp(g)):
                    if pg is None or not _needs_grad(parent):
                        continue
                    key = id(parent)
                    if key in adjoint:
                        adjoint[key] += pg   # pg is the VJP's own array (see _make)
                    else:
                        adjoint[key] = pg
            elif node.requires_grad:
                node.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._vjp is not None


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """The tape node of an op's output `data`. `vjp(g)` returns one gradient
    per parent, or None, and each is a fresh array: not `g`, not an array
    the op keeps, and not one returned for another parent. `backward` sums
    adjoints into them in place."""
    if not np.isfinite(data).all():
        raise NonFiniteError("operation produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    if any(_needs_grad(p) for p in parents):
        out._parents = parents
        out._vjp = vjp
    else:
        out._parents = ()
        out._vjp = None
    return out


# ---------------------------------------------------------------- matmul

def _matmul_vjp(a: Tensor, b: Tensor):
    # a constant operand gets no gradient product
    return lambda g: (
        g @ b.data.T if _needs_grad(a) else None,
        a.data.T @ g if _needs_grad(b) else None,
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.data.shape} x {b.data.shape}")
    return _make(a.data @ b.data, (a, b), _matmul_vjp(a, b))


def relu_matmul(a: Tensor, b: Tensor) -> Tensor:
    """relu(a @ b) as one tape node: the ReLU is applied in place on the
    product, so the tape keeps no pre-activation. The VJP masks g by
    out > 0, then forms `matmul`'s two products from the masked g. The node
    is made before the ReLU, so `_make` refuses a non-finite product before
    the ReLU could hide a -inf, and the product is checked once."""
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"relu_matmul: inner dims {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data
    vjp = _matmul_vjp(a, b)
    node = _make(out, (a, b), lambda g: vjp(g * (out > 0.0)))
    # np.maximum(-0.0, 0.0) is +0.0, as np.where(x > 0, x, 0) gives
    np.maximum(out, 0.0, out=out)
    return node


def propagate(p: np.ndarray, x: Tensor) -> Tensor:
    """p @ x for a constant n x n array p (the propagation matrix), formed
    wide as (x.T @ p.T).T, and its VJP as (g.T @ p).T: OpenBLAS runs an
    n x 64 p @ x as a slow tall-narrow GEMM. p is not on the tape; the
    node's one parent is x."""
    if p.shape[1] != x.data.shape[0]:
        raise ShapeError(f"propagate: inner dims {p.shape} x {x.data.shape}")
    return _make((x.data.T @ p.T).T, (x,), lambda g: ((g.T @ p).T,))


# ------------------------------------------------------------ reductions

def weighted_sum(terms: list[Tensor], weights: list[float]) -> Tensor:
    """sum_i weights[i] * terms[i] over 1x1 tensors, as one tape node."""
    if len(terms) != len(weights) or not terms:
        raise ShapeError("weighted_sum needs at least one term and one weight per term")
    if any(t.data.shape != (1, 1) for t in terms):
        raise ShapeError("weighted_sum combines 1x1 tensors")
    weights = [float(w) for w in weights]
    total = sum(w * t.data[0, 0] for t, w in zip(terms, weights))
    return _make(
        np.array([[total]]),
        tuple(terms),
        lambda g: tuple(g * w for w in weights),
    )


def tsum(t: Tensor) -> Tensor:
    if t.data.size == 0:
        raise ShapeError("sum of an empty tensor")
    shape = t.data.shape
    return _make(
        np.array([[t.data.sum()]]),
        (t,),
        lambda g: (np.full(shape, g[0, 0]),),
    )


# ------------------------------------------------------------------ Adam

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment accumulators of all parameters, one after another in a flat
    vector each, three work vectors of that length (gradient, update,
    denominator) and the shared step counter."""

    m: np.ndarray
    v: np.ndarray
    work: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        size = sum(p.data.size for p in params)
        return cls(m=np.zeros(size), v=np.zeros(size), work=np.empty((3, size)))


def adam_step(
    params: list[Tensor],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update, in place on the parameter data.

    The update runs once over all parameters flattened together, each
    intermediate written to the state's work vectors in the order of
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps): nothing is allocated
    and the result is bit-identical to that expression per parameter."""
    if len(params) != len(grads):
        raise ShapeError("adam_step: parameter/gradient count mismatch")
    if any(p.data.shape != g.shape for p, g in zip(params, grads)):
        raise ShapeError("adam_step: gradient shape mismatch")
    if sum(p.data.size for p in params) != state.m.size:
        raise ShapeError("adam_step: parameters do not match the state")
    if lr < 0:
        raise ValueError("adam_step: negative learning rate")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    g, update, denom = state.work
    np.concatenate([grad.reshape(-1) for grad in grads], out=g)
    state.m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=update)
    state.m += update
    state.v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=update)
    update *= g
    state.v += update
    np.divide(state.m, bc1, out=update)
    update *= lr
    np.divide(state.v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    start = 0
    for p in params:
        stop = start + p.data.size
        p.data -= update[start:stop].reshape(p.data.shape)
        start = stop
