"""Minimal dense-tensor reverse-mode autodiff with an Adam optimizer.

Tensors are 2-D float64 arrays. Operations build an implicit tape via
parent links; ``Tensor.backward`` replays it in reverse topological order
and accumulates gradients into ``requires_grad`` leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ShapeError

EPS = 1e-12


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

    @classmethod
    def constant(cls, data: np.ndarray) -> "Tensor":
        """A read-only constant over `data` without copying it, for an
        operand built once and shared by every tape (the propagation
        matrix, the first layer's propagated input)."""
        if data.dtype != np.float64 or data.ndim != 2:
            raise ShapeError(f"constant needs a 2-D float64 array, got {data.dtype} ndim={data.ndim}")
        out = cls.__new__(cls)
        out.data = data.view()
        out.data.setflags(write=False)
        out.requires_grad = False
        out.grad = None
        out._parents = ()
        out._vjp = None
        return out

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
                        adjoint[key] = adjoint[key] + pg
                    else:
                        adjoint[key] = pg
            elif node.requires_grad:
                node.grad = node.grad + g

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


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------- matmul

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.data.shape} x {b.data.shape}")
    # a constant operand (the propagation matrix) gets no n x n product
    return _make(
        a.data @ b.data,
        (a, b),
        lambda g: (
            g @ b.data.T if _needs_grad(a) else None,
            a.data.T @ g if _needs_grad(b) else None,
        ),
    )


# ----------------------------------------------------------- elementwise

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def neg(t: Tensor) -> Tensor:
    return _make(-t.data, (t,), lambda g: (-g,))


def scale(t: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(t.data * c, (t,), lambda g: (g * c,))


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0.0
    return _make(np.where(mask, t.data, 0.0), (t,), lambda g: (g * mask,))


def sigmoid(t: Tensor) -> Tensor:
    # clamp keeps the output strictly inside (0, 1); exp may overflow to inf,
    # which still clips correctly
    with np.errstate(over="ignore"):
        s = np.clip(1.0 / (1.0 + np.exp(-t.data)), EPS, 1.0 - EPS)
    return _make(s, (t,), lambda g: (g * s * (1.0 - s),))


def log(t: Tensor) -> Tensor:
    # inputs clamped to >= EPS; gradient is zero in the clamped region
    clamped = np.maximum(t.data, EPS)
    inside = t.data >= EPS
    return _make(np.log(clamped), (t,), lambda g: (g * inside / clamped,))


def power(t: Tensor, exponent: float) -> Tensor:
    # base clamped to >= EPS so fractional exponents stay finite
    exponent = float(exponent)
    clamped = np.maximum(t.data, EPS)
    inside = t.data >= EPS
    out = clamped ** exponent
    return _make(
        out,
        (t,),
        lambda g: (g * inside * exponent * clamped ** (exponent - 1.0),),
    )


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    # straight-through inside [lo, hi], zero gradient outside
    inside = (t.data >= lo) & (t.data <= hi)
    return _make(np.clip(t.data, lo, hi), (t,), lambda g: (g * inside,))


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


def tmean(t: Tensor) -> Tensor:
    if t.data.size == 0:
        raise ShapeError("mean of an empty tensor")
    shape = t.data.shape
    n = t.data.size
    return _make(
        np.array([[t.data.mean()]]),
        (t,),
        lambda g: (np.full(shape, g[0, 0] / n),),
    )


def row_softmax(t: Tensor) -> Tensor:
    if t.data.size == 0:
        raise ShapeError("softmax of an empty tensor")
    shifted = t.data - t.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    return _make(
        s,
        (t,),
        lambda g: (s * (g - (g * s).sum(axis=1, keepdims=True)),),
    )


# ------------------------------------------------------------------ Adam

@dataclass
class AdamState:
    """Per-parameter moment accumulators and the shared step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list[Tensor], **kwargs) -> "AdamState":
        return cls(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
            **kwargs,
        )


def adam_step(
    params: list[Tensor],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update, in place on the parameter data."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("adam_step: parameter/gradient/state count mismatch")
    if lr < 0:
        raise ValueError("adam_step: negative learning rate")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.data.shape != g.shape:
            raise ShapeError("adam_step: gradient shape mismatch")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
