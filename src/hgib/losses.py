"""Training objectives: cross-entropy, focal loss, the information-bottleneck
surrogates, and the total loss combining all three."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError, check_field_types


@dataclass
class LossConfig:
    """Weights of the total objective."""

    mu: float = 1.0          # focal-loss weight
    xi: float = 10.0         # bottleneck-loss weight
    beta: float = 1.0        # compression weight inside the bottleneck term
    alpha: float = 2.0       # focal scaling
    gamma: float = 0.5       # focal exponent

    def __post_init__(self):
        check_field_types(self)
        for name in ("mu", "xi", "beta", "alpha", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class Labeled:
    """The supervised rows of a logit matrix of `shape` and the
    (true class, position among them) pick, checked once: `total_loss`
    shares one among its CE terms."""

    shape: tuple[int, int]
    rows: np.ndarray
    pick: tuple[np.ndarray, np.ndarray]


def _check_labels(labels, mask, shape: tuple[int, int]) -> Labeled:
    labels = np.asarray(labels, dtype=int).reshape(-1)
    if labels.shape[0] != shape[0]:
        raise ValueError("label count does not match logit rows")
    if labels.min() < 0 or labels.max() >= shape[1]:
        raise ValueError("label out of range")
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.shape[0] != shape[0]:
        raise ShapeError(f"mask of {mask.shape[0]} for {shape[0]} logit rows")
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("empty mask")
    return Labeled(shape, rows, (labels[rows], np.arange(rows.size)))


def _labeled(labels, mask, shape: tuple[int, int]) -> Labeled:
    """`labels` and `mask` checked against logits of `shape`, or `labels`
    itself when it is a `Labeled` already checked (then `mask` is None)."""
    if not isinstance(labels, Labeled):
        return _check_labels(labels, mask, shape)
    if mask is not None or labels.shape != shape:
        raise ShapeError(f"labels checked for {labels.shape} logits, used on {shape} logits or with a mask")
    return labels


def ce_focal_loss(
    logits: Tensor,
    labels: np.ndarray | Labeled,
    mask: np.ndarray | None,
    mu: float,
    alpha: float,
    gamma: float,
) -> Tensor:
    """Mean over masked vertices of -log p - mu * alpha (1 - p)^gamma log p,
    p the softmax probability of the true class, as one tape node.

    log p = l_y - logsumexp(l) and 1 - p is the sum of the other classes'
    softmax, so neither cancels or clamps: a confidently wrong vertex keeps
    its full gradient (s - e_y)(1 + mu alpha (q^g - g q^(g-1) p log p)),
    q = 1 - p, whose last term tends to 0 as q -> 0. `labels` may be a
    `Labeled` with `mask` None, as `total_loss` passes."""
    labeled = _labeled(labels, mask, logits.shape)
    rows, picked = labeled.rows, labeled.pick
    count = rows.size
    # classes x labeled rows: the max and sums over each vertex's classes
    # become ops between a few long contiguous lines, several times faster
    # than reductions along short rows
    sub = logits.data.take(rows, axis=0).T.copy()
    shifted = sub - sub.max(axis=0)
    e = np.exp(shifted)
    total = e.sum(axis=0)
    log_p = shifted[picked] - np.log(total)
    e[picked] = 0.0
    q = e.sum(axis=0) / total
    weight = mu * alpha
    scale = 1.0 + weight * q ** gamma if weight else 1.0
    value = (-log_p * scale).sum() * (1.0 / count)

    def vjp(g):
        d = e / total
        d[picked] = -q
        dscale = scale
        if weight and gamma:
            # q^(g-1) p log p as q^g p (log p / q): bounded, 0 in the limit q = 0
            positive = q > 0.0
            ratio = np.where(positive, np.exp(log_p) * log_p / np.where(positive, q, 1.0), 0.0)
            dscale = scale - weight * gamma * q ** gamma * ratio
        grad = np.zeros(logits.shape)
        grad[rows] = (d * (dscale * (g[0, 0] / count))).T
        return (grad,)

    return ad._make(np.array([[value]]), (logits,), vjp)


def cross_entropy(
    logits: Tensor, labels: np.ndarray | Labeled, mask: np.ndarray | None
) -> Tensor:
    """Mean over masked vertices of -log p(true class)."""
    return ce_focal_loss(logits, labels, mask, 0.0, 0.0, 0.0)


def kl_sigmoid_half(z: Tensor) -> Tensor:
    """Mean over entries of KL(Bernoulli(sigmoid(z)) || Bernoulli(0.5)) as
    one tape node. The KL is even in z, so with a = |z|, e = exp(-a) and
    s = 1 / (1 + e) = sigmoid(a) it is log 2 - a e s - log1p(e): one exp,
    and nothing overflows. Its gradient sigmoid (1 - sigmoid) z / N is
    s^2 e z / N."""
    if z.data.size == 0:
        raise ShapeError("KL of an empty tensor")
    x = z.data
    # in place, in three arrays: a e s goes into a, the slope into s and
    # log1p(e) into e
    a = np.abs(x)
    e = np.negative(a)
    np.exp(e, out=e)
    s = np.add(e, 1.0)
    np.divide(1.0, s, out=s)
    a *= e
    a *= s
    np.subtract(np.log(2.0), a, out=a)
    slope = np.multiply(s, s, out=s)
    slope *= e
    slope *= x
    a -= np.log1p(e, out=e)
    value = a.mean()
    return ad._make(
        np.array([[value]]),
        (z,),
        lambda g: (slope * (g[0, 0] / x.size),),
    )


def hgib_loss(
    per_layer: list[tuple[Tensor, Tensor]],
    labels: np.ndarray | Labeled,
    mask: np.ndarray | None,
    beta: float,
) -> Tensor:
    """Bottleneck objective averaged over layers: per-layer CE on the projected
    logits plus beta times the mean Bernoulli-KL compression of sigmoid(Z)."""
    if not per_layer:
        raise ValueError("need at least one layer")
    labels = _labeled(labels, mask, per_layer[0][1].shape)
    terms, weights = [], []
    share = 1.0 / len(per_layer)
    for z, logits in per_layer:
        terms.append(cross_entropy(logits, labels, None))
        weights.append(share)
        if beta != 0.0:
            terms.append(kl_sigmoid_half(z))
            weights.append(beta * share)
    return ad.weighted_sum(terms, weights)


def total_loss(
    logits_final: Tensor,
    per_layer: list[tuple[Tensor, Tensor]],
    labels: np.ndarray,
    mask: np.ndarray,
    cfg: LossConfig,
) -> Tensor:
    """CE + mu * focal + xi * bottleneck, supervised terms over masked
    vertices; labels and mask are checked once for all the CE terms."""
    labeled = _check_labels(labels, mask, logits_final.shape)
    loss = ce_focal_loss(logits_final, labeled, None, cfg.mu, cfg.alpha, cfg.gamma)
    if cfg.xi != 0.0:
        loss = ad.weighted_sum([loss, hgib_loss(per_layer, labeled, None, cfg.beta)], [1.0, cfg.xi])
    return loss
