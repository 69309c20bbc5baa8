"""Training objectives: cross-entropy, focal loss, the information-bottleneck
surrogates, and the total loss combining all three."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import EPS, Tensor
from .errors import ShapeError


@dataclass
class LossConfig:
    """Weights of the total objective."""

    mu: float = 1.0          # focal-loss weight
    xi: float = 10.0         # bottleneck-loss weight
    beta: float = 1.0        # compression weight inside the bottleneck term
    alpha: float = 2.0       # focal scaling
    gamma: float = 0.5       # focal exponent

    def __post_init__(self):
        for name in ("mu", "xi", "beta", "alpha", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def _mask_column(mask: np.ndarray) -> tuple[Tensor, int]:
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("empty mask")
    return Tensor(mask.astype(np.float64).reshape(-1, 1)), count


def _check_labels(logits: Tensor, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=int).reshape(-1)
    n, c = logits.shape
    if labels.shape[0] != n:
        raise ValueError("label count does not match logit rows")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label out of range")
    return labels


def true_class_probs(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax probability of each vertex's labeled class, as an n x 1 column.
    A reference for `ce_focal_loss`, which works in log space instead."""
    labels = _check_labels(logits, labels)
    n, c = logits.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    probs = ad.row_softmax(logits)
    return ad.matmul(ad.mul(probs, Tensor(onehot)), Tensor(np.ones((c, 1))))


def ce_focal_loss(
    logits: Tensor,
    labels: np.ndarray,
    mask: np.ndarray,
    mu: float,
    alpha: float,
    gamma: float,
) -> Tensor:
    """Mean over masked vertices of -log p - mu * alpha (1 - p)^gamma log p,
    p the softmax probability of the true class, as one tape node.

    log p = l_y - logsumexp(l) and 1 - p is the sum of the other classes'
    softmax, so neither cancels or clamps: a confidently wrong vertex keeps
    its full gradient (s - e_y)(1 + mu alpha (q^g - g q^(g-1) p log p)),
    q = 1 - p, whose last term tends to 0 as q -> 0."""
    labels = _check_labels(logits, labels)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.shape[0] != logits.shape[0]:
        raise ShapeError(f"mask of {mask.shape[0]} for {logits.shape[0]} logit rows")
    rows = np.flatnonzero(mask)
    count = rows.size
    if count == 0:
        raise ValueError("empty mask")
    picked = np.arange(count), labels[rows]
    sub = logits.data[rows]
    shifted = sub - sub.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    log_p = shifted[picked] - np.log(total)
    e[picked] = 0.0
    q = e.sum(axis=1) / total
    weight = mu * alpha
    scale = 1.0 + weight * q ** gamma if weight else 1.0
    value = (-log_p * scale).sum() * (1.0 / count)

    def vjp(g):
        d = e / total[:, None]
        d[picked] = -q
        dscale = scale
        if weight and gamma:
            # q^(g-1) p log p as q^g p (log p / q): bounded, 0 in the limit q = 0
            positive = q > 0.0
            ratio = np.where(positive, np.exp(log_p) * log_p / np.where(positive, q, 1.0), 0.0)
            dscale = scale - weight * gamma * q ** gamma * ratio
        grad = np.zeros(logits.shape)
        grad[rows] = d * (np.reshape(dscale, (-1, 1)) * (g[0, 0] / count))
        return (grad,)

    return ad._make(np.array([[value]]), (logits,), vjp)


def cross_entropy(logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean over masked vertices of -log p(true class)."""
    return ce_focal_loss(logits, labels, mask, 0.0, 0.0, 0.0)


def focal_loss(
    p_true: Tensor, alpha: float, gamma: float, mask: np.ndarray
) -> Tensor:
    """Mean over masked vertices of -alpha (1 - p)^gamma log p."""
    mcol, count = _mask_column(mask)
    p = ad.clip(p_true, EPS, 1.0 - EPS)
    ones = Tensor(np.ones(p.shape))
    terms = ad.mul(ad.power(ad.sub(ones, p), gamma), ad.neg(ad.log(p)))
    return ad.scale(ad.tsum(ad.mul(terms, mcol)), alpha / count)


def kl_bernoulli_half(p: Tensor) -> Tensor:
    """Elementwise KL(Bernoulli(p) || Bernoulli(0.5)), inputs clamped away from {0,1}."""
    p = ad.clip(p, EPS, 1.0 - EPS)
    ones = Tensor(np.ones(p.shape))
    q = ad.sub(ones, p)
    return ad.add(
        ad.mul(p, ad.log(ad.scale(p, 2.0))),
        ad.mul(q, ad.log(ad.scale(q, 2.0))),
    )


def kl_sigmoid_half(z: Tensor) -> Tensor:
    """Mean over entries of KL(Bernoulli(sigmoid(z)) || Bernoulli(0.5)) in
    closed form, log 2 + sigmoid(z) z - softplus(z), as one tape node; its
    gradient is sigmoid (1 - sigmoid) z / N. `kl_bernoulli_half` is the
    reference."""
    if z.data.size == 0:
        raise ShapeError("KL of an empty tensor")
    x = z.data
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x))
    value = np.mean(np.log(2.0) + s * x - np.logaddexp(0.0, x))
    return ad._make(
        np.array([[value]]),
        (z,),
        lambda g: (s * (1.0 - s) * x * (g[0, 0] / x.size),),
    )


def hgib_loss(
    per_layer: list[tuple[Tensor, Tensor]],
    labels: np.ndarray,
    mask: np.ndarray,
    beta: float,
) -> Tensor:
    """Bottleneck objective averaged over layers: per-layer CE on the projected
    logits plus beta times the mean Bernoulli-KL compression of sigmoid(Z)."""
    if not per_layer:
        raise ValueError("need at least one layer")
    terms, weights = [], []
    share = 1.0 / len(per_layer)
    for z, logits in per_layer:
        terms.append(cross_entropy(logits, labels, mask))
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
    """CE + mu * focal + xi * bottleneck, supervised terms over masked vertices."""
    loss = ce_focal_loss(logits_final, labels, mask, cfg.mu, cfg.alpha, cfg.gamma)
    if cfg.xi != 0.0:
        loss = ad.weighted_sum([loss, hgib_loss(per_layer, labels, mask, cfg.beta)], [1.0, cfg.xi])
    return loss
