"""Seeded full-batch transductive training loop with stratified
train/test/labeled splits, the prepared structure every evaluation shares,
and multi-seed aggregation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import losses, metrics, model
from .autodiff import AdamState, Tensor, adam_step
from .data import Dataset, fuse_and_build, normalize
from .errors import DataError
from .hypergraph import Hypergraph
from .losses import LossConfig
from .metrics import MetricsReport
from .seeding import substream


@dataclass
class TrainConfig:
    epochs: int = 2000
    lr_initial: float = 1e-4
    seed: int = 0
    train_fraction: float = 0.8
    label_fraction: float = 1.0
    k_neighbors: int = 20
    hidden_dims: tuple[int, ...] = (64, 64)
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs >= 1 required")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError("train_fraction in (0, 1]")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ValueError("label_fraction in (0, 1]")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_dims"] = list(self.hidden_dims)
        return d


@dataclass(frozen=True)
class Prepared:
    """Normalized labels, fused features, hypergraph and masks of one
    dataset under one config; training and every evaluation share it."""

    labels: np.ndarray
    features: Tensor
    graph: Hypergraph
    train_mask: np.ndarray
    labeled_mask: np.ndarray
    test_mask: np.ndarray

    @cached_property
    def propagated_features(self) -> Tensor:
        """P @ X, the first layer's constant propagated input, computed once
        and read-only. `dataclasses.replace` does not carry it over, so a
        copy with other features or another graph computes its own."""
        return Tensor.constant(self.graph.propagation() @ self.features.data)


@dataclass
class RunRecord:
    config: dict
    loss_trace: list[float]
    metrics: MetricsReport
    duration_seconds: float
    model_state: model.ModelState
    prepared: Prepared


def _stratified_take(
    by_class: list[np.ndarray], total: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Pick `total` indices spread across classes proportionally
    (largest-remainder rounding), shuffled per class."""
    sizes = np.array([idx.size for idx in by_class], dtype=float)
    quota = sizes * total / sizes.sum()
    counts = np.floor(quota).astype(int)
    short = total - counts.sum()
    for c in np.argsort(-(quota - counts))[:short]:
        counts[c] += 1
    taken = []
    for idx, c in zip(by_class, counts):
        perm = rng.permutation(idx.size)
        taken.append(idx[perm[:c]])
    return taken


def split_and_mask(
    dataset: Dataset, train_fraction: float, label_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified train/test split plus a labeled subset of the training
    vertices; |labeled| = round(label_fraction * |train|)."""
    rng = substream(seed, "split")
    n = dataset.n
    labels = dataset.labels
    by_class = [np.flatnonzero(labels == c) for c in range(dataset.num_classes)]
    if any(idx.size == 0 for idx in by_class):
        raise DataError("a class has no vertices")

    n_train = int(round(train_fraction * n))
    train_idx = np.concatenate(_stratified_take(by_class, n_train, rng))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[train_idx] = True
    test_mask = ~train_mask

    by_class_train = [
        np.flatnonzero(train_mask & (labels == c)) for c in range(dataset.num_classes)
    ]
    if any(idx.size == 0 for idx in by_class_train):
        raise DataError("a class is absent from the training split")
    n_labeled = int(round(label_fraction * n_train))
    labeled_idx = np.concatenate(_stratified_take(by_class_train, n_labeled, rng))
    labeled_mask = np.zeros(n, dtype=bool)
    labeled_mask[labeled_idx] = True
    return train_mask, labeled_mask, test_mask


def prepare(dataset: Dataset, cfg: TrainConfig) -> Prepared:
    """Normalize, fuse and build the kNN hypergraph, then split: done once
    per dataset and config."""
    dataset = normalize(dataset)
    features, graph = fuse_and_build(dataset, cfg.k_neighbors)
    masks = split_and_mask(dataset, cfg.train_fraction, cfg.label_fraction, cfg.seed)
    return Prepared(dataset.labels, features, graph, *masks)


def evaluate_state(prepared: Prepared, state: model.ModelState) -> MetricsReport:
    """Metrics of the model's softmax output on the held-out test vertices."""
    logits, _ = model.forward(
        prepared.features, prepared.graph, state, prepared.propagated_features
    )
    return metrics.evaluate(ad.row_softmax(logits), prepared.labels, prepared.test_mask)


def train(dataset: Dataset, cfg: TrainConfig) -> RunRecord:
    """Full protocol: prepare the structure once, train with Adam under a
    linear lr decay to 0, evaluate on the held-out test vertices."""
    start = time.perf_counter()
    prepared = prepare(dataset, cfg)
    state = model.init_params(
        in_dim=prepared.features.shape[1],
        hidden_dims=list(cfg.hidden_dims),
        num_classes=dataset.num_classes,
        rng=substream(cfg.seed, "init"),
    )
    opt = AdamState.for_params(state.params)
    trace = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr_initial * (1.0 - epoch / cfg.epochs)
        logits, per_layer = model.forward(
            prepared.features, prepared.graph, state, prepared.propagated_features
        )
        loss = losses.total_loss(
            logits, per_layer, prepared.labels, prepared.labeled_mask, cfg.loss
        )
        trace.append(float(loss.data[0, 0]))
        for p in state.params:
            p.zero_grad()
        loss.backward()
        adam_step(state.params, [p.grad for p in state.params], opt, lr)

    report = evaluate_state(prepared, state)
    return RunRecord(
        config=cfg.to_dict(),
        loss_trace=trace,
        metrics=report,
        duration_seconds=time.perf_counter() - start,
        model_state=state,
        prepared=prepared,
    )


_SCALARS = ("auc_average", "ppv_average", "npv_average")


def aggregate_metrics(reports: list[MetricsReport]) -> dict:
    """Per-metric mean and sample standard deviation across runs."""
    out = {}
    for name in _SCALARS:
        vals = np.array([getattr(r, name) for r in reports])
        out[name] = {"mean": float(vals.mean()), "std": _sample_std(vals)}
    per_class = np.array([r.per_class_auc for r in reports])
    out["per_class_auc"] = {
        "mean": per_class.mean(axis=0).tolist(),
        "std": [
            _sample_std(per_class[:, c]) for c in range(per_class.shape[1])
        ],
    }
    return out


def _sample_std(vals: np.ndarray) -> float:
    return float(vals.std(ddof=1)) if vals.size > 1 else 0.0
