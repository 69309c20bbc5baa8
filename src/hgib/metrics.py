"""Evaluation metrics: one-vs-rest AUC, macro PPV/NPV, confusion matrix."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MetricError


@dataclass
class MetricsReport:
    per_class_auc: list[float]
    auc_average: float
    ppv_average: float          # percent
    npv_average: float          # percent
    confusion: list[list[int]]


def auc_binary(scores, binary_labels) -> float:
    """ROC AUC via the tie-corrected rank (Mann-Whitney) statistic."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(binary_labels).reshape(-1).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC undefined: only one class present")
    ranks = _midranks(scores)
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their midrank."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)   # 1-based rank of each tie group's last member
    return (last - (counts - 1) / 2.0)[group]


def evaluate(probs, labels) -> MetricsReport:
    """Macro one-vs-rest metrics over the given rows: `probs[i]` is row i's
    class probabilities, `labels[i]` its class.

    Classes with a zero PPV/NPV denominator are excluded from the macro
    mean with a warning.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=int).reshape(-1)
    num_classes = p.shape[1]
    if (np.bincount(y, minlength=num_classes)[:num_classes] == 0).any():
        raise MetricError("a class is absent from the evaluation mask")

    aucs = [auc_binary(p[:, c], y == c) for c in range(num_classes)]

    pred = p.argmax(axis=1)
    confusion = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(confusion, (y, pred), 1)

    ppvs, npvs = [], []
    total = y.size
    for c in range(num_classes):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        tn = total - tp - fp - fn
        if tp + fp > 0:
            ppvs.append(tp / (tp + fp))
        else:
            warnings.warn(f"class {c}: no positive predictions, PPV excluded")
        if tn + fn > 0:
            npvs.append(tn / (tn + fn))
        else:
            warnings.warn(f"class {c}: no negative outcomes, NPV excluded")

    return MetricsReport(
        per_class_auc=[float(a) for a in aucs],
        auc_average=float(np.mean(aucs)),
        ppv_average=float(np.mean(ppvs) * 100.0) if ppvs else float("nan"),
        npv_average=float(np.mean(npvs) * 100.0) if npvs else float("nan"),
        confusion=confusion.tolist(),
    )
