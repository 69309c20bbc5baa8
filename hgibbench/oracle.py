"""A numpy reference for what the program computes, written apart from it.

It reads the same CSV files and checkpoint the program reads or writes,
and recomputes the structure and the evaluation by the plainest route:
brute-force kNN per vertex, the propagation matrix from its definition,
the ReLU stack, a softmax, and one-vs-rest AUC by counting pairs.
"""

from __future__ import annotations

import csv
import json

import numpy as np


def read_inputs(feature_paths, label_path) -> tuple[list[np.ndarray], np.ndarray, list[str]]:
    """Feature matrices in file order, labels as indices into the sorted
    class names, and those names."""
    ids = None
    modalities = []
    for path in feature_paths:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
        file_ids = [r[0] for r in rows[1:]]
        if ids is not None and file_ids != ids:
            raise ValueError(f"{path}: ids differ from the first modality")
        ids = file_ids
        modalities.append(np.array([[float(v) for v in r[1:]] for r in rows[1:]]))
    with open(label_path, newline="") as fh:
        by_id = {r[0]: r[1] for r in list(csv.reader(fh))[1:] if r}
    raw = [by_id[i] for i in ids]
    names = sorted(set(raw))
    return modalities, np.array([names.index(v) for v in raw]), names


def normalize(X: np.ndarray) -> np.ndarray:
    """Min-max per column onto [0, 1]; a constant column becomes 0.5."""
    lo, hi = X.min(axis=0), X.max(axis=0)
    out = np.full(X.shape, 0.5)
    varying = hi > lo
    out[:, varying] = (X[:, varying] - lo[varying]) / (hi[varying] - lo[varying])
    return out


def knn_incidence(X: np.ndarray, k: int) -> np.ndarray:
    """One hyperedge per vertex v: v itself and its k nearest other
    vertices by Euclidean distance, ties going to the lower index."""
    n = X.shape[0]
    H = np.zeros((n, n))
    index = np.arange(n)
    for v in range(n):
        d = ((X - X[v]) ** 2).sum(axis=1)
        d[v] = np.inf
        nearest = np.lexsort((index, d))[:k]
        H[nearest, v] = 1.0
        H[v, v] = 1.0
    return H


def propagation(H: np.ndarray) -> np.ndarray:
    """Dv^-1 H De^-1 H^T."""
    dv = H.sum(axis=1)
    de = H.sum(axis=0)
    return ((H / de) @ H.T) / dv[:, None]


def read_checkpoint(path) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(conv weights, projectors) in layer order."""
    with open(path) as fh:
        entries = {e["name"]: e for e in json.load(fh)}

    def matrix(name):
        e = entries[name]
        return np.array(e["values"], dtype=np.float64).reshape(e["rows"], e["cols"])

    layers = sum(1 for name in entries if name.startswith("theta_"))
    return (
        [matrix(f"theta_{i}") for i in range(layers)],
        [matrix(f"w_out_{i}") for i in range(layers)],
    )


def forward_probs(P: np.ndarray, X: np.ndarray, thetas, projectors) -> np.ndarray:
    """Class probabilities of the last layer: relu(P Z Theta) per layer,
    the last projector, then a row softmax."""
    Z = X
    for theta in thetas:
        Z = np.maximum(P @ Z @ theta, 0.0)
    logits = Z @ projectors[-1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def pair_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Share of (positive, negative) pairs ranked right; ties count half."""
    pos = scores[positive][:, None]
    neg = scores[~positive][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins / (pos.size * neg.size))


def evaluate(probs: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> dict:
    """The fields of a `metrics.json` report, recomputed: one-vs-rest AUC
    per class and its mean, macro PPV and NPV in percent over the classes
    whose denominator is not zero, and the confusion matrix (rows true)."""
    p, y = probs[mask], labels[mask]
    c = probs.shape[1]
    aucs = [pair_auc(p[:, k], y == k) for k in range(c)]
    pred = p.argmax(axis=1)
    confusion = np.array([[int(((y == a) & (pred == b)).sum()) for b in range(c)] for a in range(c)])
    ppv, npv = [], []
    for k in range(c):
        tp = confusion[k, k]
        fp = confusion[:, k].sum() - tp
        fn = confusion[k, :].sum() - tp
        tn = y.size - tp - fp - fn
        if tp + fp:
            ppv.append(tp / (tp + fp))
        if tn + fn:
            npv.append(tn / (tn + fn))
    return {
        "per_class_auc": aucs,
        "auc_average": float(np.mean(aucs)),
        "ppv_average": float(np.mean(ppv) * 100.0),
        "npv_average": float(np.mean(npv) * 100.0),
        "confusion": confusion.tolist(),
    }


def aggregate(reports: list[dict]) -> dict:
    """Mean and sample standard deviation per metric over runs, in the
    layout of a sweep row."""
    out = {}
    for name in ("auc_average", "ppv_average", "npv_average"):
        vals = np.array([r[name] for r in reports])
        out[name] = {"mean": float(vals.mean()), "std": float(vals.std(ddof=1))}
    per_class = np.array([r["per_class_auc"] for r in reports])
    out["per_class_auc"] = {
        "mean": per_class.mean(axis=0).tolist(),
        "std": per_class.std(axis=0, ddof=1).tolist(),
    }
    return out
