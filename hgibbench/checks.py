"""Output checks of one round, against the oracle and the method's
properties. None of this is timed. Every failure raises CheckError."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from hgibbench import oracle

# Oracle and program compute the same sums in another order, so float
# results agree to rounding; ranks, argmax and counts agree exactly.
METRIC_TOL = 1e-9
AUC_FLOOR = 0.90


class CheckError(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass
class Reference:
    """The oracle's view of one workload's inputs."""

    X: np.ndarray          # normalized, fused features
    H: np.ndarray          # incidence, kNN hyperedges of each modality in order
    P: np.ndarray          # propagation matrix of H
    labels: np.ndarray     # as written, indices into the sorted class names
    clean: np.ndarray      # noise-free, same indexing
    test_masks: dict       # seed -> test mask from trainer.split_and_mask


def build_reference(features, label_path, clean_names, k, seeds, fractions) -> Reference:
    """Oracle structure, checked against the program's own build of it,
    and the split masks the program uses for each seed, checked too."""
    from hgib import data, trainer

    mods, labels, names = oracle.read_inputs(features, label_path)
    X = np.hstack([oracle.normalize(M) for M in mods])
    H = np.hstack([oracle.knn_incidence(oracle.normalize(M), k) for M in mods])
    P = oracle.propagation(H)
    clean = np.array([names.index(c) for c in clean_names])

    dataset = data.normalize(data.load_csv(features, label_path))
    fused, graph = data.fuse_and_build(dataset, k)
    require(np.array_equal(graph.incidence, H), "kNN hyperedges differ from the brute-force oracle")
    require(np.allclose(fused.data, X, rtol=0, atol=1e-15), "fused features differ from the oracle")
    require(
        np.allclose(graph.propagation(), P, rtol=1e-12, atol=1e-15),
        "propagation matrix differs from Dv^-1 H De^-1 H^T",
    )
    require(np.array_equal(dataset.labels, labels), "labels differ from the oracle's reading")
    del fused, graph

    test_masks = {}
    for seed in seeds:
        train, labeled, test = trainer.split_and_mask(dataset, *fractions, seed)
        check_split(train, labeled, test, labels, fractions[0])
        test_masks[seed] = test
    return Reference(X=X, H=H, P=P, labels=labels, clean=clean, test_masks=test_masks)


def check_split(train, labeled, test, labels, train_fraction) -> None:
    require(not (train & test).any(), "test mask overlaps the training vertices")
    require((train | test).all(), "a vertex is in neither split")
    require(not (labeled & ~train).any(), "a labeled vertex is outside the training split")
    require(train.sum() == round(train_fraction * labels.size), "training split has the wrong size")
    test_share = test.sum() / labels.size
    for c in np.unique(labels):
        in_class = labels == c
        expected = test_share * in_class.sum()
        require(
            abs(test[in_class].sum() - expected) < 1.0,
            f"test split is not stratified: class {c} has {test[in_class].sum()}, expected {expected:.1f}",
        )


# ------------------------------------------------------------- documents

def validate(path: Path, schemas: Path, schema_name: str) -> object:
    require(path.is_file(), f"{path} missing")
    with open(path) as fh:
        doc = json.load(fh)
    with open(schemas / schema_name) as fh:
        schema = json.load(fh)
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise CheckError(f"{path.name} fails {schema_name}: {exc.message}") from exc
    return doc


def check_checkpoint(path: Path, schemas: Path, in_dim: int, num_classes: int) -> None:
    """Against `checkpoint.schema.json` when the package ships one, and in
    any case for a consistent shape chain."""
    if (schemas / "checkpoint.schema.json").is_file():
        validate(path, schemas, "checkpoint.schema.json")
    with open(path) as fh:
        entries = json.load(fh)
    for e in entries:
        require(len(e["values"]) == e["rows"] * e["cols"], f"checkpoint entry {e['name']} has the wrong size")
    layers = len(entries) // 2
    expected = {f"theta_{i}" for i in range(layers)} | {f"w_out_{i}" for i in range(layers)}
    require(layers > 0 and {e["name"] for e in entries} == expected, "checkpoint lacks a layer's matrices")
    thetas, projectors = oracle.read_checkpoint(path)
    width = in_dim
    for theta, w_out in zip(thetas, projectors):
        require(theta.shape[0] == width, "checkpoint conv weights do not chain")
        require(w_out.shape == (theta.shape[1], num_classes), "checkpoint projector has the wrong shape")
        width = theta.shape[1]


def check_loss_trace(trace: list, epochs: int) -> None:
    require(len(trace) == epochs, f"loss trace has {len(trace)} values, expected {epochs}")
    require(all(math.isfinite(v) for v in trace), "loss trace has a non-finite value")
    require(trace[-1] < trace[0], f"loss did not fall: {trace[0]:.4f} -> {trace[-1]:.4f}")


def same_metrics(got: dict, want: dict, what: str) -> None:
    for key in ("auc_average", "ppv_average", "npv_average"):
        require(abs(got[key] - want[key]) <= METRIC_TOL, f"{what}: {key} {got[key]} != oracle {want[key]}")
    require(
        np.allclose(got["per_class_auc"], want["per_class_auc"], rtol=0, atol=METRIC_TOL),
        f"{what}: per-class AUC differs from the oracle",
    )
    require(got["confusion"] == want["confusion"], f"{what}: confusion matrix differs from the oracle")


def same_aggregate(got: dict, want: dict, what: str) -> None:
    for key in ("auc_average", "ppv_average", "npv_average", "per_class_auc"):
        for stat in ("mean", "std"):
            require(
                np.allclose(got[key][stat], want[key][stat], rtol=0, atol=METRIC_TOL),
                f"{what}: {key} {stat} {got[key][stat]} != {want[key][stat]}",
            )


# --------------------------------------------------------------- attacks

def check_drop(H: np.ndarray, kept: np.ndarray, fraction: float) -> None:
    """Exactly floor(f |E|) of the original hyperedges gone, the rest
    unchanged, and no vertex left without one."""
    n_drop = math.floor(fraction * H.shape[1])
    require(kept.shape == (H.shape[0], H.shape[1] - n_drop), f"drop kept {kept.shape[1]} of {H.shape[1]} hyperedges")
    original = Counter(map(bytes, np.ascontiguousarray(H.T.astype(np.uint8))))
    remaining = Counter(map(bytes, np.ascontiguousarray(kept.T.astype(np.uint8))))
    require(not remaining - original, "drop produced a hyperedge that was not in the graph")
    require(kept.sum(axis=1).min() >= 1, "drop left a vertex without a hyperedge")


def check_noise(X: np.ndarray, Y: np.ndarray, rho: float) -> None:
    """Y = X + rho r E with r the mean per-column maximum of X and E
    standard normal: the scaled residual has mean 0 and spread 1 within
    five standard errors."""
    E = (Y - X) / (rho * X.max(axis=0).mean())
    se = 1.0 / math.sqrt(E.size)
    require(abs(E.mean()) < 5 * se, f"noise mean {E.mean():.4f} is not 0")
    require(abs(E.std() - 1.0) < 5 * se * math.sqrt(0.5) + 1e-3, f"noise spread {E.std():.4f} is not 1")


def perturbed(ref: Reference, kind: str, seed: int, drop_fraction: float, rho: float):
    """(P, X) under the attack, made by the program's public perturbation
    functions and checked for their properties."""
    from hgib import perturb
    from hgib.hypergraph import Hypergraph

    if kind == "drop":
        kept = perturb.drop_hyperedges(Hypergraph(ref.H), drop_fraction, seed).incidence
        check_drop(ref.H, kept, drop_fraction)
        return oracle.propagation(np.asarray(kept)), ref.X
    if kind == "noise":
        Y = perturb.inject_feature_noise(ref.X, rho, seed)
        check_noise(ref.X, Y, rho)
        return ref.P, Y
    return ref.P, ref.X
