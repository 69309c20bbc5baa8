"""Seeded full-batch transductive training loop with stratified
train/test/labeled splits, the structure every run on one dataset shares,
the run record that carries a run's structure beside its checkpoint, and
multi-seed aggregation."""

from __future__ import annotations

import base64
import hashlib
import json
import time
from dataclasses import dataclass, field, asdict
from functools import cached_property
from pathlib import Path

import numpy as np

from . import losses, metrics, model
from .autodiff import AdamState, Tensor, adam_step, propagate
from .data import CsvInputs, Dataset, fuse_and_build, normalize, write_text_atomic
from .errors import DataError, StructureError, check_field_types
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
        check_field_types(self)
        if self.epochs < 1:
            raise ValueError("epochs >= 1 required")
        if self.lr_initial < 0:
            raise ValueError(f"lr_initial must be >= 0, got {self.lr_initial!r}")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError("train_fraction in (0, 1]")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ValueError("label_fraction in (0, 1]")
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ValueError(
                f"hidden_dims needs at least one width, each >= 1, got {self.hidden_dims!r}"
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_dims"] = list(self.hidden_dims)
        return d


@dataclass(frozen=True)
class Structure:
    """What one dataset and k determine: the normalized dataset, the fused
    features and the kNN hypergraph. It does not depend on the seed or the
    label fraction, so one is built per CLI call and shared by every run."""

    dataset: Dataset
    k: int
    features: Tensor
    graph: Hypergraph

    @cached_property
    def propagated_features(self) -> Tensor:
        """P @ X, the first layer's constant propagated input, computed once
        by `propagate` and read-only. `dataclasses.replace` does not carry it
        over, so a copy with other features or another graph computes its own."""
        px = propagate(self.graph.propagation(), self.features)
        px.data.setflags(write=False)
        return px


@dataclass(frozen=True)
class Prepared:
    """A structure and one run's masks; training and every evaluation of
    the run share it."""

    structure: Structure
    labeled_mask: np.ndarray
    test_mask: np.ndarray


@dataclass
class RunRecord:
    loss_trace: list[float]
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
    if any(not test_mask[idx].any() for idx in by_class):
        raise DataError("a class is absent from the test split")
    n_labeled = int(round(label_fraction * n_train))
    if n_labeled == 0:
        raise DataError(
            f"label fraction {label_fraction} of {n_train} training vertices labels none"
        )
    labeled_idx = np.concatenate(_stratified_take(by_class_train, n_labeled, rng))
    labeled_mask = np.zeros(n, dtype=bool)
    labeled_mask[labeled_idx] = True
    return train_mask, labeled_mask, test_mask


def build(dataset: Dataset, k: int) -> Structure:
    """Normalize, fuse and build the kNN hypergraph: the part of the
    preparation that no seed or label fraction changes."""
    dataset = normalize(dataset)
    features, graph = fuse_and_build(dataset, k)
    return Structure(dataset, k, features, graph)


def prepare(data: Dataset | Structure, cfg: TrainConfig) -> Prepared:
    """The structure of `data`, built here if `data` is a dataset, with the
    masks of cfg's seed and fractions. The split reads only the labels,
    which `normalize` keeps, so a dataset is split before its build."""
    if isinstance(data, Structure) and data.k != cfg.k_neighbors:
        raise ValueError(f"structure built at k={data.k}, config has k={cfg.k_neighbors}")
    dataset = data.dataset if isinstance(data, Structure) else data
    _, *masks = split_and_mask(dataset, cfg.train_fraction, cfg.label_fraction, cfg.seed)
    structure = data if isinstance(data, Structure) else build(data, cfg.k_neighbors)
    return Prepared(structure, *masks)


# The fields of a run's config that decide its graph (k) or its test split
# (seed, train fraction); an evaluation of its checkpoint must share them.
_COMPARED = ("k_neighbors", "seed", "train_fraction")


def _fingerprint(dataset: Dataset, fused: np.ndarray) -> str:
    """sha256 of a normalized dataset and its fused features: the vertex
    count and modality widths, the features (`<f8`, C order), the labels
    (`<i8`) and the class names, each array hashed through its buffer, not
    copied. The widths are hashed, so the same columns split into other
    modalities, which give another graph, differ too."""
    widths = [X.shape[1] for X in dataset.modalities]
    h = hashlib.sha256(np.array([dataset.n, len(widths), *widths], dtype="<i8"))
    h.update(np.ascontiguousarray(fused, dtype="<f8"))
    h.update(np.ascontiguousarray(dataset.labels, dtype="<i8"))
    h.update(json.dumps(dataset.class_names).encode())
    return h.hexdigest()


def _record_path(checkpoint) -> Path:
    """The run record beside a checkpoint: `checkpoint.json` -> `checkpoint.meta.json`."""
    return Path(checkpoint).with_suffix(".meta.json")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# the hypergraph's member lists, which a run record holds as the base64
# text of their `<i4` bytes
_MEMBERS = ("indptr", "indices")


def _b64(array: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(array, dtype=dtype)).decode()


def _decoded(text, dtype: str) -> np.ndarray:
    """The array whose bytes `text` holds as base64: text that is not
    base64, or not whole items of `dtype`, is a ValueError; a non-string a
    TypeError."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype)


def save_record(structure: Structure, cfg: TrainConfig, checkpoint) -> None:
    """Write, beside the checkpoint file of a training on `structure` under
    `cfg`, its run record: the config, the class names, the input width,
    the fingerprint of the normalized input, the hypergraph's member lists
    (`_MEMBERS`), the normalized input itself (the modality widths, the
    fused features as base64 `<f8` and the labels as base64 `<i4`), the
    sha256 of the CSV files it was read from (None for other input) and
    the sha256 of the checkpoint's bytes. It is compact, timestamp-free
    JSON, written atomically. A graph of 2**31 or more memberships, which
    int32 cannot index, is a DataError."""
    g = structure.graph
    if g.indices.size >= 2**31:
        raise DataError(f"the graph's {g.indices.size} memberships do not fit a run record's int32")
    dataset = structure.dataset
    record = {
        "config": cfg.to_dict(),
        "class_names": dataset.class_names,
        "in_dim": structure.features.shape[1],
        "fingerprint": _fingerprint(dataset, structure.features.data),
        "graph": {
            "num_vertices": g.num_vertices,
            **{m: _b64(getattr(g, m), "<i4") for m in _MEMBERS},
        },
        "dataset": {
            "widths": [X.shape[1] for X in dataset.modalities],
            "features": _b64(structure.features.data, "<f8"),
            "labels": _b64(dataset.labels, "<i4"),
        },
        "inputs_sha256": dataset.inputs_sha256,
        "checkpoint_sha256": _sha256(checkpoint),
    }
    write_text_atomic(_record_path(checkpoint), json.dumps(record, separators=(",", ":")))


def load_structure(checkpoint, inputs: CsvInputs | Dataset, cfg: TrainConfig) -> Structure:
    """The structure of the run whose record is beside `checkpoint`, for
    the call's `inputs` under `cfg`: the normalized dataset and the
    hypergraph from the record, so no kNN graph is built and no CSV file is
    parsed. A missing or malformed record (its arrays must reproduce its
    fingerprint), a checkpoint other than the one the record was written
    with (checked first), a compared config field that differs from the
    run's (_COMPARED), another input or a graph that leaves a vertex in no
    hyperedge is a DataError, raised before any structure is built. The
    input is checked last: CSV files whose bytes hash to the record's
    `inputs_sha256` are the run's; other files, and a synthetic dataset,
    are parsed, normalized and compared by their fingerprint."""
    path = _record_path(checkpoint)
    try:
        with open(path) as fh:
            record = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(
            f"no run record at {path}; a checkpoint written without one must be retrained"
        ) from exc
    except ValueError as exc:
        raise DataError(f"malformed run record {path}: {exc}") from exc
    try:
        checkpoint_sha256, inputs_sha256 = record["checkpoint_sha256"], record["inputs_sha256"]
        run_cfg, stored, graph, data = (
            record["config"], record["fingerprint"], record["graph"], record["dataset"]
        )
        ran = {name: run_cfg[name] for name in _COMPARED}
        members = graph["num_vertices"], *(_decoded(graph[m], "<i4") for m in _MEMBERS)
        labels = _decoded(data["labels"], "<i4")
        fused = _decoded(data["features"], "<f8").reshape(labels.size, -1)
        modalities = np.split(fused, np.cumsum(data["widths"])[:-1], axis=1)
        dataset = Dataset(modalities, labels, record["class_names"], inputs_sha256)
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"malformed run record {path}: {exc!r}") from exc
    if stored != _fingerprint(dataset, fused):
        raise DataError(f"malformed run record {path}: its dataset does not reproduce its fingerprint")
    if checkpoint_sha256 != _sha256(checkpoint):
        raise DataError(
            f"{checkpoint} is not the checkpoint its run record was written with: "
            "its sha256 differs"
        )
    for name, value in ran.items():
        if value != getattr(cfg, name):
            raise DataError(
                f"checkpoint's run has {name}={value!r}, this call {name}={getattr(cfg, name)!r}"
            )
    if not (isinstance(inputs, CsvInputs) and inputs.sha256 == inputs_sha256):
        given = normalize(inputs.dataset() if isinstance(inputs, CsvInputs) else inputs)
        if stored != _fingerprint(given, np.hstack(given.modalities)):
            raise DataError("checkpoint's run had other input data: its fingerprint differs")
    if members[0] != dataset.n:
        raise DataError(f"malformed run record {path}: its graph has {members[0]!r} vertices")
    try:
        graph = Hypergraph.from_members(*members)
    except StructureError as exc:
        raise DataError(f"malformed run record {path}: {exc}") from exc
    # checked here, not when P is built, which a drop attack never does
    if graph.vertex_degrees.min() < 1:
        vertex = np.argmin(graph.vertex_degrees)
        raise DataError(f"malformed run record {path}: vertex {vertex} is in no hyperedge")
    return Structure(dataset, cfg.k_neighbors, Tensor(fused), graph)


def evaluate_state(prepared: Prepared, state: model.ModelState) -> MetricsReport:
    """Metrics of the model's softmax output on the held-out test vertices."""
    s = prepared.structure
    logits, _ = model.forward(s.features, s.graph, state, s.propagated_features)
    e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    return metrics.evaluate(e / e.sum(axis=1, keepdims=True), s.dataset.labels, prepared.test_mask)


def train(data: Dataset | Structure, cfg: TrainConfig) -> RunRecord:
    """Full protocol: prepare `data` (a dataset, or a structure shared
    across runs) and train with Adam under a linear lr decay to 0. The run
    is returned unevaluated; `evaluate_state` scores it."""
    start = time.perf_counter()
    prepared = prepare(data, cfg)
    s = prepared.structure
    state = model.init_params(
        in_dim=s.features.shape[1],
        hidden_dims=list(cfg.hidden_dims),
        num_classes=s.dataset.num_classes,
        rng=substream(cfg.seed, "init"),
    )
    opt = AdamState.for_params(state.params)
    trace = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr_initial * (1.0 - epoch / cfg.epochs)
        logits, per_layer = model.forward(s.features, s.graph, state, s.propagated_features)
        loss = losses.total_loss(
            logits, per_layer, s.dataset.labels, prepared.labeled_mask, cfg.loss
        )
        trace.append(float(loss.data[0, 0]))
        for p in state.params:
            p.zero_grad()
        loss.backward()
        adam_step(state.params, [p.grad for p in state.params], opt, lr)
    return RunRecord(
        loss_trace=trace,
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
