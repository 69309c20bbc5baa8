"""Dataset ingestion, [0,1] normalization, multi-modal fusion, a
synthetic Gaussian-cluster generator for desk-scale experiments, and
atomic artifact writes."""

from __future__ import annotations

import csv
import hashlib
import io
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import DataError, check_field_types
from .hypergraph import Hypergraph, build_knn_hyperedges, concat_hypergraphs
from .seeding import substream


@dataclass
class Dataset:
    """Per-modality feature matrices plus one integer class label per
    vertex, and the sha256 of the CSV files it was read from
    (`CsvInputs.sha256`), which `normalize` keeps: None for a dataset not
    read from files."""

    modalities: list[np.ndarray]
    labels: np.ndarray
    class_names: list[str]
    inputs_sha256: str | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int).reshape(-1)
        n = self.labels.shape[0]
        for i, X in enumerate(self.modalities):
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2 or X.shape[0] != n:
                raise DataError(f"modality {i}: expected {n} rows")
            self.modalities[i] = X
        c = len(self.class_names)
        if self.labels.min() < 0 or self.labels.max() >= c:
            raise DataError("label out of range")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass
class SynthConfig:
    """Gaussian class clusters per modality, ADNI-shaped defaults."""

    n: int = 240
    dims: tuple[int, ...] = (16, 16, 8)
    num_classes: int = 3
    separation: float = 2.0      # min class-mean distance in within-std units per sqrt(dim)
    within_std: float = 1.0
    label_noise: float = 0.15    # fraction of labels resampled uniformly
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not self.dims or min(self.dims) < 1:
            raise ValueError(f"dims must hold one or more widths of at least 1, got {self.dims!r}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be at least 2, got {self.num_classes}")
        if self.n < 2 * self.num_classes:
            raise ValueError("need at least two vertices per class")
        if self.separation < 0 or self.within_std <= 0:
            raise ValueError("separation >= 0 and within_std > 0 required")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ValueError("label_noise in [0, 1]")


class CsvInputs:
    """A dataset's CSV files, one per modality, in order, then the labels
    file. Each is read once, as bytes, when first needed: their sha256 and
    their parse come from the same bytes."""

    def __init__(self, feature_paths: list, label_path):
        if not feature_paths:
            raise DataError("no modality files given")
        self.feature_paths = list(feature_paths)
        self.label_path = label_path

    @cached_property
    def _contents(self) -> list[bytes]:
        return [Path(p).read_bytes() for p in [*self.feature_paths, self.label_path]]

    @cached_property
    def sha256(self) -> str:
        """One sha256 over every file's bytes, in order, each preceded by
        its length as 8 little-endian bytes. A byte-order mark is hashed as
        read."""
        h = hashlib.sha256()
        for content in self._contents:
            h.update(len(content).to_bytes(8, "little"))
            h.update(content)
        return h.hexdigest()

    def dataset(self) -> Dataset:
        """The files parsed. Every modality file must list the same ids in
        the same order; only the labels are looked up by id. Label values
        may be class names (mapped in sorted order) or integer indices."""
        *features, label_content = self._contents
        ids = None
        modalities = []
        for path, content in zip(self.feature_paths, features):
            file_ids, matrix = _read_feature_csv(path, content)
            if ids is None:
                ids = file_ids
            elif file_ids != ids:
                bad = next(
                    (a for a, b in zip(file_ids, ids) if a != b),
                    file_ids[-1] if len(file_ids) != len(ids) else "?",
                )
                raise DataError(f"{path}: row ids do not match (first offender: {bad})")
            modalities.append(matrix)

        label_map = _read_labels_csv(self.label_path, label_content)
        missing = [i for i in ids if i not in label_map]
        if missing:
            raise DataError(f"{self.label_path}: no label for id {missing[0]}")
        raw = [label_map[i] for i in ids]
        names = sorted(set(raw))
        if all(name.lstrip("-").isdigit() for name in names):
            labels = np.array([int(v) for v in raw])
            names = [str(c) for c in range(labels.max() + 1)]
        else:
            index = {name: i for i, name in enumerate(names)}
            labels = np.array([index[v] for v in raw])
        return Dataset(modalities, labels, names, inputs_sha256=self.sha256)


def load_csv(feature_paths: list, label_path) -> Dataset:
    """Read one CSV per modality plus a labels CSV (`CsvInputs`) and parse
    them."""
    return CsvInputs(feature_paths, label_path).dataset()


def _text(path, content: bytes) -> str:
    """`content` decoded as UTF-8 past any byte-order mark, or a DataError naming `path`."""
    try:
        return content.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _read_feature_csv(path, content: bytes) -> tuple[list[str], np.ndarray]:
    """The ids and the value matrix of a modality CSV's bytes, decoded as
    UTF-8 past any byte-order mark: the ids and field counts from the lines,
    the values by one `np.loadtxt`. Blank lines are skipped, as the csv
    module skips them; a file holding a quote character is split into
    fields by the csv module."""
    text = _text(path, content)
    # (line number, id, field count, line whose fields after the first are the values)
    if '"' in text:
        reader = csv.reader(io.StringIO(text, newline=""))
        rows = [(reader.line_num, r[0], len(r), ",".join(["", *r[1:]])) for r in reader if r]
        # a quoted value holding a comma is no number, and joined it reads as two
        if any(r[3].count(",") != r[2] - 1 for r in rows[1:]):
            raise DataError(f"{path}: unparsable value (a comma inside a value)")
    else:
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        rows = [
            (number, line.partition(",")[0], line.count(",") + 1, line)
            for number, line in enumerate(lines, start=1)
            if line
        ]
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows")
    _, first, width, _ = rows[0]
    if first.strip().lower() != "id":
        raise DataError(f"{path}: first column must be 'id'")
    ids = [r[1] for r in rows[1:]]
    if len(set(ids)) != len(ids):
        seen = Counter(ids)
        dup = next(i for i in ids if seen[i] > 1)
        raise DataError(f"{path}: duplicate id {dup}")
    ragged = next((r for r in rows[1:] if r[2] != width), None)
    if ragged is not None:
        raise DataError(f"{path}: line {ragged[0]} has {ragged[2]} fields, the header {width}")
    if width < 2:
        raise DataError(f"{path}: expected at least one feature column")
    try:
        matrix = np.loadtxt(
            [r[3] for r in rows[1:]], delimiter=",", comments=None,
            usecols=range(1, width), ndmin=2,
        )
    except ValueError as exc:
        raise DataError(f"{path}: unparsable value ({exc})") from exc
    return ids, matrix


def write_text_atomic(path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then move it into
    place, so a reader sees the old file or the whole new one, never part."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_labels_csv(path, content: bytes) -> dict:
    """id -> label of a labels CSV's bytes, decoded as UTF-8 past any
    byte-order mark."""
    rows = [r for r in csv.reader(io.StringIO(_text(path, content), newline="")) if r]
    if len(rows) < 2 or [c.strip().lower() for c in rows[0][:2]] != ["id", "label"]:
        raise DataError(f"{path}: expected 'id,label' header")
    out = {}
    for r in rows[1:]:
        if r[0] in out:
            raise DataError(f"{path}: duplicate id {r[0]}")
        label = r[1].strip() if len(r) > 1 else ""
        if not label:
            raise DataError(f"{path}: no label for id {r[0]}")
        out[r[0]] = label
    return out


def normalize(dataset: Dataset) -> Dataset:
    """Per-column min-max scaling to [0,1]; constant columns map to 0.5."""
    scaled = []
    for X in dataset.modalities:
        if not np.isfinite(X).all():
            raise DataError("non-finite feature values")
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        span = hi - lo
        constant = span == 0
        span = np.where(constant, 1.0, span)
        Y = (X - lo) / span
        Y[:, constant] = 0.5
        scaled.append(Y)
    return Dataset(
        modalities=scaled,
        labels=dataset.labels.copy(),
        class_names=list(dataset.class_names),
        inputs_sha256=dataset.inputs_sha256,
    )


def fuse_and_build(dataset: Dataset, k: int) -> tuple[Tensor, Hypergraph]:
    """Per-modality kNN hypergraphs concatenated edge-wise; features
    concatenated column-wise into the layer-1 input."""
    graphs = [build_knn_hyperedges(X, k) for X in dataset.modalities]
    fused = np.hstack(dataset.modalities)
    return Tensor(fused), concat_hypergraphs(graphs)


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Balanced Gaussian clusters; class means scaled so their minimum
    pairwise distance is separation * within_std * sqrt(dim). The features
    are raw; `trainer.build` or `trainer.load_structure` normalizes them."""
    rng = substream(cfg.seed, "synth")
    labels = np.arange(cfg.n) % cfg.num_classes
    labels = labels[rng.permutation(cfg.n)]

    modalities = []
    for d in cfg.dims:
        means = np.zeros((cfg.num_classes, d))
        if cfg.separation > 0:
            raw = rng.normal(size=(cfg.num_classes, d))
            dmin = min(
                np.linalg.norm(raw[a] - raw[b])
                for a in range(cfg.num_classes)
                for b in range(a + 1, cfg.num_classes)
            )
            means = raw * (cfg.separation * cfg.within_std * np.sqrt(d) / dmin)
        X = means[labels] + rng.normal(scale=cfg.within_std, size=(cfg.n, d))
        modalities.append(X)

    if cfg.label_noise > 0:
        flip = rng.choice(cfg.n, size=round(cfg.label_noise * cfg.n), replace=False)
        labels = labels.copy()
        labels[flip] = rng.integers(0, cfg.num_classes, size=flip.size)

    names = ["NC", "MCI", "AD"]
    if cfg.num_classes != 3:
        names = [f"class_{c}" for c in range(cfg.num_classes)]
    return Dataset(modalities=modalities, labels=labels, class_names=names)
