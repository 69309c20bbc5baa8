"""Seeded CSV inputs for the benchmark, made without the package.

The shape follows the package's default fixture: three modalities of
16/16/8 columns, three balanced classes drawn as Gaussian clusters whose
means sit `separation * sqrt(dim)` apart at least, and a share of labels
resampled uniformly. The generator is the benchmark's own, so a change to
`hgib.data.generate_synthetic` cannot change what the program is fed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASS_NAMES = ("NC", "MCI", "AD")


@dataclass(frozen=True)
class InputSpec:
    n: int
    dims: tuple[int, ...] = (16, 16, 8)
    separation: float = 2.0
    label_noise: float = 0.15


def make_arrays(
    spec: InputSpec, seed: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Raw feature matrices per modality, the labels written out (with
    noise) and the labels the clusters were drawn from, both as indices
    into CLASS_NAMES."""
    rng = np.random.default_rng([seed, spec.n])
    k = len(CLASS_NAMES)
    labels = rng.permutation(np.arange(spec.n) % k)
    modalities = []
    for d in spec.dims:
        raw = rng.normal(size=(k, d))
        dmin = min(
            np.linalg.norm(raw[a] - raw[b]) for a in range(k) for b in range(a + 1, k)
        )
        means = raw * (spec.separation * np.sqrt(d) / dmin)
        modalities.append(means[labels] + rng.normal(size=(spec.n, d)))
    noisy = labels.copy()
    flip = rng.choice(spec.n, size=round(spec.label_noise * spec.n), replace=False)
    noisy[flip] = rng.integers(0, k, size=flip.size)
    return modalities, noisy, labels


def write_inputs(
    spec: InputSpec, seed: int, out: Path
) -> tuple[list[Path], Path, list[str]]:
    """Write `modality_<i>.csv` (id + feature columns) and `labels.csv`
    (id,label with class names). Return the paths and the noise-free class
    name of each row, which only the checks see."""
    out.mkdir(parents=True, exist_ok=True)
    modalities, labels, clean = make_arrays(spec, seed)
    ids = [f"s{i:05d}" for i in range(spec.n)]
    feature_paths = []
    for m, X in enumerate(modalities):
        path = out / f"modality_{m}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id"] + [f"m{m}_f{j}" for j in range(X.shape[1])])
            for vid, row in zip(ids, X):
                w.writerow([vid] + [repr(float(v)) for v in row])
        feature_paths.append(path)
    label_path = out / "labels.csv"
    with open(label_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "label"])
        for vid, lab in zip(ids, labels):
            w.writerow([vid, CLASS_NAMES[lab]])
    return feature_paths, label_path, [CLASS_NAMES[c] for c in clean]
