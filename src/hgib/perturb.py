"""Test-time robustness attacks: random hyperedge dropping and Gaussian
feature noise, plus re-evaluation of a trained model under either."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model
from .autodiff import Tensor
from .errors import StructureError, check_field_types
from .hypergraph import Hypergraph
from .metrics import MetricsReport
from .seeding import substream
from .trainer import Prepared, evaluate_state

_DROP_RETRIES = 100


@dataclass
class AttackConfig:
    kind: str = "none"           # none | drop | noise
    drop_fraction: float = 0.2
    rho: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in ("none", "drop", "noise"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not 0.0 <= self.drop_fraction < 1.0:
            raise ValueError("drop_fraction in [0, 1)")
        if self.rho < 0:
            raise ValueError("rho >= 0 required")


def drop_count(g: Hypergraph, fraction: float) -> int:
    """floor(fraction * |E|): the number of hyperedges a drop removes. At 0
    the drop returns `g` itself."""
    return int(np.floor(fraction * g.num_hyperedges))


def drop_hyperedges(g: Hypergraph, fraction: float, seed: int) -> Hypergraph:
    """Remove a uniformly random drop_count(g, fraction) hyperedges,
    resampling (bounded) until every vertex keeps at least one membership."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction in [0, 1)")
    n_drop = drop_count(g, fraction)
    if n_drop == 0:
        return g
    rng = substream(seed, "attack")
    for _ in range(_DROP_RETRIES):
        dropped = rng.choice(g.num_hyperedges, size=n_drop, replace=False)
        keep = np.ones(g.num_hyperedges, dtype=bool)
        keep[dropped] = False
        sub = g.edge_subset(keep)
        if sub.vertex_degrees.min() >= 1:
            return sub
    raise StructureError("could not drop hyperedges without uncovering a vertex")


def inject_feature_noise(X: np.ndarray, rho: float, seed: int) -> np.ndarray:
    """X + rho * r * E with E i.i.d. standard normal and r the mean of the
    per-dimension feature maxima; identity at rho=0."""
    X = np.asarray(X, dtype=np.float64)
    if rho == 0.0:
        return X.copy()
    rng = substream(seed, "attack")
    r = float(X.max(axis=0).mean())
    return X + rho * r * rng.standard_normal(X.shape)


def attacked(prepared: Prepared, cfg: AttackConfig) -> Prepared:
    """A copy of the prepared structure with the configured perturbation
    drawn; `prepared` is left as it was. The noise attack keeps the clean
    graph, the drop attack the clean features."""
    structure = prepared.structure
    if cfg.kind == "drop":
        structure = replace(
            structure, graph=drop_hyperedges(structure.graph, cfg.drop_fraction, cfg.seed)
        )
    elif cfg.kind == "noise":
        noisy = inject_feature_noise(structure.features.data, cfg.rho, cfg.seed)
        structure = replace(structure, features=Tensor(noisy))
    return replace(prepared, structure=structure)


def attack_evaluate(
    prepared: Prepared, state: model.ModelState, cfg: AttackConfig
) -> MetricsReport:
    """Evaluate the trained model on `attacked(prepared, cfg)`; no retraining."""
    return evaluate_state(attacked(prepared, cfg), state)
