"""Spatial hypergraph convolution stack with per-layer projection heads."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, ShapeError
from .hypergraph import Hypergraph


@dataclass
class ModelState:
    """Trainable parameters: one conv weight and one projector per layer."""

    thetas: list[Tensor]
    projectors: list[Tensor]

    @property
    def num_layers(self) -> int:
        return len(self.thetas)

    @property
    def params(self) -> list[Tensor]:
        return self.thetas + self.projectors


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(
    in_dim: int,
    hidden_dims: list[int],
    num_classes: int,
    rng: np.random.Generator,
) -> ModelState:
    """Glorot-uniform initialization, deterministic for a given generator state."""
    widths = [in_dim] + list(hidden_dims)
    thetas = [
        Tensor(glorot_uniform(rng, widths[i], widths[i + 1]), requires_grad=True)
        for i in range(len(hidden_dims))
    ]
    projectors = [
        Tensor(glorot_uniform(rng, w, num_classes), requires_grad=True)
        for w in widths[1:]
    ]
    return ModelState(thetas=thetas, projectors=projectors)


def hgnnp_layer_forward(
    x: Tensor, g: Hypergraph, theta: Tensor, px: Tensor | None = None
) -> Tensor:
    """One spatial convolution: mean vertex->hyperedge, mean hyperedge->vertex,
    linear map, ReLU. Equivalent to relu(Dv^-1 H De^-1 H^T X Theta).

    `px` is P @ x when the caller already holds it: a constant first-layer
    input is propagated once (`trainer.Prepared.propagated_features`), not
    on every pass."""
    if x.shape[0] != g.num_vertices:
        raise ShapeError(
            f"feature rows {x.shape[0]} != vertex count {g.num_vertices}"
        )
    if theta.shape[0] != x.shape[1]:
        raise ShapeError(f"theta rows {theta.shape[0]} != feature dim {x.shape[1]}")
    if px is None:
        px = ad.matmul(g.propagation_tensor, x)
    elif px.shape != x.shape:
        raise ShapeError(f"propagated input {px.shape} != feature shape {x.shape}")
    return ad.relu(ad.matmul(px, theta))


def forward(
    x: Tensor, g: Hypergraph, state: ModelState, px: Tensor | None = None
) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
    """Full stack. Returns final-layer logits plus (activation, logits) per
    layer; `px` is P @ x if precomputed, as in `hgnnp_layer_forward`."""
    per_layer = []
    z = x
    for i, (theta, w_out) in enumerate(zip(state.thetas, state.projectors)):
        z = hgnnp_layer_forward(z, g, theta, px if i == 0 else None)
        per_layer.append((z, ad.matmul(z, w_out)))
    return per_layer[-1][1], per_layer


def save_checkpoint(state: ModelState, path) -> None:
    entries = []
    for i, t in enumerate(state.thetas):
        entries.append(("theta_%d" % i, t))
    for i, w in enumerate(state.projectors):
        entries.append(("w_out_%d" % i, w))
    payload = [
        {
            "name": name,
            "rows": t.shape[0],
            "cols": t.shape[1],
            "values": t.data.ravel().tolist(),
        }
        for name, t in entries
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> ModelState:
    with open(path) as fh:
        payload = json.load(fh)
    tensors = {}
    for entry in payload:
        arr = np.array(entry["values"]).reshape(entry["rows"], entry["cols"])
        tensors[entry["name"]] = Tensor(arr, requires_grad=True)
    n_layers = sum(1 for name in tensors if name.startswith("theta_"))
    if n_layers == 0 or len(tensors) != 2 * n_layers:
        raise DataError("malformed checkpoint")
    return ModelState(
        thetas=[tensors["theta_%d" % i] for i in range(n_layers)],
        projectors=[tensors["w_out_%d" % i] for i in range(n_layers)],
    )
