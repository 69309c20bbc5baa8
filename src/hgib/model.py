"""Spatial hypergraph convolution stack with per-layer projection heads."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import write_text_atomic
from .errors import DataError, ShapeError
from .hypergraph import Hypergraph


@dataclass
class ModelState:
    """Trainable parameters: one conv weight and one projector per layer."""

    thetas: list[Tensor]
    projectors: list[Tensor]

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
    x: Tensor, g: Hypergraph, theta: Tensor, px: Tensor | None = None, rows: np.ndarray | None = None
) -> Tensor:
    """One spatial convolution: mean vertex->hyperedge, mean hyperedge->vertex,
    linear map, ReLU. Equivalent to relu(Dv^-1 H De^-1 H^T X Theta); the
    map and the ReLU are one tape op, `relu_matmul`, so the tape keeps no
    pre-activation.

    `px` is P @ x when the caller already holds it: a constant first-layer
    input is propagated once (`trainer.Structure.propagated_features`), not
    on every pass.

    `rows`, an index array, limits the output to those vertices: x is
    propagated through those rows of P, gathered once, or a given `px`,
    which is then a constant, is read at those rows."""
    if x.shape[0] != g.num_vertices:
        raise ShapeError(
            f"feature rows {x.shape[0]} != vertex count {g.num_vertices}"
        )
    if theta.shape[0] != x.shape[1]:
        raise ShapeError(f"theta rows {theta.shape[0]} != feature dim {x.shape[1]}")
    if px is None:
        p = g.propagation()
        px = ad.propagate(p if rows is None else p[rows], x)
    elif px.shape != x.shape:
        raise ShapeError(f"propagated input {px.shape} != feature shape {x.shape}")
    elif rows is not None:
        px = Tensor(px.data[rows])
    return ad.relu_matmul(px, theta)


def forward(
    x: Tensor, g: Hypergraph, state: ModelState, px: Tensor | None = None, rows: np.ndarray | None = None
) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
    """Full stack. Returns final-layer logits plus (activation, logits) per
    layer; `px` is P @ x if precomputed, as in `hgnnp_layer_forward`.

    With `rows`, the last layer and its projector run on those vertices
    only, so its pair and the logits hold those rows; every earlier layer
    runs on all vertices, which their neighbourhoods read."""
    per_layer = []
    z = x
    last = len(state.thetas) - 1
    for i, (theta, w_out) in enumerate(zip(state.thetas, state.projectors)):
        z = hgnnp_layer_forward(z, g, theta, px if i == 0 else None, rows if i == last else None)
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
    write_text_atomic(path, json.dumps(payload))


def load_checkpoint(path) -> ModelState:
    """The saved state, checked to be a list of {name, rows, cols, values}
    objects naming theta_i and w_out_i for i < n, and to form a chain:
    theta_i's rows are the previous layer's width, and each w_out_i maps
    theta_i's width to one common class count. Any other content is
    DataError("malformed checkpoint <path>: ..."); a missing file is
    FileNotFoundError."""
    tensors = {}
    try:
        with open(path) as fh:
            payload = json.load(fh)
        for entry in payload:
            arr = np.array(entry["values"], dtype=np.float64).reshape(entry["rows"], entry["cols"])
            tensors[entry["name"]] = Tensor(arr, requires_grad=True)
        n_layers = len(tensors) // 2
        state = ModelState(
            thetas=[tensors["theta_%d" % i] for i in range(n_layers)],
            projectors=[tensors["w_out_%d" % i] for i in range(n_layers)],
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc!r}") from exc
    if n_layers == 0 or len(tensors) != 2 * n_layers:
        raise DataError(f"malformed checkpoint {path}: its entries are not theta_i, w_out_i pairs for i < n")
    num_classes = state.projectors[0].shape[1]
    for i, (theta, w_out) in enumerate(zip(state.thetas, state.projectors)):
        if i and theta.shape[0] != state.thetas[i - 1].shape[1]:
            raise DataError(
                f"malformed checkpoint {path}: theta_{i} has {theta.shape[0]} rows, "
                f"previous layer width is {state.thetas[i - 1].shape[1]}"
            )
        if w_out.shape != (theta.shape[1], num_classes):
            raise DataError(
                f"malformed checkpoint {path}: w_out_{i} is {w_out.shape}, "
                f"expected {(theta.shape[1], num_classes)}"
            )
    return state
