"""Incidence-matrix hypergraphs and kNN hyperedge construction."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .autodiff import Tensor
from .errors import DataError, StructureError


class Hypergraph:
    """Immutable hypergraph over n vertices, stored as a binary n x |E| incidence matrix."""

    def __init__(self, incidence: np.ndarray):
        incidence = np.asarray(incidence, dtype=np.float64)
        if incidence.ndim != 2:
            raise StructureError("incidence matrix must be 2-D")
        if not np.isin(incidence, (0.0, 1.0)).all():
            raise StructureError("incidence entries must be exactly 0 or 1")
        self.incidence = incidence
        self.incidence.setflags(write=False)
        self.vertex_degrees = incidence.sum(axis=1)
        self.edge_degrees = incidence.sum(axis=0)
        if self.num_hyperedges and self.edge_degrees.min() < 1:
            raise StructureError("empty hyperedge")

    @property
    def num_vertices(self) -> int:
        return self.incidence.shape[0]

    @property
    def num_hyperedges(self) -> int:
        return self.incidence.shape[1]

    def vertex_to_edge(self) -> np.ndarray:
        """De^-1 H^T: averages vertex features into each hyperedge."""
        return self.incidence.T / self.edge_degrees[:, None]

    def edge_to_vertex(self) -> np.ndarray:
        """Dv^-1 H: averages hyperedge features back onto vertices."""
        if self.vertex_degrees.min() < 1:
            raise StructureError("vertex with no hyperedge membership")
        return self.incidence / self.vertex_degrees[:, None]

    def propagation(self) -> np.ndarray:
        """Dv^-1 H De^-1 H^T, built once and read-only; the linear part of
        one convolution layer."""
        return self.propagation_tensor.data

    @cached_property
    def propagation_tensor(self) -> Tensor:
        """The propagation matrix as a constant tape operand, shared by every
        forward pass so that none copies the n x n matrix."""
        return Tensor.constant(self.edge_to_vertex() @ self.vertex_to_edge())


def build_knn_hyperedges(X: np.ndarray, k: int) -> Hypergraph:
    """One hyperedge per vertex: the vertex plus its k nearest neighbors.

    Euclidean distance; ties broken by ascending vertex index, so the
    result is deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("feature matrix must be n x d with n >= 1")
    if not np.isfinite(X).all():
        raise DataError("non-finite feature values")
    n = X.shape[0]
    if not 0 <= k < n:
        raise ValueError(f"k must satisfy 0 <= k < n, got k={k}, n={n}")
    sq = (X * X).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, np.inf)
    # stable argsort on distance keeps ascending-index order among ties
    order = np.argsort(np.round(d2, 12), axis=1, kind="stable")
    H = np.zeros((n, n))
    H[np.arange(n), np.arange(n)] = 1.0
    for v in range(n):
        H[order[v, :k], v] = 1.0
    return Hypergraph(H)


def concat_hypergraphs(graphs: list[Hypergraph]) -> Hypergraph:
    """Column-wise concatenation of incidence matrices over a shared vertex set."""
    if not graphs:
        raise ValueError("need at least one hypergraph")
    n = graphs[0].num_vertices
    if any(g.num_vertices != n for g in graphs):
        raise StructureError("hypergraphs disagree on vertex count")
    return Hypergraph(np.hstack([g.incidence for g in graphs]))
