"""Hypergraphs stored as member lists, kNN hyperedge construction, and the
propagation matrix built from co-membership counts."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DataError, StructureError


class Hypergraph:
    """Immutable hypergraph over n vertices. Hyperedge e's members are
    `indices[indptr[e]:indptr[e + 1]]` (CSR), ascending and distinct.

    `Hypergraph(H)` takes a dense binary n x |E| incidence matrix;
    `Hypergraph.from_members` takes the member lists directly."""

    def __init__(self, incidence: np.ndarray):
        incidence = np.asarray(incidence, dtype=np.float64)
        if incidence.ndim != 2:
            raise StructureError("incidence matrix must be 2-D")
        if not np.isin(incidence, (0.0, 1.0)).all():
            raise StructureError("incidence entries must be exactly 0 or 1")
        # row-major over H^T: each edge's members in ascending order
        edges, members = np.nonzero(incidence.T)
        sizes = np.bincount(edges, minlength=incidence.shape[1])
        self._set_members(incidence.shape[0], _offsets(sizes), members)

    @classmethod
    def from_members(
        cls, num_vertices: int, indptr: np.ndarray, indices: np.ndarray
    ) -> Hypergraph:
        """The hypergraph whose edge e holds `indices[indptr[e]:indptr[e + 1]]`."""
        g = cls.__new__(cls)
        g._set_members(num_vertices, indptr, indices)
        return g

    def _set_members(self, num_vertices: int, indptr, indices) -> None:
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        if indptr.ndim != 1 or indices.ndim != 1 or indptr.size < 1:
            raise StructureError("member lists must be 1-D with indptr non-empty")
        if indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu":
            raise StructureError("member lists must hold integers")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise StructureError("indptr must run from 0 to the member count")
        sizes = np.diff(indptr)
        if (sizes < 1).any():
            raise StructureError("empty hyperedge")
        if indices.size and (indices.min() < 0 or indices.max() >= num_vertices):
            raise StructureError("member index outside the vertex set")
        steps = np.diff(indices)
        steps[indptr[1:-1] - 1] = 1   # an edge's first member may be anything
        if (steps < 1).any():
            raise StructureError("an edge's members must be ascending and distinct")
        self.num_vertices = int(num_vertices)
        self.indptr = indptr.astype(np.intp)
        self.indices = indices.astype(np.intp)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self.edge_degrees = sizes
        self.vertex_degrees = np.bincount(self.indices, minlength=self.num_vertices)

    @property
    def num_hyperedges(self) -> int:
        return self.indptr.size - 1

    @property
    def incidence(self) -> np.ndarray:
        """The dense binary n x |E| matrix H, built on each access; training,
        evaluation and the attacks never need it."""
        H = np.zeros((self.num_vertices, self.num_hyperedges))
        H[self.indices, np.repeat(np.arange(self.num_hyperedges), self.edge_degrees)] = 1.0
        return H

    def edge_subset(self, keep: np.ndarray) -> Hypergraph:
        """The hypergraph of the edges where the boolean mask `keep` is set,
        in order, over the same vertices."""
        members = np.repeat(keep, self.edge_degrees)
        return Hypergraph.from_members(
            self.num_vertices, _offsets(self.edge_degrees[keep]), self.indices[members]
        )

    def propagation(self) -> np.ndarray:
        """Dv^-1 H De^-1 H^T, built once and read-only; the linear part of
        one convolution layer, shared by every forward pass so that none
        copies the n x n matrix."""
        return self._propagation

    @cached_property
    def _propagation(self) -> np.ndarray:
        """P[u, w] = sum over the edges e holding u and w of 1 / |e|, over dv[u]:
        for each edge size (a kNN graph has one), the integer co-membership
        count c of that size's edges, as (c / size) / dv[u], summed over the
        sizes in ascending order.

        P is the one n x n array. It is filled a block of rows at a time:
        each size's memberships are grouped by vertex once, and a block's
        counts come from one `bincount` over the member rows of the edges
        its vertices belong to, into a block-sized buffer. No array of all
        the member pairs is formed. The counts are looked up in a table of
        (c / size) / dv[u] per block row u and count c <= dv[u]."""
        if (self.vertex_degrees < 1).any():
            raise StructureError("vertex with no hyperedge membership")
        n = self.num_vertices
        rows = max(1, _P_CHUNK // n)
        cuts = np.append(np.arange(0, n, rows), n)
        dv = self.vertex_degrees[:, None]
        sizes = np.flatnonzero(np.bincount(self.edge_degrees))   # distinct, ascending
        width = int(self.vertex_degrees.max()) + 1   # a row's counts are at most its degree
        P = np.empty((n, n))
        for i, size in enumerate(sizes):
            starts = self.indptr[:-1][self.edge_degrees == size]
            members = self.indices[starts[:, None] + np.arange(size)]
            # memberships grouped by vertex: (vertex, edge) in vertex order.
            # Counts do not depend on the order within a group, so any sort
            # will do; the sort's indices become the edges in place.
            edges = np.argsort(members, axis=None)
            vertices = members.ravel()[edges]
            edges //= size
            bounds = np.searchsorted(vertices, cuts)
            for lo, hi, a, b in zip(cuts[:-1], cuts[1:], bounds[:-1], bounds[1:]):
                # (u, w) for each block vertex u and co-member w, as the flat
                # index of counts[u - lo, w]
                pairs = np.take(members, edges[a:b], axis=0)
                pairs += ((vertices[a:b] - lo) * n)[:, None]
                counts = np.bincount(pairs.ravel(), minlength=(hi - lo) * n).reshape(hi - lo, n)
                del pairs
                table = (np.arange(width) / size) / dv[lo:hi]
                counts += (np.arange(hi - lo) * width)[:, None]   # row u's counts index its own table row
                if i == 0:
                    np.take(table, counts, out=P[lo:hi], mode="clip")   # "raise" would buffer
                else:
                    P[lo:hi] += np.take(table, counts, mode="clip")
                del counts   # so that no two blocks' buffers are held at once
        P.setflags(write=False)
        return P


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """CSR indptr of edges with the given member counts."""
    return np.concatenate(([0], np.cumsum(sizes)))


_KNN_BLOCK = 64      # rows of distances formed and ranked at a time
_P_CHUNK = 1 << 15   # entries of P counted and formed at a time: a block of rows


def build_knn_hyperedges(X: np.ndarray, k: int) -> Hypergraph:
    """One hyperedge per vertex: the vertex plus its k nearest neighbors.

    Squared Euclidean distance rounded to 12 decimals; ties broken by
    ascending vertex index, so the result is deterministic.

    The distances (|x_u|^2 + |x_w|^2) - 2 x_u.x_w are formed a block of
    rows at a time. Rounding is monotone, so a row whose (k+1)-th smallest
    distance rounds above its k-th has as members the k candidates at or
    below the k-th, unrounded; only the other rows are rounded and ranked
    by (distance, index).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("feature matrix must be n x d with n >= 1")
    if not np.isfinite(X).all():
        raise DataError("non-finite feature values")
    n = X.shape[0]
    if not 0 <= k < n:
        raise ValueError(f"k must satisfy 0 <= k < n, got k={k}, n={n}")
    if k == 0:
        return Hypergraph.from_members(n, np.arange(n + 1), np.arange(n))
    sq = (X * X).sum(axis=1)
    # Each block's products are one GEMM, (2X)[lo:hi] @ X^T, against an X^T
    # made contiguous once; no n x n Gram matrix is built. Doubling is exact,
    # so each product is 2 x_u.x_w bit for bit, and the GEMM sums it over the
    # features in one order whichever block holds row u. Every block has
    # `rows` rows (the last overlaps the one before): a 1-row product would
    # run as a GEMV, which sums in another order.
    X2, XT = 2.0 * X, np.ascontiguousarray(X.T)
    members = np.empty((n, k + 1), dtype=np.intp)
    rows = min(_KNN_BLOCK, n)
    d2, ranked = np.empty((rows, n)), np.empty((rows, n))
    near = np.empty((rows, n), dtype=bool)
    own = np.arange(rows)
    for lo in range(0, n, rows):
        lo = min(lo, n - rows)
        hi = lo + rows
        np.matmul(X2[lo:hi], XT, out=ranked)   # the products, until the ranking
        np.add(sq[lo:hi, None], sq, out=d2)
        d2 -= ranked
        d2[own, lo + own] = np.inf
        np.copyto(ranked, d2)
        ranked.partition(k, axis=1)
        kth = ranked[:, :k].max(axis=1)
        if not np.isfinite(kth).all():
            raise DataError("squared distances overflow")
        np.less_equal(d2, kth[:, None], out=near)
        # rows whose (k+1)-th nearest ties the k-th once rounded
        tied = np.flatnonzero(np.round(ranked[:, k], 12) == np.round(kth, 12))
        if tied.size:
            order = np.argsort(np.round(d2[tied], 12), axis=1, kind="stable")[:, :k]
            near[tied] = False
            near[tied[:, None], order] = True
        near[own, lo + own] = True
        members[lo:hi] = np.flatnonzero(near).reshape(-1, k + 1) - (own * n)[:, None]
    return Hypergraph.from_members(n, np.arange(0, n * (k + 1) + 1, k + 1), members.ravel())


def concat_hypergraphs(graphs: list[Hypergraph]) -> Hypergraph:
    """Edge-wise concatenation over a shared vertex set, in order."""
    if not graphs:
        raise ValueError("need at least one hypergraph")
    n = graphs[0].num_vertices
    if any(g.num_vertices != n for g in graphs):
        raise StructureError("hypergraphs disagree on vertex count")
    sizes = np.concatenate([g.edge_degrees for g in graphs])
    indices = np.concatenate([g.indices for g in graphs])
    return Hypergraph.from_members(n, _offsets(sizes), indices)
