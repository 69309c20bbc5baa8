import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hgib.hypergraph
from hgib.errors import DataError, StructureError
from hgib.hypergraph import Hypergraph, build_knn_hyperedges, concat_hypergraphs
from hgib.perturb import drop_hyperedges

from conftest import random_hypergraph
from oracles import knn_incidence_oracle, propagation_by_size_oracle, propagation_oracle

# (seed, n, k) with 0 <= k < n
knn_cases = st.integers(2, 40).flatmap(
    lambda n: st.tuples(st.integers(0, 2**32 - 1), st.just(n), st.integers(0, n - 1))
)


def edge_set(g, e):
    return set(np.flatnonzero(g.incidence[:, e]))


class TestBuildKnn:
    def test_line_with_tie(self):
        g = build_knn_hyperedges(np.array([[0.0], [1.0], [2.0]]), k=1)
        assert edge_set(g, 0) == {0, 1}
        # v1 is equidistant from v0 and v2; lower index wins
        assert edge_set(g, 1) == {0, 1}
        assert edge_set(g, 2) == {1, 2}

    def test_k_zero_gives_singletons(self):
        g = build_knn_hyperedges(np.random.default_rng(0).normal(size=(5, 3)), k=0)
        assert g.num_hyperedges == 5
        for v in range(5):
            assert edge_set(g, v) == {v}

    def test_identical_rows_tie_break(self):
        g = build_knn_hyperedges(np.ones((4, 2)), k=2)
        assert edge_set(g, 3) == {3, 0, 1}
        assert edge_set(g, 0) == {0, 1, 2}

    def test_edge_degrees_are_k_plus_one(self):
        X = np.random.default_rng(1).normal(size=(10, 4))
        g = build_knn_hyperedges(X, k=3)
        np.testing.assert_array_equal(g.edge_degrees, np.full(10, 4))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        g = build_knn_hyperedges(X, k=4)
        for v in range(12):
            dists = np.linalg.norm(X - X[v], axis=1)
            dists[v] = np.inf
            expected = set(np.argsort(dists, kind="stable")[:4]) | {v}
            assert edge_set(g, v) == expected

    def test_self_membership(self):
        X = np.random.default_rng(3).normal(size=(8, 2))
        g = build_knn_hyperedges(X, k=3)
        assert all(g.incidence[v, v] == 1 for v in range(8))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(9, 3))  # distinct distances almost surely
        perm = rng.permutation(9)
        g = build_knn_hyperedges(X, k=3)
        gp = build_knn_hyperedges(X[perm], k=3)
        # edge of relabeled vertex i equals relabeled edge of perm[i]
        inv = np.argsort(perm)
        for i in range(9):
            assert edge_set(gp, i) == {inv[v] for v in edge_set(g, perm[i])}

    @settings(max_examples=60, deadline=None)
    @given(knn_cases, st.integers(1, 5))
    def test_members_equal_oracle_on_random_features(self, case, d):
        seed, n, k = case
        X = np.random.default_rng(seed).normal(size=(n, d))
        g = build_knn_hyperedges(X, k)
        np.testing.assert_array_equal(g.incidence, knn_incidence_oracle(X, k))

    @settings(max_examples=60, deadline=None)
    @given(knn_cases, st.integers(1, 3), st.integers(1, 3))
    def test_members_equal_oracle_on_integer_grid(self, case, d, levels):
        # few distinct coordinates: many vertices tie at the k-th distance
        seed, n, k = case
        X = np.random.default_rng(seed).integers(0, levels + 1, size=(n, d)).astype(float)
        g = build_knn_hyperedges(X, k)
        np.testing.assert_array_equal(g.incidence, knn_incidence_oracle(X, k))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 600),
        st.integers(1, 4),
        st.sampled_from(["normal", "integer", "duplicated"]),
        st.data(),
    )
    def test_members_equal_oracle_across_row_blocks(self, seed, n, d, kind, data):
        # distances are ranked a block of rows at a time: n up to 600 crosses
        # several blocks, and integer or repeated rows tie at the k-th distance
        rng = np.random.default_rng(seed)
        if kind == "normal":
            X = rng.normal(size=(n, d))
        elif kind == "integer":
            X = rng.integers(0, 4, size=(n, d)).astype(float)
        else:
            X = rng.normal(size=(max(n // 4, 1), d))[rng.integers(0, max(n // 4, 1), size=n)]
        k = data.draw(st.sampled_from(sorted({0, min(1, n - 1), n - 1})) | st.integers(0, n - 1))
        g = build_knn_hyperedges(X, k)
        np.testing.assert_array_equal(g.incidence, knn_incidence_oracle(X, k))

    def test_overflowing_distances_rejected(self):
        X = np.array([[1e200], [0.0], [1.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DataError, match="overflow"):
            build_knn_hyperedges(X, k=1)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            build_knn_hyperedges(np.zeros((3, 2)), k=3)

    def test_nonfinite_features(self):
        X = np.zeros((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(DataError):
            build_knn_hyperedges(X, k=1)


class TestConcat:
    def test_single_graph_identity(self):
        g = build_knn_hyperedges(np.random.default_rng(0).normal(size=(5, 2)), k=2)
        out = concat_hypergraphs([g])
        np.testing.assert_array_equal(out.incidence, g.incidence)

    def test_column_order_preserved(self):
        a = Hypergraph(np.eye(3))
        b = Hypergraph(np.ones((3, 3)))
        out = concat_hypergraphs([a, b])
        assert out.num_hyperedges == 6
        np.testing.assert_array_equal(out.incidence[:, :3], np.eye(3))
        np.testing.assert_array_equal(out.incidence[:, 3:], np.ones((3, 3)))

    def test_duplication_doubles_degrees(self):
        g = Hypergraph(random_hypergraph(np.random.default_rng(5), 6))
        out = concat_hypergraphs([g, g])
        np.testing.assert_array_equal(out.vertex_degrees, 2 * g.vertex_degrees)

    def test_associative(self):
        rng = np.random.default_rng(6)
        a, b, c = (Hypergraph(random_hypergraph(rng, 5)) for _ in range(3))
        left = concat_hypergraphs([concat_hypergraphs([a, b]), c])
        right = concat_hypergraphs([a, concat_hypergraphs([b, c])])
        np.testing.assert_array_equal(left.incidence, right.incidence)

    def test_mismatched_vertex_count(self):
        with pytest.raises(StructureError):
            concat_hypergraphs([Hypergraph(np.eye(3)), Hypergraph(np.eye(4))])


class TestMemberLists:
    def test_dense_round_trip(self):
        H = random_hypergraph(np.random.default_rng(11), 9, max_edges=5)
        g = Hypergraph(H)
        np.testing.assert_array_equal(g.incidence, H)
        again = Hypergraph.from_members(9, g.indptr, g.indices)
        np.testing.assert_array_equal(again.incidence, H)

    def test_knn_edge_is_vertex_plus_neighbors(self):
        g = build_knn_hyperedges(np.array([[0.0], [1.0], [2.0], [10.0]]), k=1)
        np.testing.assert_array_equal(g.indptr, [0, 2, 4, 6, 8])
        np.testing.assert_array_equal(g.indices, [0, 1, 0, 1, 1, 2, 2, 3])

    @pytest.mark.parametrize(
        "indptr, indices",
        [
            ([0, 2, 2], [0, 1]),        # empty edge
            ([0, 2], [1, 0]),           # members not ascending
            ([0, 2], [1, 1]),           # repeated member
            ([0, 2], [0, 3]),           # vertex outside 0..n-1
            ([0, 1], [-1]),
            ([0, 3], [0, 1]),           # indptr past the member count
            ([1, 2], [0, 1]),
            ([0.0, 2.0], [0, 1]),       # non-integer offsets
        ],
    )
    def test_malformed_members_rejected(self, indptr, indices):
        with pytest.raises(StructureError):
            Hypergraph.from_members(3, np.array(indptr), np.array(indices))

    def test_next_edge_may_restart_low(self):
        g = Hypergraph.from_members(3, np.array([0, 2, 4]), np.array([1, 2, 0, 1]))
        np.testing.assert_array_equal(g.vertex_degrees, [1, 2, 1])

    def test_edge_subset_keeps_order(self):
        H = random_hypergraph(np.random.default_rng(12), 8)
        keep = np.arange(8) % 3 != 1
        np.testing.assert_array_equal(Hypergraph(H).edge_subset(keep).incidence, H[:, keep])


class TestPropagation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 25), st.integers(1, 30))
    def test_equals_dense_oracle_on_ragged_graphs(self, seed, n, num_edges):
        H = random_hypergraph(np.random.default_rng(seed), n, max_edges=num_edges)
        H = H[:, H.sum(axis=0) > 0]   # with more edges than vertices, some may be empty
        P = Hypergraph(H).propagation()
        np.testing.assert_allclose(P, propagation_oracle(H), rtol=1e-12, atol=1e-15)
        # the same operations in the same order: equal bit for bit
        assert np.array_equal(P, propagation_by_size_oracle(H))

    @settings(max_examples=60, deadline=None)
    @given(knn_cases, st.integers(1, 3))
    def test_equals_dense_oracle_on_knn_graphs(self, case, modalities):
        seed, n, k = case
        rng = np.random.default_rng(seed)
        g = concat_hypergraphs(
            [build_knn_hyperedges(rng.normal(size=(n, 2)), k) for _ in range(modalities)]
        )
        P = g.propagation()
        np.testing.assert_allclose(P, propagation_oracle(g.incidence), rtol=1e-12, atol=1e-15)
        assert np.array_equal(P, propagation_by_size_oracle(g.incidence))

    @staticmethod
    def graph(kind):
        """A 37-vertex graph: kNN over two modalities, the same after a
        30 % hyperedge drop, or ragged (edges of many sizes)."""
        rng = np.random.default_rng(23)
        if kind == "ragged":
            return Hypergraph(random_hypergraph(rng, 37, max_edges=29))
        g = concat_hypergraphs([build_knn_hyperedges(rng.normal(size=(37, 3)), 4) for _ in range(2)])
        return drop_hyperedges(g, 0.3, seed=4) if kind == "dropped" else g

    @pytest.mark.parametrize("kind", ["knn", "dropped", "ragged"])
    @pytest.mark.parametrize("chunk", [1, 37 * 3, 37 * 5, 37 * 36, 37 * 37])
    def test_equals_by_size_oracle_over_row_blocks(self, monkeypatch, kind, chunk):
        # blocks of 1, 3, 5, 36 and 37 rows: all but the first and last
        # leave a partial block at the end
        monkeypatch.setattr(hgib.hypergraph, "_P_CHUNK", chunk)
        g = self.graph(kind)
        if kind == "dropped":
            assert g.num_hyperedges == 52
        if kind == "ragged":
            assert np.unique(g.edge_degrees).size > 5
        assert np.array_equal(g.propagation(), propagation_by_size_oracle(g.incidence))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 15))
    def test_uncovered_vertex_raises(self, seed, n):
        rng = np.random.default_rng(seed)
        H = random_hypergraph(rng, n)
        H[rng.integers(n)] = 0.0
        g = Hypergraph(H[:, H.sum(axis=0) > 0])
        with pytest.raises(StructureError):
            g.propagation()


class TestInvariants:
    def test_empty_edge_rejected_at_construction(self):
        H = np.eye(3)
        H[:, 1] = 0
        with pytest.raises(StructureError):
            Hypergraph(H)

    def test_fractional_weights_rejected(self):
        with pytest.raises(StructureError):
            Hypergraph(np.array([[0.5, 1.0], [1.0, 1.0]]))

    def test_propagation_is_read_only_and_shared(self):
        g = Hypergraph(random_hypergraph(np.random.default_rng(9), 6))
        with pytest.raises(ValueError):
            g.propagation()[0, 0] = 1.0
        assert g.propagation() is g.propagation()

    def test_degree_caches(self):
        g = Hypergraph(random_hypergraph(np.random.default_rng(8), 7))
        np.testing.assert_array_equal(g.vertex_degrees, g.incidence.sum(axis=1))
        np.testing.assert_array_equal(g.edge_degrees, g.incidence.sum(axis=0))


def traced_peak(fn):
    """fn's result and the peak bytes traced above those held when it starts."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base


class TestBuildMemory:
    """At n = 1500 one n x n float64 array is 17 MiB, more than any other
    array a build holds. The member pairs of a kNN graph, (k + 1)^2 per
    edge, would take 5 MiB per modality."""

    n, d, k = 1500, 16, 20

    def features(self, seed):
        return np.random.default_rng(seed).normal(size=(self.n, self.d))

    def test_knn_holds_no_n_by_n_array(self):
        _, peak = traced_peak(lambda: build_knn_hyperedges(self.features(0), self.k))
        assert peak < self.n * self.n * 8 / 4

    @pytest.mark.parametrize("modalities", [1, 3])
    def test_propagation_holds_one_n_by_n_array_and_no_member_pairs(self, modalities):
        g = concat_hypergraphs(
            [build_knn_hyperedges(self.features(m), self.k) for m in range(modalities)]
        )
        # a first build imports what it uses (np.unique imports numpy.ma);
        # that is not the build's memory
        Hypergraph.from_members(1, np.array([0, 1]), np.array([0])).propagation()
        P, peak = traced_peak(g.propagation)
        assert P.nbytes == self.n * self.n * 8
        # P, a few arrays the size of the memberships, and one block's buffers
        assert peak <= P.nbytes + 4 * g.indices.nbytes + 2**20
