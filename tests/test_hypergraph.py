import numpy as np
import pytest

from hgib.errors import DataError, StructureError
from hgib.hypergraph import Hypergraph, build_knn_hyperedges, concat_hypergraphs

from conftest import random_hypergraph


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
        assert g.propagation_tensor is g.propagation_tensor
        assert np.shares_memory(g.propagation_tensor.data, g.propagation())

    def test_degree_caches(self):
        g = Hypergraph(random_hypergraph(np.random.default_rng(8), 7))
        np.testing.assert_array_equal(g.vertex_degrees, g.incidence.sum(axis=1))
        np.testing.assert_array_equal(g.edge_degrees, g.incidence.sum(axis=0))
