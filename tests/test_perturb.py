import numpy as np
import pytest

from hgib import (
    AttackConfig,
    SynthConfig,
    TrainConfig,
    attack_evaluate,
    drop_hyperedges,
    generate_synthetic,
    inject_feature_noise,
    train,
)
from hgib.autodiff import Tensor
from hgib.errors import StructureError
from hgib.hypergraph import Hypergraph
from hgib.perturb import noise_scale
from hgib.trainer import Prepared, evaluate_state

from conftest import random_hypergraph


class TestDropHyperedges:
    def _graph(self, seed=0, n=10):
        return Hypergraph(random_hypergraph(np.random.default_rng(seed), n))

    def test_zero_fraction_identity(self):
        g = self._graph()
        out = drop_hyperedges(g, 0.0, seed=1)
        np.testing.assert_array_equal(out.incidence, g.incidence)

    def test_exact_count(self):
        g = self._graph()
        assert g.num_hyperedges == 10
        out = drop_hyperedges(g, 0.2, seed=1)
        assert out.num_hyperedges == 8

    def test_deterministic(self):
        g = self._graph(seed=2)
        a = drop_hyperedges(g, 0.3, seed=5)
        b = drop_hyperedges(g, 0.3, seed=5)
        np.testing.assert_array_equal(a.incidence, b.incidence)

    def test_column_subset(self):
        g = self._graph(seed=3, n=12)
        out = drop_hyperedges(g, 0.25, seed=7)
        original = {tuple(col) for col in g.incidence.T}
        for col in out.incidence.T:
            assert tuple(col) in original

    def test_coverage_preserved(self):
        for seed in range(10):
            out = drop_hyperedges(self._graph(seed=seed), 0.4, seed=seed)
            assert out.vertex_degrees.min() >= 1

    def test_uncoverable_structure_raises(self):
        # one vertex in exactly one edge out of many: dropping 50% of 2 edges
        # always removes one column; if it is the covering one, resampling
        # eventually fails only when coverage is impossible
        H = np.array([[1.0, 1.0], [0.0, 1.0]])
        g = Hypergraph(H)
        out = drop_hyperedges(g, 0.5, seed=0)  # must keep column 1
        assert out.incidence.shape == (2, 1)
        np.testing.assert_array_equal(out.incidence[:, 0], [1.0, 1.0])

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            drop_hyperedges(self._graph(), 1.0, seed=0)


class TestInjectFeatureNoise:
    def test_zero_rho_identity(self):
        X = np.random.default_rng(0).random((5, 4))
        np.testing.assert_array_equal(inject_feature_noise(X, 0.0, seed=1), X)

    def test_hand_scale(self):
        X = np.array([[1.0, 3.0], [2.0, 1.0]])
        assert noise_scale(X) == 2.5  # column maxima (2, 3)
        out = inject_feature_noise(X, 0.01, seed=2)
        assert out.shape == X.shape
        assert not np.array_equal(out, X)

    def test_per_vertex_alternative(self):
        X = np.array([[1.0, 3.0], [2.0, 1.0]])
        assert noise_scale(X, per_vertex_max=True) == 2.5  # row maxima (3, 2)
        X2 = np.array([[1.0, 5.0], [2.0, 1.0], [0.0, 0.0]])
        assert noise_scale(X2) == 3.5  # column maxima (2, 5)
        assert noise_scale(X2, per_vertex_max=True) == pytest.approx(7.0 / 3.0)

    def test_empirical_noise_statistics(self):
        X = np.random.default_rng(1).random((100, 100))
        rho = 0.01
        delta = inject_feature_noise(X, rho, seed=3) - X
        target = rho * noise_scale(X)
        assert abs(delta.std() - target) / target < 0.05
        # mean within 3 sigma of zero
        assert abs(delta.mean()) < 3 * target / np.sqrt(delta.size)

    def test_deterministic(self):
        X = np.random.default_rng(2).random((6, 3))
        a = inject_feature_noise(X, 0.05, seed=9)
        b = inject_feature_noise(X, 0.05, seed=9)
        np.testing.assert_array_equal(a, b)


class TestAttackEvaluate:
    @pytest.fixture(scope="class")
    def trained(self):
        ds = generate_synthetic(
            SynthConfig(n=60, dims=(6, 4), separation=3.0, label_noise=0.0, seed=7)
        )
        rec = train(
            ds, TrainConfig(epochs=100, k_neighbors=5, hidden_dims=(8, 8), seed=1)
        )
        return ds, rec

    def test_none_equals_plain_evaluation(self, trained):
        _, rec = trained
        report = attack_evaluate(rec.prepared, rec.model_state, AttackConfig(kind="none"))
        assert report.auc_average == pytest.approx(rec.metrics.auc_average, abs=1e-12)

    def test_drop_and_noise_run(self, trained):
        _, rec = trained
        for cfg in (
            AttackConfig(kind="drop", drop_fraction=0.2, seed=1),
            AttackConfig(kind="noise", rho=0.01, seed=1),
        ):
            report = attack_evaluate(rec.prepared, rec.model_state, cfg)
            assert np.isfinite(report.auc_average)

    def test_no_mutation(self, trained):
        ds, rec = trained
        params_before = [p.data.copy() for p in rec.model_state.params]
        features_before = [m.copy() for m in ds.modalities]
        fused_before = rec.prepared.features.data.copy()
        incidence_before = rec.prepared.graph.incidence.copy()
        for cfg in (
            AttackConfig(kind="noise", rho=0.5, seed=2),
            AttackConfig(kind="drop", drop_fraction=0.5, seed=2),
        ):
            attack_evaluate(rec.prepared, rec.model_state, cfg)
            np.testing.assert_array_equal(rec.prepared.features.data, fused_before)
            np.testing.assert_array_equal(rec.prepared.graph.incidence, incidence_before)
        for a, b in zip(params_before, rec.model_state.params):
            np.testing.assert_array_equal(a, b.data)
        for a, b in zip(features_before, ds.modalities):
            np.testing.assert_array_equal(a, b)
        clean = attack_evaluate(rec.prepared, rec.model_state, AttackConfig(kind="none"))
        assert clean == rec.metrics

    def test_no_stale_propagated_input(self, trained):
        # training filled rec.prepared's cached P @ X; an attacked copy must
        # use its own features and graph, as a Prepared built afresh does
        _, rec = trained
        p = rec.prepared
        assert "propagated_features" in vars(p)
        masks = (p.train_mask, p.labeled_mask, p.test_mask)
        noise = AttackConfig(kind="noise", rho=0.5, seed=2)
        noisy = inject_feature_noise(p.features.data, noise.rho, noise.seed)
        fresh = Prepared(p.labels, Tensor(noisy), p.graph, *masks)
        assert attack_evaluate(p, rec.model_state, noise) == evaluate_state(fresh, rec.model_state)
        drop = AttackConfig(kind="drop", drop_fraction=0.5, seed=2)
        dropped = drop_hyperedges(p.graph, drop.drop_fraction, drop.seed)
        fresh = Prepared(p.labels, p.features, dropped, *masks)
        assert attack_evaluate(p, rec.model_state, drop) == evaluate_state(fresh, rec.model_state)
        assert attack_evaluate(p, rec.model_state, noise) != rec.metrics

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="bogus")
        with pytest.raises(ValueError):
            AttackConfig(drop_fraction=1.0)
        with pytest.raises(ValueError):
            AttackConfig(rho=-0.1)
