from dataclasses import replace

import numpy as np
import pytest

from hgib import (
    Dataset,
    LossConfig,
    SynthConfig,
    TrainConfig,
    generate_synthetic,
    split_and_mask,
    train,
)
from hgib.trainer import aggregate_metrics, prepare


def tiny_cfg(**kwargs):
    defaults = dict(epochs=5, k_neighbors=5, hidden_dims=(8, 8), seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestSplitAndMask:
    def _dataset(self, n=10, classes=2):
        labels = np.arange(n) % classes
        return Dataset(
            modalities=[np.random.default_rng(0).random((n, 3))],
            labels=labels,
            class_names=[str(c) for c in range(classes)],
        )

    def test_counts(self):
        ds = self._dataset(n=10)
        train_m, labeled_m, test_m = split_and_mask(ds, 0.8, 0.5, seed=1)
        assert train_m.sum() == 8
        assert labeled_m.sum() == 4
        assert test_m.sum() == 2

    def test_disjoint_and_nested(self):
        ds = self._dataset(n=20, classes=3)
        train_m, labeled_m, test_m = split_and_mask(ds, 0.7, 0.6, seed=2)
        assert not (train_m & test_m).any()
        assert (train_m | test_m).all()
        assert (labeled_m <= train_m).all()

    def test_full_label_fraction(self):
        ds = self._dataset(n=12)
        train_m, labeled_m, _ = split_and_mask(ds, 0.75, 1.0, seed=3)
        np.testing.assert_array_equal(labeled_m, train_m)

    def test_deterministic(self):
        ds = self._dataset(n=30, classes=3)
        a = split_and_mask(ds, 0.8, 0.5, seed=4)
        b = split_and_mask(ds, 0.8, 0.5, seed=4)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma, mb)

    def test_stratified(self):
        ds = self._dataset(n=30, classes=3)
        train_m, labeled_m, test_m = split_and_mask(ds, 0.8, 0.5, seed=5)
        for c in range(3):
            cls = ds.labels == c
            assert (train_m & cls).any()
            assert (labeled_m & cls).any()
            assert (test_m & cls).any()


class TestTrain:
    def test_zero_lr_is_noop(self, small_dataset):
        cfg = tiny_cfg(epochs=1, lr_initial=0.0, seed=1)
        baseline = train(small_dataset, cfg)
        again = train(small_dataset, tiny_cfg(epochs=3, lr_initial=0.0, seed=1))
        assert baseline.metrics.auc_average == again.metrics.auc_average
        for a, b in zip(baseline.model_state.params, again.model_state.params):
            np.testing.assert_array_equal(a.data, b.data)

    def test_deterministic_per_seed(self, small_dataset):
        a = train(small_dataset, tiny_cfg(epochs=10, seed=3))
        b = train(small_dataset, tiny_cfg(epochs=10, seed=3))
        assert a.loss_trace == b.loss_trace
        assert abs(a.metrics.auc_average - b.metrics.auc_average) <= 1e-12

    def test_loss_trace_length_and_finiteness(self, small_dataset):
        rec = train(small_dataset, tiny_cfg(epochs=7))
        assert len(rec.loss_trace) == 7
        assert np.isfinite(rec.loss_trace).all()

    def test_lr_schedule_linear_decay(self):
        cfg = TrainConfig(epochs=100, lr_initial=1e-3)
        lrs = [cfg.lr_initial * (1 - t / cfg.epochs) for t in range(cfg.epochs)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] <= cfg.lr_initial / cfg.epochs + 1e-18

    def test_unlabeled_labels_contribute_no_gradient(self, small_dataset):
        # fixed masks; only labels outside the labeled mask are scrambled
        from hgib import losses, model
        from hgib.data import fuse_and_build, normalize
        from hgib.seeding import substream

        ds = normalize(small_dataset)
        fused, graph = fuse_and_build(ds, k=5)
        labeled = np.zeros(ds.n, dtype=bool)
        labeled[::2] = True
        state = model.init_params(fused.shape[1], [8, 8], 3, substream(0, "init"))

        def grads(labels):
            for p in state.params:
                p.zero_grad()
            logits, per_layer = model.forward(fused, graph, state)
            loss = losses.total_loss(logits, per_layer, labels, labeled, LossConfig())
            loss.backward()
            return [p.grad.copy() for p in state.params]

        base = grads(ds.labels)
        scrambled = ds.labels.copy()
        rng = np.random.default_rng(99)
        scrambled[~labeled] = rng.integers(0, ds.num_classes, (~labeled).sum())
        rerun = grads(scrambled)
        for a, b in zip(base, rerun):
            np.testing.assert_array_equal(a, b)

    def test_learns_separable_blobs(self):
        ds = generate_synthetic(
            SynthConfig(n=90, dims=(6, 6), separation=4.0, label_noise=0.0, seed=5)
        )
        rec = train(ds, tiny_cfg(epochs=400, lr_initial=5e-3, seed=1))
        assert rec.metrics.auc_average >= 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(label_fraction=0.0)
        with pytest.raises(ValueError):
            TrainConfig(train_fraction=1.5)


class TestPrepared:
    def test_propagated_features_read_only_and_cached(self, small_dataset):
        prepared = prepare(small_dataset, tiny_cfg())
        px = prepared.propagated_features
        assert px is prepared.propagated_features
        np.testing.assert_array_equal(
            px.data, prepared.graph.propagation() @ prepared.features.data
        )
        with pytest.raises(ValueError):
            px.data[0, 0] = 1.0

    def test_epoch_tape_size(self, small_dataset):
        # one epoch's loss at the default model and objective: 7 nodes of
        # forward, 1 CE+focal, CE and KL per layer, 2 weighted sums (79 when
        # each loss term was a chain of elementwise ops)
        from hgib import autodiff as ad
        from hgib import losses, model

        cfg = TrainConfig(k_neighbors=5)
        assert cfg.hidden_dims == (64, 64)
        assert (cfg.loss.mu, cfg.loss.xi, cfg.loss.beta) == (1.0, 10.0, 1.0)
        prepared = prepare(small_dataset, cfg)
        state = model.init_params(
            prepared.features.shape[1], list(cfg.hidden_dims), 3, np.random.default_rng(0)
        )
        logits, per_layer = model.forward(
            prepared.features, prepared.graph, state, prepared.propagated_features
        )
        loss = losses.total_loss(
            logits, per_layer, prepared.labels, prepared.labeled_mask, cfg.loss
        )
        ops = [t for t in ad._toposort(loss) if t._vjp is not None]
        assert len(ops) <= 20


class TestMultiSeed:
    @staticmethod
    def runs(dataset, cfg, seeds):
        return [train(dataset, replace(cfg, seed=s)) for s in seeds]

    def test_repeated_seed_zero_std(self, small_dataset):
        runs = self.runs(small_dataset, tiny_cfg(epochs=5), seeds=[4, 4])
        agg = aggregate_metrics([r.metrics for r in runs])
        assert agg["auc_average"]["std"] == 0.0
        assert agg["ppv_average"]["std"] == 0.0

    def test_mean_std_arithmetic(self, small_dataset):
        runs = self.runs(small_dataset, tiny_cfg(epochs=5), seeds=[1, 2])
        vals = np.array([r.metrics.auc_average for r in runs])
        agg = aggregate_metrics([r.metrics for r in runs])["auc_average"]
        assert agg["mean"] == pytest.approx(vals.mean(), abs=1e-15)
        assert agg["std"] == pytest.approx(vals.std(ddof=1), abs=1e-15)

    def test_report_shape(self, small_dataset):
        runs = self.runs(small_dataset, tiny_cfg(epochs=3), seeds=[1, 2, 3])
        agg = aggregate_metrics([r.metrics for r in runs])
        assert set(agg) == {
            "auc_average",
            "ppv_average",
            "npv_average",
            "per_class_auc",
        }
        assert len(agg["per_class_auc"]["mean"]) == small_dataset.num_classes


class TestAggregate:
    def test_against_hand_numbers(self, small_dataset):
        r1 = train(small_dataset, tiny_cfg(epochs=3, seed=1)).metrics
        r2 = train(small_dataset, tiny_cfg(epochs=3, seed=2)).metrics
        agg = aggregate_metrics([r1, r2])
        expected_mean = (r1.auc_average + r2.auc_average) / 2
        assert agg["auc_average"]["mean"] == pytest.approx(expected_mean, abs=1e-15)
