import base64
import hashlib
import json
import struct
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import hgib.metrics
import hgib.trainer
from hgib import (
    AttackConfig,
    Dataset,
    LossConfig,
    SynthConfig,
    TrainConfig,
    generate_synthetic,
    split_and_mask,
    train,
)
from hgib.autodiff import propagate
from hgib.data import normalize
from hgib.errors import DataError
from hgib.hypergraph import Hypergraph
from hgib.perturb import drop_hyperedges
from hgib.trainer import aggregate_metrics, build, evaluate_state, prepare


def tiny_cfg(**kwargs):
    defaults = dict(epochs=5, k_neighbors=5, hidden_dims=(8, 8), seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def scored(record):
    """The test-split metrics of a trained run."""
    return evaluate_state(record.prepared, record.model_state)


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

    def test_label_fraction_labeling_none_rejected(self):
        ds = self._dataset(n=10)
        # round(0.05 * 8) = 0 labeled vertices
        with pytest.raises(DataError, match="label fraction 0.05 of 8 training vertices"):
            split_and_mask(ds, 0.8, 0.05, seed=1)

    def test_class_absent_from_test_split_rejected(self):
        ds = self._dataset(n=10)
        with pytest.raises(DataError, match="a class is absent from the test split"):
            split_and_mask(ds, 1.0, 1.0, seed=1)
        # 9 of 10 vertices train: one class keeps its 5 in the training split
        with pytest.raises(DataError, match="a class is absent from the test split"):
            split_and_mask(ds, 0.9, 1.0, seed=1)

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
        assert scored(baseline).auc_average == scored(again).auc_average
        for a, b in zip(baseline.model_state.params, again.model_state.params):
            np.testing.assert_array_equal(a.data, b.data)

    def test_deterministic_per_seed(self, small_dataset):
        a = train(small_dataset, tiny_cfg(epochs=10, seed=3))
        b = train(small_dataset, tiny_cfg(epochs=10, seed=3))
        assert a.loss_trace == b.loss_trace
        assert abs(scored(a).auc_average - scored(b).auc_average) <= 1e-12

    def test_returns_the_run_unevaluated(self, small_dataset, monkeypatch):
        def evaluate(*args):
            raise AssertionError("train evaluated its run")

        monkeypatch.setattr(hgib.metrics, "evaluate", evaluate)
        record = train(small_dataset, tiny_cfg(epochs=2))
        assert [f.name for f in fields(record)] == [
            "loss_trace", "duration_seconds", "model_state", "prepared"
        ]

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
        assert scored(rec).auc_average >= 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(label_fraction=0.0)
        with pytest.raises(ValueError):
            TrainConfig(train_fraction=1.5)
        for hidden_dims in ((), (0,), (8, 0), (-1, 4)):
            with pytest.raises(ValueError, match="hidden_dims"):
                TrainConfig(hidden_dims=hidden_dims)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "cls, name",
        [
            (TrainConfig, "lr_initial"), (TrainConfig, "train_fraction"),
            (LossConfig, "beta"), (LossConfig, "xi"),
            (AttackConfig, "rho"), (AttackConfig, "drop_fraction"),
            (SynthConfig, "separation"),
        ],
    )
    def test_float_fields_take_only_finite_values(self, cls, name, value):
        # a non-finite weight or rate would fail only after the build and
        # the first epoch, as "operation produced non-finite values"
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            cls(**{name: value})

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="^lr_initial must be >= 0, got -1.0$"):
            TrainConfig(lr_initial=-1.0)
        assert TrainConfig(lr_initial=0.0).lr_initial == 0.0


class TestPrepared:
    def test_propagated_features_read_only_and_cached(self, small_dataset):
        structure = prepare(small_dataset, tiny_cfg()).structure
        px = structure.propagated_features
        assert px is structure.propagated_features
        p, x = structure.graph.propagation(), structure.features
        np.testing.assert_array_equal(px.data, propagate(p, x).data)   # the one P·X path
        np.testing.assert_allclose(px.data, p @ x.data, rtol=1e-14, atol=1e-15)
        with pytest.raises(ValueError):
            px.data[0, 0] = 1.0

    def test_one_structure_serves_every_seed_and_fraction(self, small_dataset):
        structure = build(small_dataset, 5)
        a = prepare(structure, tiny_cfg(seed=1))
        b = prepare(structure, tiny_cfg(seed=2, label_fraction=0.5))
        assert a.structure is b.structure
        assert a.structure.propagated_features is b.structure.propagated_features
        assert not (a.labeled_mask == b.labeled_mask).all()
        with pytest.raises(ValueError, match="k=5"):
            prepare(structure, tiny_cfg(k_neighbors=4))

    def test_a_dataset_is_split_before_its_build(self, small_dataset, monkeypatch):
        cfg = tiny_cfg(seed=3, label_fraction=0.5)
        built = prepare(build(small_dataset, 5), cfg)
        fresh = prepare(small_dataset, cfg)
        # the test mask is the training split's complement
        for mask in ("labeled_mask", "test_mask"):
            np.testing.assert_array_equal(getattr(fresh, mask), getattr(built, mask))

        def no_build(*args):
            raise AssertionError("built before the split was checked")

        monkeypatch.setattr(hgib.trainer, "build", no_build)
        with pytest.raises(DataError, match="labels none"):
            prepare(small_dataset, tiny_cfg(label_fraction=0.001))

    def test_training_on_a_shared_structure_equals_a_fresh_build(self, small_dataset):
        structure = build(small_dataset, 5)
        for seed, fraction in ((1, 1.0), (2, 0.5)):
            cfg = tiny_cfg(seed=seed, label_fraction=fraction)
            shared, fresh = train(structure, cfg), train(small_dataset, cfg)
            assert shared.loss_trace == fresh.loss_trace
            assert scored(shared) == scored(fresh)

    def test_epoch_tape_size(self, small_dataset):
        # one epoch's loss at the default model and objective: 5 nodes of
        # forward (a relu_matmul and a projector matmul per layer, and the
        # second layer's propagate), 1 CE+focal, CE and KL per layer, 2
        # weighted sums (79 when each loss term was a chain of elementwise
        # ops)
        from hgib import autodiff as ad
        from hgib import losses, model

        cfg = TrainConfig(k_neighbors=5)
        assert cfg.hidden_dims == (64, 64)
        assert (cfg.loss.mu, cfg.loss.xi, cfg.loss.beta) == (1.0, 10.0, 1.0)
        prepared = prepare(small_dataset, cfg)
        s = prepared.structure
        state = model.init_params(
            s.features.shape[1], list(cfg.hidden_dims), 3, np.random.default_rng(0)
        )
        logits, per_layer = model.forward(s.features, s.graph, state, s.propagated_features)
        loss = losses.total_loss(
            logits, per_layer, s.dataset.labels, prepared.labeled_mask, cfg.loss
        )
        ops = [t for t in ad._toposort(loss) if t._vjp is not None]
        assert len(ops) == 12

    def test_epoch_multiplies_by_p_only_through_propagate(self, small_dataset, monkeypatch):
        # every n x n product is the wide `propagate`: a P operand reaching
        # `matmul` or `relu_matmul` would put an epoch back on the slow
        # tall-narrow GEMM
        from hgib import autodiff as ad

        shapes = []

        def recording(op):
            def record(a, b):
                shapes.append((op.__name__, a.shape, b.shape))
                return op(a, b)

            return record

        for name in ("matmul", "relu_matmul"):
            monkeypatch.setattr(ad, name, recording(getattr(ad, name)))
        train(small_dataset, TrainConfig(k_neighbors=5, epochs=1))
        n = small_dataset.n
        assert {name for name, *_ in shapes} == {"matmul", "relu_matmul"}
        assert all((n, n) not in pair for _, *pair in shapes)


class TestSaveRecord:
    @staticmethod
    def list_form(structure, cfg, checkpoint, chunk):
        """The record as `json.dumps` writes it, its member lists and labels
        packed as little-endian int32 and its features, row by row, as
        little-endian float64 from their Python lists, `chunk` entries at a
        time, and base64-encoded whole."""
        g = structure.graph

        def packed(values, code="i"):
            pieces = (values[i:i + chunk] for i in range(0, len(values), chunk))
            data = b"".join(struct.pack(f"<{len(p)}{code}", *p) for p in pieces)
            return base64.b64encode(data).decode()

        dataset = structure.dataset
        record = {
            "config": cfg.to_dict(),
            "class_names": dataset.class_names,
            "fingerprint": hgib.trainer._fingerprint(dataset, structure.features.data),
            "graph": {
                "indptr": packed(g.indptr.tolist()),
                "indices": packed(g.indices.tolist()),
            },
            "dataset": {
                "widths": [X.shape[1] for X in dataset.modalities],
                "features": packed([v for row in structure.features.data.tolist() for v in row], "d"),
                "labels": packed(dataset.labels.tolist()),
            },
            "inputs_sha256": dataset.inputs_sha256,
            "checkpoint_sha256": hgib.trainer._sha256(checkpoint),
        }
        return json.dumps(record, separators=(",", ":")).encode()

    @staticmethod
    def graphs(structure):
        """The kNN graph, a graph with 30 % of its edges dropped, and a
        ragged graph of edges of 1 to 9 members."""
        g = structure.graph
        n = g.num_vertices
        edges = [np.arange(n)[:1 + i % 9] + i % (n - 9) for i in range(3 * n)]
        edges.append(np.arange(n))
        ragged = Hypergraph.from_members(
            n, np.cumsum([0] + [e.size for e in edges]), np.concatenate(edges)
        )
        return {
            "knn": g,
            "dropped": drop_hyperedges(g, 0.3, seed=2),
            "ragged": ragged,
        }

    @staticmethod
    def saved(structure, cfg, tmp_path):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text("[]")
        hgib.trainer.save_record(structure, cfg, checkpoint)
        return checkpoint

    @pytest.mark.parametrize("graph", ["knn", "dropped", "ragged"])
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_bytes_equal_the_list_form(self, small_dataset, tmp_path, graph, chunk):
        # chunk 7 packs the reference off any edge boundary; 4096 outruns the lists
        cfg = tiny_cfg(label_fraction=0.5)
        structure = build(small_dataset, 5)
        structure = replace(structure, graph=self.graphs(structure)[graph])
        checkpoint = self.saved(structure, cfg, tmp_path)
        written = (tmp_path / "checkpoint.meta.json").read_bytes()
        assert written == self.list_form(structure, cfg, checkpoint, chunk)
        assert hgib.trainer.load_structure(checkpoint, small_dataset, cfg).graph.indices.tolist() == (
            structure.graph.indices.tolist()
        )

    @pytest.mark.parametrize("graph", ["knn", "dropped", "ragged"])
    def test_round_trip(self, small_dataset, tmp_path, graph):
        cfg = tiny_cfg(label_fraction=0.5)
        structure = build(small_dataset, 5)
        structure = replace(structure, graph=self.graphs(structure)[graph])
        checkpoint = self.saved(structure, cfg, tmp_path)
        loaded = hgib.trainer.load_structure(checkpoint, small_dataset, cfg).graph
        assert loaded.num_vertices == structure.graph.num_vertices
        np.testing.assert_array_equal(loaded.indptr, structure.graph.indptr)
        np.testing.assert_array_equal(loaded.indices, structure.graph.indices)

    def test_loaded_input_is_the_saved_bits(self, small_dataset, tmp_path):
        # the record's features and labels are the ones training normalized
        cfg = tiny_cfg()
        structure = build(small_dataset, 5)
        loaded = hgib.trainer.load_structure(self.saved(structure, cfg, tmp_path), small_dataset, cfg)
        assert loaded.features.data.tobytes() == structure.features.data.tobytes()
        for got, saved in zip(loaded.dataset.modalities, structure.dataset.modalities, strict=True):
            assert got.tobytes() == saved.tobytes()
        np.testing.assert_array_equal(loaded.dataset.labels, structure.dataset.labels)
        assert loaded.dataset.class_names == structure.dataset.class_names
        assert loaded.dataset.inputs_sha256 is None

    def test_memberships_past_int32_refused(self, small_dataset, tmp_path):
        # one edge of 2**31 members, a broadcast view that allocates none of
        # them: int32 would wrap its indptr
        structure = build(small_dataset, 5)
        huge = SimpleNamespace(
            num_vertices=structure.graph.num_vertices,
            indptr=np.array([0, 2**31]),
            indices=np.broadcast_to(np.intp(0), (2**31,)),
        )
        with pytest.raises(DataError, match="2147483648 memberships do not fit"):
            self.saved(replace(structure, graph=huge), tiny_cfg(), tmp_path)
        assert not (tmp_path / "checkpoint.meta.json").exists()

    def test_peak_memory_is_a_small_multiple_of_the_record(self, tmp_path):
        # at n = 1500, k = 20 the member lists hold 63 000 entries; dumping
        # them as Python lists, one int object each, peaked at about 20
        # times the record's size
        structure = build(generate_synthetic(SynthConfig(n=1500, dims=(8, 8), seed=3)), 20)
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text("[]")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hgib.trainer.save_record(structure, tiny_cfg(k_neighbors=20), checkpoint)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        size = (tmp_path / "checkpoint.meta.json").stat().st_size
        assert peak < 4 * size, (peak / 2**20, size / 2**20)

    def test_load_peak_memory_is_a_small_multiple_of_the_members(self, tmp_path):
        # at n = 1500, k = 20 the graph holds 63 000 memberships, 0.5 MiB of
        # member lists as intp; parsing them as JSON ints, one Python int
        # each, peaked at about 9 times that, and decoding base64 at about 5
        dataset = generate_synthetic(SynthConfig(n=1500, dims=(8, 8), seed=3))
        cfg = tiny_cfg(k_neighbors=20)
        structure = build(dataset, 20)
        checkpoint = self.saved(structure, cfg, tmp_path)
        members = structure.graph.indptr.nbytes + structure.graph.indices.nbytes
        del structure
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = hgib.trainer.load_structure(checkpoint, dataset, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert loaded.graph.indices.size == 63_000
        assert peak < 6 * members, (peak / 2**20, members / 2**20)


class TestFingerprint:
    def test_hashes_contiguous_arrays_without_a_copy(self):
        dataset = normalize(generate_synthetic(SynthConfig(n=2000, dims=(32, 32), seed=4)))
        fused = np.hstack(dataset.modalities)
        assert fused.nbytes == 2000 * 64 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            digest = hgib.trainer._fingerprint(dataset, fused)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < fused.nbytes / 20, peak / 2**20
        # the digest is that of the arrays' bytes
        widths = np.array([2000, 2, 32, 32], dtype="<i8").tobytes()
        h = hashlib.sha256(widths + fused.astype("<f8").tobytes())
        h.update(dataset.labels.astype("<i8").tobytes())
        h.update(json.dumps(dataset.class_names).encode())
        assert digest == h.hexdigest()


class TestEvaluateState:
    @pytest.fixture
    def evaluated_probs(self, monkeypatch):
        """The probabilities each `evaluate_state` call hands to metrics."""
        seen = []
        evaluate = hgib.metrics.evaluate

        def recording(probs, labels, mask):
            seen.append(probs)
            return evaluate(probs, labels, mask)

        monkeypatch.setattr(hgib.metrics, "evaluate", recording)
        return seen

    def test_zero_logits_give_uniform_probabilities(self, small_dataset, evaluated_probs):
        record = train(small_dataset, tiny_cfg(epochs=1))
        for p in record.model_state.projectors:
            p.data[:] = 0.0
        evaluate_state(record.prepared, record.model_state)
        np.testing.assert_array_equal(evaluated_probs[-1], 1.0 / 3.0)

    def test_large_logits_give_rows_that_sum_to_one(self, small_dataset, evaluated_probs):
        # logits near ±1000, past where exp overflows: the max-shift keeps them finite
        record = train(small_dataset, tiny_cfg(epochs=1))
        for p in record.model_state.projectors:
            p.data *= 1e3
        evaluate_state(record.prepared, record.model_state)
        probs = evaluated_probs[-1]
        assert np.isfinite(probs).all() and probs.min() >= 0.0
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestMultiSeed:
    @staticmethod
    def runs(dataset, cfg, seeds):
        return [train(dataset, replace(cfg, seed=s)) for s in seeds]

    def test_repeated_seed_zero_std(self, small_dataset):
        runs = self.runs(small_dataset, tiny_cfg(epochs=5), seeds=[4, 4])
        agg = aggregate_metrics([scored(r) for r in runs])
        assert agg["auc_average"]["std"] == 0.0
        assert agg["ppv_average"]["std"] == 0.0

    def test_mean_std_arithmetic(self, small_dataset):
        runs = self.runs(small_dataset, tiny_cfg(epochs=5), seeds=[1, 2])
        reports = [scored(r) for r in runs]
        vals = np.array([r.auc_average for r in reports])
        agg = aggregate_metrics(reports)["auc_average"]
        assert agg["mean"] == pytest.approx(vals.mean(), abs=1e-15)
        assert agg["std"] == pytest.approx(vals.std(ddof=1), abs=1e-15)

    def test_report_shape(self, small_dataset):
        runs = self.runs(small_dataset, tiny_cfg(epochs=3), seeds=[1, 2, 3])
        agg = aggregate_metrics([scored(r) for r in runs])
        assert set(agg) == {
            "auc_average",
            "ppv_average",
            "npv_average",
            "per_class_auc",
        }
        assert len(agg["per_class_auc"]["mean"]) == small_dataset.num_classes


class TestAggregate:
    def test_against_hand_numbers(self, small_dataset):
        r1 = scored(train(small_dataset, tiny_cfg(epochs=3, seed=1)))
        r2 = scored(train(small_dataset, tiny_cfg(epochs=3, seed=2)))
        agg = aggregate_metrics([r1, r2])
        expected_mean = (r1.auc_average + r2.auc_average) / 2
        assert agg["auc_average"]["mean"] == pytest.approx(expected_mean, abs=1e-15)
