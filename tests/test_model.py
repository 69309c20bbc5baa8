import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hgib import autodiff as ad
from hgib.autodiff import Tensor
from hgib.errors import DataError, ShapeError
from hgib.hypergraph import Hypergraph
from hgib.losses import ce_focal_loss, kl_sigmoid_half
from hgib.model import (
    ModelState,
    forward,
    hgnnp_layer_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from hgib.seeding import substream

from conftest import random_hypergraph
from oracles import (
    assert_close_gradients,
    finite_difference_grads,
    matrix_conv_oracle,
    spatial_conv_oracle,
)


class TestLayerForward:
    def test_hand_example_single_edge(self):
        g = Hypergraph(np.array([[1.0], [1.0]]))
        out = hgnnp_layer_forward(Tensor([[2.0], [4.0]]), g, Tensor([[1.0]]))
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_singleton_edges_identity(self):
        g = Hypergraph(np.eye(4))
        x = np.abs(np.random.default_rng(0).normal(size=(4, 3)))
        out = hgnnp_layer_forward(Tensor(x), g, Tensor(np.eye(3)))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_spatial_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 12)
        H = random_hypergraph(rng, n)
        X = rng.normal(size=(n, 4))
        theta = rng.normal(size=(4, 3))
        out = hgnnp_layer_forward(Tensor(X), Hypergraph(H), Tensor(theta))
        np.testing.assert_allclose(out.data, spatial_conv_oracle(H, X, theta), atol=1e-10)
        np.testing.assert_allclose(out.data, matrix_conv_oracle(H, X, theta), atol=1e-10)

    def test_convex_combination_before_theta(self):
        # with identity theta and no negative inputs, each output row lies
        # inside the bounding box of the input rows (two mean aggregations)
        rng = np.random.default_rng(9)
        H = random_hypergraph(rng, 8)
        X = rng.uniform(0.1, 1.0, size=(8, 3))
        out = hgnnp_layer_forward(Tensor(X), Hypergraph(H), Tensor(np.eye(3)))
        assert (out.data >= X.min(axis=0) - 1e-12).all()
        assert (out.data <= X.max(axis=0) + 1e-12).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        n = 7
        H = random_hypergraph(rng, n)
        X = rng.normal(size=(n, 3))
        theta = rng.normal(size=(3, 2))
        perm = rng.permutation(n)
        base = hgnnp_layer_forward(Tensor(X), Hypergraph(H), Tensor(theta)).data
        permuted = hgnnp_layer_forward(
            Tensor(X[perm]), Hypergraph(H[perm]), Tensor(theta)
        ).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_shape_errors(self):
        g = Hypergraph(np.eye(3))
        with pytest.raises(ShapeError):
            hgnnp_layer_forward(Tensor(np.zeros((2, 2))), g, Tensor(np.eye(2)))
        with pytest.raises(ShapeError):
            hgnnp_layer_forward(Tensor(np.zeros((3, 2))), g, Tensor(np.eye(3)))
        with pytest.raises(ShapeError):
            hgnnp_layer_forward(
                Tensor(np.zeros((3, 2))), g, Tensor(np.eye(2)), px=Tensor(np.zeros((3, 3)))
            )


class TestForward:
    def test_single_layer_composition(self):
        rng = np.random.default_rng(1)
        g = Hypergraph(random_hypergraph(rng, 5))
        x = rng.normal(size=(5, 3))
        state = init_params(3, [4], 2, substream(0, "init"))
        logits, per_layer = forward(Tensor(x), g, state)
        z = hgnnp_layer_forward(Tensor(x), g, state.thetas[0])
        np.testing.assert_allclose(per_layer[0][0].data, z.data, atol=1e-14)
        np.testing.assert_allclose(
            logits.data, z.data @ state.projectors[0].data, atol=1e-14
        )

    def test_precomputed_propagated_input_is_exact(self):
        rng = np.random.default_rng(5)
        g = Hypergraph(random_hypergraph(rng, 6))
        x = Tensor(rng.normal(size=(6, 3)))
        state = init_params(3, [4, 4], 2, substream(0, "init"))
        px = ad.propagate(g.propagation(), x)
        plain, _ = forward(x, g, state)
        hoisted, _ = forward(x, g, state, px)
        np.testing.assert_array_equal(hoisted.data, plain.data)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.booleans())
    def test_relabelling_vertices_permutes_rows(self, seed, n, precomputed):
        rng = np.random.default_rng(seed)
        H = random_hypergraph(rng, n)
        x = rng.normal(size=(n, 3))
        perm = rng.permutation(n)
        state = init_params(3, [4, 4], 2, substream(seed, "init"))

        def run(H, x):
            g = Hypergraph(H)
            px = Tensor(g.propagation() @ x) if precomputed else None
            logits, per_layer = forward(Tensor(x), g, state, px)
            return [logits.data] + [t.data for layer in per_layer for t in layer]

        for base, permuted in zip(run(H, x), run(H[perm], x[perm])):
            np.testing.assert_allclose(permuted, base[perm], rtol=1e-12, atol=1e-12)

    def test_zero_theta_uniform_probabilities(self):
        rng = np.random.default_rng(2)
        g = Hypergraph(random_hypergraph(rng, 6))
        state = init_params(3, [4, 4], 3, substream(0, "init"))
        for t in state.thetas:
            t.data[:] = 0.0
        logits, per_layer = forward(Tensor(rng.normal(size=(6, 3))), g, state)
        for z, _ in per_layer:
            np.testing.assert_array_equal(z.data, 0.0)
        # zero logits: the softmax gives every class 1/3
        np.testing.assert_array_equal(logits.data, 0.0)

    def test_two_layers_match_composed_oracle(self):
        rng = np.random.default_rng(3)
        H = random_hypergraph(rng, 6)
        x = rng.normal(size=(6, 3))
        state = init_params(3, [5, 4], 2, substream(1, "init"))
        _, per_layer = forward(Tensor(x), Hypergraph(H), state)
        z1 = spatial_conv_oracle(H, x, state.thetas[0].data)
        z2 = spatial_conv_oracle(H, z1, state.thetas[1].data)
        np.testing.assert_allclose(per_layer[1][0].data, z2, atol=1e-10)

    def test_end_to_end_gradients(self):
        rng = np.random.default_rng(4)
        g = Hypergraph(random_hypergraph(rng, 6))
        x = Tensor(rng.normal(size=(6, 3)))
        state = init_params(3, [4, 3], 2, substream(2, "init"))

        labels = np.array([0, 1, 1, 0, 1, 0])
        mask = np.ones(6, dtype=bool)
        signs = Tensor([[1.0], [-2.0]])

        def build():
            logits, per_layer = forward(x, g, state)
            pieces = [ce_focal_loss(logits, labels, mask, 1.0, 2.0, 0.5)]
            for z, layer_logits in per_layer:
                pieces.append(kl_sigmoid_half(z))
                pieces.append(ad.tsum(ad.matmul(layer_logits, signs)))
            return ad.weighted_sum(pieces, [1.0] * len(pieces))

        build().backward()
        numeric = finite_difference_grads(lambda: build().data[0, 0], state.params)
        assert_close_gradients([p.grad for p in state.params], numeric)


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = init_params(5, [4, 3], 2, substream(7, "init"))
        b = init_params(5, [4, 3], 2, substream(7, "init"))
        for pa, pb in zip(a.params, b.params):
            assert (pa.data == pb.data).all()

    def test_different_seeds_differ(self):
        a = init_params(5, [4], 2, substream(7, "init"))
        b = init_params(5, [4], 2, substream(8, "init"))
        assert (a.thetas[0].data != b.thetas[0].data).any()

    def test_glorot_bounds(self):
        state = init_params(30, [20, 10], 4, substream(0, "init"))
        for t in state.thetas + state.projectors:
            fan_in, fan_out = t.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert (np.abs(t.data) <= bound).all()

    def test_all_params_require_grad(self):
        state = init_params(3, [4, 4], 2, substream(0, "init"))
        assert len(state.params) == 4
        assert all(p.requires_grad for p in state.params)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        state = init_params(5, [4, 3], 2, substream(3, "init"))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert len(loaded.thetas) == len(state.thetas)
        for a, b in zip(state.params, loaded.params):
            np.testing.assert_array_equal(a.data, b.data)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_is_exact(self, data):
        widths = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=4), label="widths")
        classes = data.draw(st.integers(1, 4), label="classes")
        values = st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300]),
            st.floats(-1e300, 1e300),
        )

        def matrix(rows, cols):
            return Tensor(data.draw(arrays(np.float64, (rows, cols), elements=values)), requires_grad=True)

        state = ModelState(
            thetas=[matrix(a, b) for a, b in zip(widths, widths[1:])],
            projectors=[matrix(b, classes) for b in widths[1:]],
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "checkpoint.json"
            save_checkpoint(state, path)
            payload = json.loads(path.read_text())
            loaded = load_checkpoint(path)
        layers = len(widths) - 1
        names = [f"theta_{i}" for i in range(layers)] + [f"w_out_{i}" for i in range(layers)]
        assert [sorted(entry) for entry in payload] == [["cols", "name", "rows", "values"]] * len(names)
        assert [(e["name"], e["rows"], e["cols"]) for e in payload] == [
            (name, *t.shape) for name, t in zip(names, state.params)
        ]
        assert len(loaded.params) == len(state.params)
        for saved, back in zip(state.params, loaded.params):
            assert back.shape == saved.shape
            assert back.data.tobytes() == saved.data.tobytes()

    def test_write_is_atomic_and_bytes_unchanged(self, tmp_path, replaced):
        state = init_params(5, [4, 3], 2, substream(3, "init"))
        path = tmp_path / "checkpoint.json"
        path.write_text("old")
        save_checkpoint(state, path)
        [(src, dst)] = replaced
        assert os.path.dirname(src) == str(tmp_path) and dst == str(path)
        assert os.listdir(tmp_path) == ["checkpoint.json"]
        names = ["theta_0", "theta_1", "w_out_0", "w_out_1"]
        payload = [
            {"name": name, "rows": t.shape[0], "cols": t.shape[1], "values": t.data.ravel().tolist()}
            for name, t in zip(names, state.params)
        ]
        assert path.read_text() == json.dumps(payload)

    @pytest.mark.parametrize(
        "name, shape",
        [
            ("theta_1", (5, 3)),    # rows != theta_0's width 4
            ("w_out_0", (3, 2)),    # rows != theta_0's width 4
            ("w_out_1", (3, 4)),    # another class count than w_out_0
        ],
    )
    def test_broken_shape_chain_rejected(self, tmp_path, name, shape):
        state = init_params(5, [4, 3], 2, substream(3, "init"))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(state, path)
        payload = json.loads(path.read_text())
        for entry in payload:
            if entry["name"] == name:
                entry["rows"], entry["cols"] = shape
                entry["values"] = [0.5] * (shape[0] * shape[1])
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=name):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "payload",
        [
            [{"name": "theta_0"}],                                        # no values, rows, cols
            {"theta_0": [1.0]},                                           # not a list
            [1],                                                          # an entry not an object
            [{"name": "theta_0", "rows": 1, "cols": 2, "values": [1.0]}],  # values of another size
            [{"name": "theta_0", "rows": 1, "cols": 1, "values": ["x"]}],  # values not numbers
            [                                                             # w_out_0 missing
                {"name": "theta_0", "rows": 1, "cols": 1, "values": [1.0]},
                {"name": "w_out_1", "rows": 1, "cols": 1, "values": [1.0]},
            ],
        ],
    )
    def test_malformed_entries_rejected(self, tmp_path, payload):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed checkpoint"):
            load_checkpoint(path)

