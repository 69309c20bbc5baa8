import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from hgib import autodiff as ad
from hgib.autodiff import Tensor
from hgib.errors import ShapeError
from hgib.losses import (
    LossConfig,
    ce_focal_loss,
    cross_entropy,
    hgib_loss,
    kl_sigmoid_half,
    total_loss,
)

from oracles import (
    assert_close_gradients,
    ce_focal_oracle,
    finite_difference_grads,
    kl_half_oracle,
)


def scalar(t):
    return float(t.data[0, 0])


class TestCrossEntropy:
    def test_confident_correct_near_zero(self):
        logits = Tensor([[50.0, 0.0], [0.0, 50.0]])
        labels = np.array([0, 1])
        assert scalar(cross_entropy(logits, labels, [True, True])) < 1e-8

    def test_uniform_three_class(self):
        logits = Tensor(np.zeros((4, 3)))
        out = cross_entropy(logits, [0, 1, 2, 0], np.ones(4, dtype=bool))
        assert scalar(out) == pytest.approx(np.log(3.0), abs=1e-10)

    def test_two_class_zero_logits(self):
        for label in (0, 1):
            out = cross_entropy(Tensor([[0.0, 0.0]]), [label], [True])
            assert scalar(out) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_mask_restricts_average(self):
        logits = Tensor([[50.0, 0.0], [0.0, 0.0]])
        full = scalar(cross_entropy(logits, [0, 0], [True, True]))
        only_confident = scalar(cross_entropy(logits, [0, 0], [True, False]))
        assert only_confident < 1e-8 < full

    def test_empty_mask(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 2))), [0, 1], [False, False])

    def test_mask_length_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((3, 2))), [0, 1, 0], [True, True])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 2))), [0, 2], [True, True])

    def test_confidently_wrong_keeps_gradient(self):
        # p(true) = e^-40 / (1 + 2 e^-40) is below any clamp: the loss is
        # ~40 and the gradient softmax - onehot, not 27.63 and zero
        logits = Tensor([[40.0, 0.0, 0.0]], requires_grad=True)
        out = cross_entropy(logits, [1], [True])
        assert scalar(out) == pytest.approx(40.0, abs=1e-9)
        out.backward()
        softmax = np.exp(logits.data - 40.0) / np.exp(logits.data - 40.0).sum()
        np.testing.assert_allclose(logits.grad, softmax - [[0.0, 1.0, 0.0]], atol=1e-15)

        # through the objective: q = 1 - p ~ 1, so CE + mu focal scales it by
        # 1 + mu alpha and the bottleneck CE adds xi
        logits.zero_grad()
        per_layer = [(Tensor(np.zeros((1, 2))), logits)]
        total_loss(logits, per_layer, np.array([1]), [True], LossConfig()).backward()
        np.testing.assert_allclose(logits.grad, 13.0 * (softmax - [[0.0, 1.0, 0.0]]), atol=1e-12)


def focal_term(logits, alpha, gamma):
    """The mean focal term -alpha (1 - p)^gamma log p alone, p the softmax
    probability of class 0: `ce_focal_loss` at mu = 1 minus it at mu = 0."""
    labels = np.zeros(logits.shape[0], dtype=int)
    mask = np.ones(logits.shape[0], dtype=bool)
    with_focal = ce_focal_loss(logits, labels, mask, 1.0, alpha, gamma)
    return scalar(with_focal) - scalar(ce_focal_loss(logits, labels, mask, 0.0, alpha, gamma))


def rows_with_p(*ps):
    """Two-class logits whose class-0 softmax probability is each p."""
    p = np.array(ps)
    return Tensor(np.column_stack([np.zeros_like(p), np.log((1.0 - p) / p)]))


class TestFocal:
    def test_perfectly_classified_is_zero(self):
        out = focal_term(Tensor([[800.0, 0.0]]), alpha=2.0, gamma=0.5)
        assert out == pytest.approx(0.0, abs=1e-5)

    def test_hand_value(self):
        out = focal_term(rows_with_p(0.25), alpha=2.0, gamma=0.5)
        expected = 2.0 * np.sqrt(0.75) * np.log(4.0)
        assert out == pytest.approx(expected, abs=1e-6)
        assert out == pytest.approx(2.4012, abs=1e-4)

    def test_reduces_to_ce_term(self):
        p = 0.37
        out = focal_term(rows_with_p(p), alpha=1.0, gamma=0.0)
        assert out == pytest.approx(-np.log(p), abs=1e-10)

    @given(st.floats(0.01, 0.98))
    def test_monotone_decreasing_in_p(self, p):
        lo = focal_term(rows_with_p(p), 2.0, 0.5)
        hi = focal_term(rows_with_p(p + 0.01), 2.0, 0.5)
        assert hi <= lo

    def test_nonnegative(self):
        out = focal_term(rows_with_p(*np.linspace(0.01, 0.999, 50)), 2.0, 0.5)
        assert out >= 0.0


class TestKlBernoulliHalf:
    """KL(Bernoulli(sigmoid(z)) || Bernoulli(1/2)) through `kl_sigmoid_half`."""

    def test_half_is_zero(self):
        assert scalar(kl_sigmoid_half(Tensor([[0.0]]))) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        out = scalar(kl_sigmoid_half(Tensor([[np.log(9.0)]])))   # sigmoid = 0.9
        expected = 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
        assert out == pytest.approx(expected, abs=1e-12)
        assert out == pytest.approx(0.36806, abs=1e-5)

    def test_clamped_limit_is_ln2(self):
        # a saturated sigmoid reaches the limit log 2 without a clamp
        assert scalar(kl_sigmoid_half(Tensor([[800.0, -800.0]]))) == pytest.approx(
            np.log(2.0), abs=1e-9
        )

    @given(st.floats(-800.0, 800.0))
    def test_nonnegative_and_symmetric(self, z):
        f = scalar(kl_sigmoid_half(Tensor([[z]])))
        g = scalar(kl_sigmoid_half(Tensor([[-z]])))
        assert f >= -1e-15
        assert f == pytest.approx(g, abs=1e-9)
        if abs(z) > 1e-5:
            assert f > 0.0


logit_rows = arrays(np.float64, (3, 3), elements=st.floats(-20.0, 20.0))


class TestFusedOps:
    @given(
        logit_rows,
        st.lists(st.integers(0, 2), min_size=3, max_size=3),
        st.floats(0.0, 2.0),
        st.floats(0.0, 3.0),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    def test_ce_focal_equals_composed_references(self, x, labels, mu, alpha, gamma):
        mask = [True, False, True]
        logits = Tensor(x)
        fused = scalar(ce_focal_loss(logits, labels, mask, mu, alpha, gamma))
        ce = scalar(cross_entropy(logits, labels, mask))
        assert ce == pytest.approx(ce_focal_oracle(x, labels, mask, 0.0, 0.0, 0.0), abs=1e-12)
        assert fused == pytest.approx(ce_focal_oracle(x, labels, mask, mu, alpha, gamma), abs=1e-12)

    @given(arrays(np.float64, (3, 4), elements=st.floats(-20.0, 20.0)))
    def test_kl_equals_composed_reference(self, z):
        fused = scalar(kl_sigmoid_half(Tensor(z)))
        assert fused == pytest.approx(kl_half_oracle(z), abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_ce_focal_gradient_matches_finite_differences(self, gamma):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(6, 3), scale=2.0), requires_grad=True)
        labels = np.array([0, 1, 2, 2, 1, 0])
        mask = np.array([True, True, False, True, True, True])

        def build():
            return ce_focal_loss(logits, labels, mask, 1.0, 2.0, gamma)

        build().backward()
        numeric = finite_difference_grads(lambda: build().data[0, 0], [logits])
        assert_close_gradients([logits.grad], numeric)

    def test_kl_gradient_matches_finite_differences_at_zero(self):
        z = Tensor([[0.0, 0.0, 1.5], [-2.0, 0.0, 0.3]], requires_grad=True)
        kl_sigmoid_half(z).backward()
        numeric = finite_difference_grads(lambda: kl_sigmoid_half(z).data[0, 0], [z])
        assert_close_gradients([z.grad], numeric)
        assert z.grad[0, 0] == 0.0
        assert scalar(kl_sigmoid_half(Tensor(np.zeros((2, 2))))) == 0.0

    @pytest.mark.parametrize("label", [0, 1])
    def test_extreme_row_is_finite(self, label):
        logits = Tensor([[800.0, 0.0, 0.0]], requires_grad=True)
        cfg = LossConfig()
        out = ce_focal_loss(logits, [label], [True], cfg.mu, cfg.alpha, cfg.gamma)
        out.backward()
        assert np.isfinite(out.data).all() and np.isfinite(logits.grad).all()
        if label == 1:
            # -log p = 800, q = 1: loss 800 (1 + mu alpha), gradient (s - e_y)(1 + mu alpha)
            assert scalar(out) == pytest.approx(800.0 * 3.0)
            np.testing.assert_allclose(logits.grad, [[3.0, -3.0, 0.0]])
        else:
            assert scalar(out) == 0.0
            np.testing.assert_array_equal(logits.grad, [[0.0, 0.0, 0.0]])


class TestHgibLoss:
    def test_zero_activations_no_compression(self):
        z = Tensor(np.zeros((3, 4)))
        logits = Tensor(np.zeros((3, 2)))
        out = hgib_loss([(z, logits)], [0, 1, 0], np.ones(3, dtype=bool), beta=1.0)
        assert scalar(out) == pytest.approx(np.log(2.0), abs=1e-10)

    def test_beta_zero_is_mean_ce(self):
        rng = np.random.default_rng(0)
        per_layer = [
            (Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 2))))
            for _ in range(2)
        ]
        labels = [0, 1, 1, 0]
        mask = np.ones(4, dtype=bool)
        out = hgib_loss(per_layer, labels, mask, beta=0.0)
        ces = [scalar(cross_entropy(lg, labels, mask)) for _, lg in per_layer]
        assert scalar(out) == pytest.approx(np.mean(ces), abs=1e-12)

    def test_composed_closed_form(self):
        z = Tensor([[np.log(9.0)]])  # sigmoid -> 0.9
        logits = Tensor([[0.0, 0.0]])
        out = hgib_loss([(z, logits)], [0], [True], beta=1.0)
        expected = np.log(2.0) + 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
        assert scalar(out) == pytest.approx(expected, abs=1e-9)
        assert scalar(out) == pytest.approx(1.0612, abs=1e-4)

    def test_beta_linearity(self):
        rng = np.random.default_rng(1)
        per_layer = [(Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 2))))]
        labels, mask = [0, 1, 0], np.ones(3, dtype=bool)
        v0 = scalar(hgib_loss(per_layer, labels, mask, beta=0.0))
        v1 = scalar(hgib_loss(per_layer, labels, mask, beta=1.0))
        v2 = scalar(hgib_loss(per_layer, labels, mask, beta=2.0))
        assert v2 - v1 == pytest.approx(v1 - v0, abs=1e-10)
        assert v1 >= v0

    def test_empty_per_layer(self):
        with pytest.raises(ValueError):
            hgib_loss([], [0], [True], beta=1.0)


class TestTotalLoss:
    def _fixture(self, seed=0):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(6, 3)))
        per_layer = [
            (Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(6, 3)))),
            (Tensor(rng.normal(size=(6, 4))), logits),
        ]
        labels = np.array([0, 1, 2, 0, 1, 2])
        mask = np.array([True, True, True, True, False, False])
        return logits, per_layer, labels, mask

    def test_ablation_reduces_to_ce(self):
        logits, per_layer, labels, mask = self._fixture()
        cfg = LossConfig(mu=0.0, xi=0.0)
        out = total_loss(logits, per_layer, labels, mask, cfg)
        assert scalar(out) == pytest.approx(
            scalar(cross_entropy(logits, labels, mask)), abs=1e-14
        )

    def test_sum_of_component_oracles(self):
        logits, per_layer, labels, mask = self._fixture()
        cfg = LossConfig()  # defaults mu=1, xi=10
        out = scalar(total_loss(logits, per_layer, labels, mask, cfg))
        bottleneck = np.mean(
            [
                ce_focal_oracle(lg.data, labels, mask, 0.0, 0.0, 0.0) + cfg.beta * kl_half_oracle(z.data)
                for z, lg in per_layer
            ]
        )
        expected = ce_focal_oracle(logits.data, labels, mask, cfg.mu, cfg.alpha, cfg.gamma) + cfg.xi * bottleneck
        assert out == pytest.approx(expected, abs=1e-10)

    def test_double_ce_reduction(self):
        logits, per_layer, labels, mask = self._fixture()
        cfg = LossConfig(mu=1.0, xi=0.0, alpha=1.0, gamma=0.0)
        out = scalar(total_loss(logits, per_layer, labels, mask, cfg))
        ce = scalar(cross_entropy(logits, labels, mask))
        assert out == pytest.approx(2.0 * ce, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        z1 = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = np.array([0, 1, 2, 0, 1, 2])
        mask = np.ones(6, dtype=bool)
        cfg = LossConfig()

        def build():
            logits = ad.matmul(z1, w1)
            return total_loss(logits, [(z1, logits)], labels, mask, cfg)

        build().backward()
        numeric = finite_difference_grads(lambda: build().data[0, 0], [z1, w1])
        assert_close_gradients([z1.grad, w1.grad], numeric)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(mu=-1.0)
