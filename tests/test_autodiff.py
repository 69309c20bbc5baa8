import numpy as np
import pytest

from hgib import autodiff as ad
from hgib.autodiff import AdamState, Tensor, adam_step
from hgib.errors import NonFiniteError, ShapeError
from hgib.losses import ce_focal_loss, kl_sigmoid_half
from hgib.trainer import build

from oracles import adam_oracle, assert_close_gradients, finite_difference_grads


def bits(a):
    """The float64 array's bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(Tensor([[1, 0], [0, 1]]), Tensor([[3, 4], [5, 6]]))
        np.testing.assert_array_equal(out.data, [[3, 4], [5, 6]])

    def test_hand_product(self):
        out = ad.matmul(Tensor([[1, 2]]), Tensor([[3], [4]]))
        assert out.data[0, 0] == 11

    def test_zero_annihilator(self):
        assert ad.matmul(Tensor([[0]]), Tensor([[7]])).data[0, 0] == 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor([[1, 2]]), Tensor([[1, 2]]))

    def test_vjp_skips_constant_parent(self):
        const = Tensor([[1.0, 2.0], [3.0, 4.0]])
        param = Tensor([[0.5], [-1.0]], requires_grad=True)
        g = np.ones((2, 1))
        grad_const, grad_param = ad.matmul(const, param)._vjp(g)
        assert grad_const is None
        np.testing.assert_array_equal(grad_param, const.data.T @ g)
        grad_param, grad_const = ad.matmul(Tensor([[1.0, 2.0]], requires_grad=True), const)._vjp(
            np.ones((1, 2))
        )
        assert grad_const is None and grad_param.shape == (1, 2)


class TestPropagate:
    @staticmethod
    def operands(seed, n=7, d=3):
        rng = np.random.default_rng(seed)
        p = rng.random((n, n))
        return p / p.sum(axis=1, keepdims=True), rng.normal(size=(n, d))

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_tall_product(self, seed):
        # within rounding, not bitwise: the bits depend on the BLAS kernel
        p, x = self.operands(seed, n=40, d=16)
        np.testing.assert_allclose(ad.propagate(p, Tensor(x)).data, p @ x, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_match_finite_differences(self, seed):
        p, x_data = self.operands(seed)
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(np.random.default_rng(seed + 10).normal(size=(3, 3)))
        labels = np.array([0, 2, 1, 1, 0, 2, 1])

        def build():
            h = ad.propagate(p, ad.relu_matmul(x, w))
            return ad.weighted_sum(
                [kl_sigmoid_half(h), ce_focal_loss(h, labels, [True] * 6 + [False], 1.0, 2.0, 0.5)],
                [1.0, 0.5],
            )

        build().backward()
        assert_close_gradients([x.grad], finite_difference_grads(lambda: build().data[0, 0], [x]))

    def test_constant_gets_no_gradient(self):
        p, x_data = self.operands(0)
        x = Tensor(x_data, requires_grad=True)
        out = ad.propagate(p, x)
        g = np.random.default_rng(1).normal(size=out.shape)
        assert out._parents == (x,)   # p is not on the tape
        (grad_x,) = out._vjp(g)
        assert not np.shares_memory(grad_x, g)
        np.testing.assert_allclose(grad_x, p.T @ g, rtol=1e-14, atol=1e-15)
        assert ad.propagate(p, Tensor(x_data))._vjp is None   # nothing to differentiate

    def test_shape_mismatch(self):
        p, x = self.operands(0, n=4)
        with pytest.raises(ShapeError):
            ad.propagate(p, Tensor(x[:3]))


class TestPropagatedOperands:
    """P and P·X are read-only arrays, and no tape holds P."""

    def test_p_and_px_reject_writes(self, small_dataset):
        s = build(small_dataset, 5)
        P, px = s.graph.propagation(), s.propagated_features
        for arr in (P, px.data):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        np.testing.assert_allclose(px.data, P @ s.features.data, rtol=1e-14, atol=1e-15)

    def test_x_is_the_only_parent(self):
        p, x_data = TestPropagate.operands(0)
        x = Tensor(x_data, requires_grad=True)
        out = ad.propagate(p, x)
        assert out._parents == (x,) and len(out._vjp(np.ones(out.shape))) == 1
        hidden = ad.relu_matmul(x, Tensor(np.eye(3)))   # an interior node as x
        assert ad.propagate(p, hidden)._parents == (hidden,)


class TestElementwise:
    """The ReLU of `relu_matmul`, read through an identity right operand
    where the product is its left operand itself."""

    def test_relu_signs(self):
        out = ad.relu_matmul(Tensor([[-1, 2]]), Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[0, 2]])

    def test_relu_idempotent(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
        eye = Tensor(np.eye(4))
        once = ad.relu_matmul(x, eye).data
        np.testing.assert_array_equal(ad.relu_matmul(ad.relu_matmul(x, eye), eye).data, once)

    def test_relu_bit_equal_to_where(self):
        # against plain numpy, bit for bit: the output is np.where on the
        # product, and both VJP products are formed from g masked by
        # product > 0, with zeros and -0.0 in the operands and in g
        rng = np.random.default_rng(11)
        a = rng.normal(size=(40, 16))
        a[::3] = 0.0
        a[1::3, ::2] = -0.0
        b = rng.normal(size=(16, 12))
        b[:, ::4] = 0.0
        b[:, 1::4] = -0.0
        g = rng.normal(size=(40, 12))
        g[::5] = -0.0
        out = ad.relu_matmul(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))
        product = a @ b
        np.testing.assert_array_equal(bits(out.data), bits(np.where(product > 0, product, 0)))
        grad_a, grad_b = out._vjp(g)
        masked = g * (product > 0)
        np.testing.assert_array_equal(bits(grad_a), bits(masked @ b.T))
        np.testing.assert_array_equal(bits(grad_b), bits(a.T @ masked))
        eye = ad.relu_matmul(Tensor(a), Tensor(np.eye(16)))
        np.testing.assert_array_equal(bits(eye.data), bits(np.where(a > 0, a, 0)))

    def test_nonfinite_output_rejected(self):
        big = Tensor([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            ad.matmul(big, big)


class TestReluMatmul:
    def test_constant_operand_gets_no_gradient_product(self):
        const = Tensor([[1.0, -2.0], [3.0, 4.0]])
        param = Tensor([[0.5], [-1.0]], requires_grad=True)
        g = np.ones((2, 1))
        out = ad.relu_matmul(const, param)
        grad_const, grad_param = out._vjp(g)
        assert grad_const is None
        np.testing.assert_array_equal(grad_param, const.data.T @ (g * (out.data > 0)))
        grad_param, grad_const = ad.relu_matmul(
            Tensor([[1.0, 2.0]], requires_grad=True), const
        )._vjp(np.ones((1, 2)))
        assert grad_const is None and grad_param.shape == (1, 2)
        assert ad.relu_matmul(const, const)._vjp is None   # nothing to differentiate

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("constant_left", [False, True])
    def test_gradients_match_finite_differences(self, seed, constant_left):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(6, 4)), requires_grad=not constant_left)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = np.array([0, 2, 1, 1, 0, 2])
        params = [b] if constant_left else [a, b]

        def build():
            h = ad.relu_matmul(a, b)
            return ad.weighted_sum(
                [kl_sigmoid_half(h), ce_focal_loss(h, labels, [True] * 5 + [False], 1.0, 2.0, 0.5)],
                [1.0, 0.5],
            )

        build().backward()
        assert a.grad is None or a.grad.any()
        numeric = finite_difference_grads(lambda: build().data[0, 0], params)
        assert_close_gradients([p.grad for p in params], numeric)

    def test_negative_infinite_product_rejected(self):
        # the ReLU would turn -inf into 0; the product is checked first
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            ad.relu_matmul(Tensor([[-1e308, -1e308]]), Tensor([[1e308], [1e308]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.relu_matmul(Tensor([[1, 2]]), Tensor([[1, 2]]))


class TestReductions:
    def test_sum(self):
        assert ad.tsum(Tensor([[1, 2], [3, 4]])).data[0, 0] == 10

    def test_weighted_sum(self):
        a = Tensor([[2.0]], requires_grad=True)
        b = Tensor([[-3.0]], requires_grad=True)
        out = ad.weighted_sum([a, b, a], [0.5, 2.0, 1.5])
        assert out.data[0, 0] == 2.0 * 0.5 - 6.0 + 3.0
        out.backward()
        assert (a.grad[0, 0], b.grad[0, 0]) == (2.0, 2.0)
        with pytest.raises(ShapeError):
            ad.weighted_sum([Tensor([[1.0, 2.0]])], [1.0])
        with pytest.raises(ShapeError):
            ad.weighted_sum([a], [1.0, 2.0])


class TestBackward:
    def test_linear_case_all_ones(self):
        theta = Tensor(np.random.default_rng(0).normal(size=(3, 2)), requires_grad=True)
        ad.tsum(theta).backward()
        np.testing.assert_array_equal(theta.grad, np.ones((3, 2)))

    def test_quadratic_analytic(self):
        theta = Tensor([[3.0]], requires_grad=True)
        ad.matmul(theta, theta).backward()
        assert theta.grad[0, 0] == pytest.approx(6.0, abs=1e-12)

    def test_accumulation_on_repeated_calls(self):
        theta = Tensor([[2.0]], requires_grad=True)
        loss = ad.tsum(theta)
        loss.backward()
        loss.backward()
        assert theta.grad[0, 0] == 2.0

    def test_additivity_over_sum_of_losses(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(3, 3))

        def grads_of(build):
            t = Tensor(data.copy(), requires_grad=True)
            build(t).backward()
            return t.grad

        f = lambda t: ad.tsum(ad.matmul(t, t))
        g = lambda t: ad.weighted_sum([ad.tsum(ad.relu_matmul(t, t))], [1.0 / 9.0])
        combined = grads_of(lambda t: ad.weighted_sum([f(t), g(t)], [1.0, 1.0]))
        np.testing.assert_allclose(
            combined, grads_of(f) + grads_of(g), atol=1e-10
        )

    def test_nonscalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([[1.0, 2.0]], requires_grad=True).backward()

    def test_fanout_accumulates(self):
        x = Tensor([[1.5]], requires_grad=True)
        ad.weighted_sum([ad.matmul(x, x), x], [1.0, 3.0]).backward()
        assert x.grad[0, 0] == pytest.approx(2 * 1.5 + 3.0, abs=1e-12)

    def test_deterministic_replay(self):
        rng = np.random.default_rng(11)
        a_data, b_data = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))

        def run():
            a = Tensor(a_data.copy(), requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=True)
            loss = kl_sigmoid_half(ad.relu_matmul(a, b))
            loss.backward()
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert (ga1 == ga2).all() and (gb1 == gb2).all()

    @pytest.mark.parametrize(
        "op",
        [
            lambda x, y: ad.matmul(x, y),
            lambda x, y: ad.matmul(x, x),
            lambda x, y: ad.relu_matmul(x, y),
            lambda x, y: ad.relu_matmul(x, x),
            lambda x, y: ad.tsum(x),
            lambda x, y: ad.weighted_sum([ad.tsum(x), ad.tsum(y), ad.tsum(x)], [1.0, 1.0, 1.0]),
            lambda x, y: ce_focal_loss(x, np.array([0, 2, 1]), [True, False, True], 1.0, 2.0, 0.5),
            lambda x, y: kl_sigmoid_half(x),
        ],
    )
    def test_vjp_returns_fresh_arrays(self, op):
        # backward sums adjoints in place, so a VJP may hand back neither its
        # g nor one array for two parents
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        y = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        out = op(x, y)
        g = rng.normal(size=out.shape)
        grads = out._vjp(g)
        assert len(grads) == len(out._parents) and all(pg is not None for pg in grads)
        for i, pg in enumerate(grads):
            assert not np.shares_memory(pg, g)
            for other in grads[i + 1:]:
                assert not np.shares_memory(pg, other)

    @pytest.mark.parametrize("seed", range(8))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(4, 3)) + 0.1, requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        c = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        labels = np.array([0, 4, 2, 1])

        def build():
            h = ad.relu_matmul(a, b)
            square = ad.matmul(h, c)
            return ad.weighted_sum(
                [
                    ad.tsum(ad.matmul(square, square)),
                    kl_sigmoid_half(h),
                    ce_focal_loss(h, labels, [True, True, False, True], 1.0, 2.0, 0.5),
                ],
                [0.5, 2.0, 1.0],
            )

        loss = build()
        loss.backward()
        numeric = finite_difference_grads(
            lambda: build().data[0, 0], [a, b, c]
        )
        assert_close_gradients([a.grad, b.grad, c.grad], numeric)


class TestAdam:
    def test_zero_lr_keeps_params(self):
        p = Tensor([[1.0, 2.0]], requires_grad=True)
        state = AdamState.for_params([p])
        adam_step([p], [np.ones((1, 2))], state, lr=0.0)
        np.testing.assert_array_equal(p.data, [[1.0, 2.0]])
        assert state.step == 1

    def test_bias_corrected_first_step(self):
        p = Tensor([[1.0]], requires_grad=True)
        state = AdamState.for_params([p])
        adam_step([p], [np.array([[1.0]])], state, lr=0.1)
        # m-hat = 1, v-hat = 1 after bias correction -> update ~ lr
        assert p.data[0, 0] == pytest.approx(0.9, abs=1e-8)

    def test_zero_grad_keeps_params(self):
        p = Tensor([[5.0]], requires_grad=True)
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros((1, 1))], state, lr=0.1)
        assert p.data[0, 0] == 5.0

    def test_shape_mismatch(self):
        p = Tensor([[1.0]], requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(ShapeError):
            adam_step([p], [np.ones((2, 2))], state, lr=0.1)

    def test_bit_identical_to_textbook_adam(self):
        rng = np.random.default_rng(8)
        shapes = [(5, 4), (4, 4), (4, 3), (1, 1)]
        init = [rng.normal(size=s) for s in shapes]
        steps = 300
        grads = [[rng.normal(size=s) * 10.0 ** rng.integers(-8, 4) for s in shapes] for _ in range(steps)]
        lrs = [1e-2 * (1.0 - t / steps) for t in range(steps)]
        params = [Tensor(a.copy(), requires_grad=True) for a in init]
        state = AdamState.for_params(params)
        for step_grads, lr in zip(grads, lrs):
            adam_step(params, step_grads, state, lr)
        for p, expected in zip(params, adam_oracle(init, grads, lrs)):
            assert np.array_equal(bits(p.data), bits(expected))

    def test_state_of_other_params_rejected(self):
        state = AdamState.for_params([Tensor([[1.0, 2.0]], requires_grad=True)])
        p = Tensor([[1.0]], requires_grad=True)
        with pytest.raises(ShapeError):
            adam_step([p], [np.ones((1, 1))], state, lr=0.1)
        assert state.step == 0 and p.data[0, 0] == 1.0

    def test_step_counter_increases(self):
        p = Tensor([[1.0]], requires_grad=True)
        state = AdamState.for_params([p])
        for expected in (1, 2, 3):
            adam_step([p], [np.array([[0.3]])], state, lr=0.01)
            assert state.step == expected
