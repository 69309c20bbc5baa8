import numpy as np
import pytest

from hgib import autodiff as ad
from hgib.autodiff import AdamState, Tensor, adam_step
from hgib.errors import NonFiniteError, ShapeError
from hgib.losses import ce_focal_loss, kl_sigmoid_half

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


class TestConstant:
    def test_shares_memory_and_is_read_only(self):
        data = np.arange(6.0).reshape(2, 3)
        t = Tensor.constant(data)
        assert np.shares_memory(t.data, data) and not t.requires_grad
        with pytest.raises(ValueError):
            t.data[0, 0] = 1.0
        data[0, 0] = 7.0  # the caller's own array stays writable
        assert t.data[0, 0] == 7.0

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            Tensor.constant(np.zeros(3))
        with pytest.raises(ShapeError):
            Tensor.constant(np.zeros((2, 2), dtype=int))


class TestElementwise:
    def test_relu_signs(self):
        np.testing.assert_array_equal(ad.relu(Tensor([[-1, 2]])).data, [[0, 2]])

    def test_relu_idempotent(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
        once = ad.relu(x).data
        np.testing.assert_array_equal(ad.relu(ad.relu(x)).data, once)

    def test_relu_bit_equal_to_where(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 16))
        x[::3] = 0.0
        x[1::3, ::2] = -0.0
        g = rng.normal(size=x.shape)
        g[::5] = -0.0
        out = ad.relu(Tensor(x, requires_grad=True))
        np.testing.assert_array_equal(bits(out.data), bits(np.where(x > 0, x, 0)))
        (grad,) = out._vjp(g)
        np.testing.assert_array_equal(bits(grad), bits(g * (x > 0)))

    def test_nonfinite_output_rejected(self):
        big = Tensor([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            ad.matmul(big, big)


class TestReductions:
    def test_sum(self):
        assert ad.tsum(Tensor([[1, 2], [3, 4]])).data[0, 0] == 10

    def test_row_softmax_uniform(self):
        np.testing.assert_allclose(
            ad.row_softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]]
        )

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

    def test_row_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(3).normal(size=(5, 7), scale=30))
        sums = ad.row_softmax(x).data.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


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
        g = lambda t: ad.weighted_sum([ad.tsum(ad.relu(t))], [1.0 / 9.0])
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
            loss = kl_sigmoid_half(ad.matmul(ad.relu(a), b))
            loss.backward()
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert (ga1 == ga2).all() and (gb1 == gb2).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(4, 3)) + 0.1, requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        c = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        labels = np.array([0, 4, 2, 1])

        def build():
            h = ad.matmul(ad.relu(a), b)
            square = ad.matmul(ad.row_softmax(h), c)
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
