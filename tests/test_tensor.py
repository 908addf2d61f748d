import numpy as np
import pytest
from hypothesis import given, strategies as st

import cqarank.numerics as N
from cqarank.errors import ContractError, EmptyInputError, ShapeError


def finite_diff(f, arrays, h=1e-6):
    """Independent central-difference oracle over raw numpy buffers."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))


class TestMatmul:
    def test_identity(self):
        a = N.Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = N.Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(N.matmul(a, b).data, [[5.0, 6.0], [7.0, 8.0]])

    def test_hand_product(self):
        out = N.matmul(N.Tensor([[1.0, 2.0]]), N.Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            N.matmul(N.Tensor(np.zeros((2, 3))), N.Tensor(np.zeros((2, 3))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        a = N.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = N.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        w = rng.normal(size=(3, 2))  # fixed projection to a scalar

        def loss():
            return float((a.data @ b.data * w).sum())

        num_a, num_b = finite_diff(loss, [a.data, b.data])
        out = (N.matmul(a, b) * N.Tensor(w)).sum()
        out.backward()
        assert rel_err(a.grad, num_a) <= 1e-6
        assert rel_err(b.grad, num_b) <= 1e-6


class TestActivations:
    def test_sigmoid_zero(self):
        assert N.sigmoid(N.Tensor([0.0])).data[0] == 0.5

    @given(st.floats(min_value=-50, max_value=50))
    def test_softmax_constant_rows(self, c):
        out = N.softmax(N.Tensor([c, c, c]), axis=0)
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_softmax_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        out = N.softmax(N.Tensor(x), axis=0)
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8),
           st.floats(min_value=-100, max_value=100))
    def test_softmax_shift_invariance_and_normalization(self, xs, c):
        x = np.array(xs)
        s1 = N.softmax(N.Tensor(x), axis=0).data
        s2 = N.softmax(N.Tensor(x + c), axis=0).data
        assert np.all(s1 >= 0)
        assert abs(s1.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(s1 - s2)) <= 1e-12

    def test_softmax_extreme_inputs_are_stable(self):
        out = N.softmax(N.Tensor([1000.0, 1000.0, -1000.0]), axis=0)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data[:2], 0.5)

    def test_relu_and_sigmoid_gradients(self):
        rng = np.random.default_rng(3)
        x = N.Tensor(rng.normal(size=7) + np.sign(rng.normal(size=7)) * 0.2,
                     requires_grad=True)  # keep away from the relu kink
        w = rng.normal(size=7)

        def loss_relu():
            return float((np.maximum(x.data, 0) * w).sum())

        (num,) = finite_diff(loss_relu, [x.data])
        out = (N.relu(x) * N.Tensor(w)).sum()
        out.backward()
        assert rel_err(x.grad, num) <= 1e-7

        x.zero_grad()

        def loss_sig():
            return float((1 / (1 + np.exp(-x.data)) * w).sum())

        (num,) = finite_diff(loss_sig, [x.data])
        (N.sigmoid(x) * N.Tensor(w)).sum().backward()
        assert rel_err(x.grad, num) <= 1e-7

    def test_log_softmax_matches_log_of_softmax(self):
        x = N.Tensor([0.3, -1.2, 2.0])
        assert np.allclose(N.log_softmax(x, axis=0).data,
                           np.log(N.softmax(x, axis=0).data), atol=1e-12)


class TestReductionsAndShapes:
    def test_mean(self):
        assert N.Tensor([2.0, 4.0, 6.0]).mean().item() == 4.0

    def test_max_singleton_axis_is_identity(self):
        x = N.Tensor([[1.5], [-2.0]])
        assert np.array_equal(N.reduce_max(x, axis=1).data, [1.5, -2.0])

    def test_concat(self):
        out = N.concat([N.Tensor([1.0, 2.0]), N.Tensor([3.0])], axis=0)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            N.concat([N.Tensor(np.zeros((2, 2))), N.Tensor(np.zeros((2, 3)))], axis=0)

    def test_empty_reduction_axis(self):
        with pytest.raises(EmptyInputError):
            N.reduce_mean(N.Tensor(np.zeros((3, 0))), axis=1)

    def test_reduce_max_tie_gradient_goes_to_first(self):
        x = N.Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        N.reduce_max(x, axis=1).sum().backward()
        assert np.array_equal(x.grad, [[1.0, 0.0, 0.0]])

    def test_reduction_gradients(self):
        rng = np.random.default_rng(11)
        x = N.Tensor(rng.normal(size=(4, 5)), requires_grad=True)

        def loss():
            return float(x.data.mean(axis=1).sum() + x.data.sum())

        (num,) = finite_diff(loss, [x.data])
        (N.reduce_mean(x, axis=1).sum() + x.sum()).backward()
        assert rel_err(x.grad, num) <= 1e-8

    def test_take_accumulates_repeats(self):
        x = N.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        N.take(x, [0, 0, 2]).sum().backward()
        assert np.array_equal(x.grad, [2.0, 0.0, 1.0])


class TestGraph:
    def test_fanout_accumulates(self):
        x = N.Tensor([3.0], requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.sum().backward()
        assert np.allclose(x.grad, [7.0])

    def test_diamond_with_shared_buffers(self):
        # exercises copy-on-write accumulation when closures hand back views
        a = N.Tensor([1.0, 2.0], requires_grad=True)
        b = N.Tensor([3.0, 4.0], requires_grad=True)
        s = a + b
        t = N.concat([s, s], axis=0)
        (t.sum() + s.sum()).backward()
        assert np.array_equal(a.grad, [3.0, 3.0])
        assert np.array_equal(b.grad, [3.0, 3.0])

    def test_backward_requires_scalar(self):
        x = N.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2).backward()

    def test_no_grad_blocks_recording(self):
        x = N.Tensor([1.0], requires_grad=True)
        with N.no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_forward_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 6))
        a = N.softmax(N.matmul(N.Tensor(x), N.Tensor(x)), axis=1).data
        b = N.softmax(N.matmul(N.Tensor(x), N.Tensor(x)), axis=1).data
        assert np.array_equal(a, b)

    def test_float32_stays_float32(self):
        x = N.Tensor(np.ones((2, 2), dtype=np.float32))
        assert (x * 2.0).dtype == np.float32
        assert N.matmul(x, x).dtype == np.float32
