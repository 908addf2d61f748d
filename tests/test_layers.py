import numpy as np
import pytest

import cqarank.numerics as N
from cqarank.errors import ConfigError, EmptyInputError, ShapeError

from cqarank.numerics.tensor import _make
from test_tensor import finite_diff, rel_err


class TestConv1d:
    def _params(self, rng, c_in, c_out, k=3):
        w = N.Tensor(rng.normal(size=(c_out, c_in, k)), requires_grad=True)
        b = N.Tensor(rng.normal(size=c_out), requires_grad=True)
        return w, b

    def test_zero_input_zero_bias(self):
        rng = np.random.default_rng(0)
        w, _ = self._params(rng, 2, 4)
        b = N.Tensor(np.zeros(4))
        out = N.conv1d(N.Tensor(np.zeros((2, 5))), w, b)
        assert out.shape == (4, 5)
        assert np.all(out.data == 0)

    def test_hand_convolution(self):
        x = N.Tensor([[1.0, 2.0, 3.0]])
        w = N.Tensor(np.ones((1, 1, 3)))
        b = N.Tensor(np.zeros(1))
        assert np.array_equal(N.conv1d(x, w, b).data, [[3.0, 6.0, 5.0]])

    @pytest.mark.parametrize("length", [1, 2, 3, 7])
    def test_output_length_equals_input_length(self, length):
        rng = np.random.default_rng(1)
        w, b = self._params(rng, 3, 2)
        out = N.conv1d(N.Tensor(rng.normal(size=(3, length))), w, b)
        assert out.shape == (2, length)

    def test_empty_input(self):
        rng = np.random.default_rng(1)
        w, b = self._params(rng, 3, 2)
        with pytest.raises(EmptyInputError):
            N.conv1d(N.Tensor(np.zeros((3, 0))), w, b)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        x = N.Tensor(rng.normal(size=(4, 7)), requires_grad=True)
        w, b = self._params(rng, 4, 3)
        proj = rng.normal(size=(3, 7))

        def loss():
            xp = np.zeros((4, 9))
            xp[:, 1:8] = x.data
            out = np.zeros((3, 7))
            for t in range(7):
                out[:, t] = np.einsum("oik,ik->o", w.data, xp[:, t:t + 3]) + b.data
            return float((out * proj).sum())

        num_x, num_w, num_b = finite_diff(loss, [x.data, w.data, b.data])
        (N.conv1d(x, w, b) * N.Tensor(proj)).sum().backward()
        assert rel_err(x.grad, num_x) <= 1e-6
        assert rel_err(w.grad, num_w) <= 1e-6
        assert rel_err(b.grad, num_b) <= 1e-6


    def test_segments_get_the_bits_they_get_alone(self):
        rng = np.random.default_rng(43)
        w, b = self._params(rng, 3, 2)
        lengths = [4, 1, 6, 2]
        x = rng.normal(size=(3, 13))
        out = N.conv1d(N.Tensor(x), w, b, lengths).data
        start = 0
        for n in lengths:
            alone = N.conv1d(N.Tensor(x[:, start:start + n].copy()), w, b).data
            assert out[:, start:start + n].tobytes() == alone.tobytes()
            start += n

    def test_segment_gradients_match_separate_sentences(self):
        rng = np.random.default_rng(44)
        w, b = self._params(rng, 3, 2)
        lengths = [2, 1, 4]
        x = N.Tensor(rng.normal(size=(3, 7)), requires_grad=True)
        proj = rng.normal(size=(2, 7))
        (N.conv1d(x, w, b, lengths) * N.Tensor(proj)).sum().backward()
        joint = x.grad.copy(), w.grad.copy(), b.grad.copy()
        w.zero_grad()
        b.zero_grad()
        parts, start = [], 0
        for n in lengths:
            part = N.Tensor(x.data[:, start:start + n].copy(), requires_grad=True)
            (N.conv1d(part, w, b) * N.Tensor(proj[:, start:start + n])).sum().backward()
            parts.append(part.grad)
            start += n
        assert np.allclose(joint[0], np.concatenate(parts, axis=1), atol=1e-12)
        assert np.allclose(joint[1], w.grad, atol=1e-12)
        assert np.allclose(joint[2], b.grad, atol=1e-12)

    def test_segment_lengths_must_cover_the_input(self):
        rng = np.random.default_rng(45)
        w, b = self._params(rng, 3, 2)
        with pytest.raises(ShapeError):
            N.conv1d(N.Tensor(np.zeros((3, 5))), w, b, [2, 2])
        with pytest.raises(EmptyInputError):
            N.conv1d(N.Tensor(np.zeros((3, 5))), w, b, [5, 0])


class TestMaxPool1d:
    def test_hand_windows(self):
        out = N.maxpool1d(N.Tensor([[1.0, 2.0, 3.0, 4.0, 5.0]]))
        # windows over zero-padded input: {0,1,2}, {2,3,4}, {4,5,0}
        assert np.array_equal(out.data, [[2.0, 4.0, 5.0]])

    def test_constant_positive_input(self):
        out = N.maxpool1d(N.Tensor(np.full((2, 6), 3.5)))
        assert np.all(out.data == 3.5)

    @pytest.mark.parametrize("length,expected", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (9, 5)])
    def test_output_length_is_ceil_half(self, length, expected):
        out = N.maxpool1d(N.Tensor(np.arange(length, dtype=float)[None, :]))
        assert out.shape == (1, expected)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            N.maxpool1d(N.Tensor(np.zeros((1, 0))))

    def test_gradients_with_distinct_elements(self):
        rng = np.random.default_rng(9)
        vals = rng.permutation(np.linspace(1.0, 2.0, 10)).reshape(2, 5)
        x = N.Tensor(vals, requires_grad=True)
        proj = rng.normal(size=(2, 3))

        def loss():
            xp = np.zeros((2, 7))
            xp[:, 1:6] = x.data
            out = np.stack([xp[:, 2 * t:2 * t + 3].max(axis=1) for t in range(3)], axis=1)
            return float((out * proj).sum())

        (num,) = finite_diff(loss, [x.data])
        (N.maxpool1d(x) * N.Tensor(proj)).sum().backward()
        assert rel_err(x.grad, num) <= 1e-6


    def test_segments_pool_as_they_would_alone(self):
        rng = np.random.default_rng(10)
        lengths = [5, 1, 2, 3]
        x = N.Tensor(rng.normal(size=(2, 11)), requires_grad=True)
        out = N.maxpool1d(x, lengths)
        assert out.shape == (2, 3 + 1 + 1 + 2)
        proj = rng.normal(size=out.shape)
        (out * N.Tensor(proj)).sum().backward()
        start = out_start = 0
        for n in lengths:
            part = N.Tensor(x.data[:, start:start + n].copy(), requires_grad=True)
            alone = N.maxpool1d(part)
            k = alone.shape[1]
            assert np.array_equal(out.data[:, out_start:out_start + k], alone.data)
            (alone * N.Tensor(proj[:, out_start:out_start + k])).sum().backward()
            assert np.array_equal(x.grad[:, start:start + n], part.grad)
            start, out_start = start + n, out_start + k


class TestBatchNorm:
    def test_constant_channel_gives_shift(self):
        bn = N.BatchNorm1d(2)
        bn.beta.data[:] = [0.7, -0.3]
        out = bn(N.Tensor(np.full((2, 5), 4.0)), train=True)
        assert np.allclose(out.data[0], 0.7, atol=1e-9)
        assert np.allclose(out.data[1], -0.3, atol=1e-9)

    def test_normalizes_seeded_data(self):
        rng = np.random.default_rng(123)
        bn = N.BatchNorm1d(1)
        out = bn(N.Tensor(rng.normal(loc=3.0, scale=2.0, size=(1, 20000))), train=True)
        assert abs(out.data.mean()) <= 1e-2
        assert abs(out.data.var() - 1.0) <= 1e-2

    def test_eval_before_any_training_uses_init_stats(self):
        bn = N.BatchNorm1d(1)
        x = np.array([[1.0, 2.0]])
        out = bn(N.Tensor(x), train=False)
        assert np.allclose(out.data, x / np.sqrt(1 + bn.eps), atol=1e-12)

    def test_running_stats_update(self):
        bn = N.BatchNorm1d(1)
        bn(N.Tensor(np.array([[10.0, 14.0]])), train=True)
        assert np.allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * 12.0)
        assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * 4.0)

    def test_train_mode_gradients(self):
        rng = np.random.default_rng(2)
        x = N.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        gamma = N.Tensor(rng.normal(size=3) + 2.0, requires_grad=True)
        beta = N.Tensor(rng.normal(size=3), requires_grad=True)
        proj = rng.normal(size=(3, 6))

        def loss():
            mean = x.data.mean(axis=1, keepdims=True)
            var = x.data.var(axis=1, keepdims=True)
            xhat = (x.data - mean) / np.sqrt(var + 1e-5)
            return float(((gamma.data[:, None] * xhat + beta.data[:, None]) * proj).sum())

        num_x, num_g, num_b = finite_diff(loss, [x.data, gamma.data, beta.data])
        out, _, _ = N.batchnorm_train(x, gamma, beta)
        (out * N.Tensor(proj)).sum().backward()
        assert rel_err(x.grad, num_x) <= 1e-5
        assert rel_err(gamma.grad, num_g) <= 1e-5
        assert rel_err(beta.grad, num_b) <= 1e-5

    def test_eval_mode_gradients_flow(self):
        rng = np.random.default_rng(4)
        bn = N.BatchNorm1d(2)
        bn.running_mean[:] = [0.5, -0.2]
        bn.running_var[:] = [2.0, 0.7]
        x = N.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        bn(x, train=False).sum().backward()
        expected = np.repeat((1 / np.sqrt(bn.running_var + bn.eps))[:, None], 4, axis=1)
        assert np.allclose(x.grad, expected, atol=1e-12)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = N.Tensor([1.0, 2.0])
        out = N.dropout(x, 0.0, train=True, rng=np.random.default_rng(0))
        assert np.array_equal(out.data, x.data)

    def test_eval_mode_is_identity(self):
        x = N.Tensor([1.0, 2.0])
        out = N.dropout(x, 0.9, train=False, rng=np.random.default_rng(0))
        assert np.array_equal(out.data, x.data)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            N.dropout(N.Tensor([1.0]), 1.0, train=True, rng=np.random.default_rng(0))

    def test_kept_fraction_and_mean(self):
        rng = np.random.default_rng(77)
        x = N.Tensor(np.ones(100_000))
        out = N.dropout(x, 0.2, train=True, rng=rng)
        kept = np.count_nonzero(out.data) / out.size
        assert abs(kept - 0.8) <= 0.01
        assert abs(out.data.mean() - 1.0) <= 0.02

    def test_mask_gradient(self):
        x = N.Tensor(np.ones(1000), requires_grad=True)
        out = N.dropout(x, 0.5, train=True, rng=np.random.default_rng(1))
        out.sum().backward()
        assert np.array_equal(x.grad, (out.data != 0) * 2.0)


    def test_boolean_mask_matches_float_mask_formula(self):
        # the former float-mask arithmetic, under the same single draw
        rate = 0.3
        x = N.Tensor(np.random.default_rng(2).normal(size=(4, 5, 6)), requires_grad=True)
        g = np.random.default_rng(3).normal(size=x.shape)
        out = N.dropout(x, rate, train=True, rng=np.random.default_rng(9))
        (grad,) = out._backward(g)
        mask = (np.random.default_rng(9).random(x.shape) >= rate) / (1.0 - rate)
        assert np.array_equal(out.data.view(np.int64), (x.data * mask).view(np.int64))
        assert np.array_equal(grad.view(np.int64), (g * mask).view(np.int64))


    def test_float32_stays_float32(self):
        x = N.Tensor(np.ones((3, 4), dtype=np.float32))
        out = N.dropout(x, 0.2, train=True, rng=np.random.default_rng(0))
        assert out.dtype == np.float32


class TestAddReluDropout:
    SHAPES = [((5, 1, 4), (3, 4)), ((6, 4), (4,))]  # a chunk's hidden array; the head

    def inputs(self, shapes, dtype, seed=0):
        rng = np.random.default_rng(seed)
        a, b = (N.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes)
        g = rng.normal(size=np.broadcast_shapes(*shapes)).astype(dtype)
        return a, b, g

    def run(self, op, shapes, dtype):
        """op's output and both input gradients under the weights g, as bytes."""
        a, b, g = self.inputs(shapes, dtype)
        out = op(a, b)
        (out * N.Tensor(g)).sum().backward()
        return out.data.tobytes(), a.grad.tobytes(), b.grad.tobytes()

    @pytest.mark.parametrize("shapes", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_bytes_equal_dropout_of_relu_of_sum(self, shapes, dtype, rate):
        keep = np.random.default_rng(5).random(np.broadcast_shapes(*shapes)) >= rate

        def reference(a, b):
            return N.dropout(N.relu(a + b), rate, True, np.random.default_rng(5))

        def fused(a, b):
            return N.add_relu_dropout(a, b, keep if rate else None, rate)

        assert self.run(fused, shapes, dtype) == self.run(reference, shapes, dtype)

    @pytest.mark.parametrize("shapes", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_no_grad_bytes_and_no_graph(self, shapes, dtype, rate):
        a, b, _ = self.inputs(shapes, dtype)
        keep = np.random.default_rng(5).random(np.broadcast_shapes(*shapes)) >= rate
        with N.no_grad():
            out = N.add_relu_dropout(a, b, keep if rate else None, rate)
            want = N.dropout(N.relu(a + b), rate, True, np.random.default_rng(5))
        assert out.dtype == dtype
        assert out.data.tobytes() == want.data.tobytes()
        assert not out.requires_grad and out._backward is None

    def test_graph_keeps_the_output_alone(self):
        # neither the pre-activation nor the mask outlives the forward
        a, b, _ = self.inputs(self.SHAPES[0], np.float64)
        keep = np.random.default_rng(5).random((5, 3, 4)) >= 0.3
        out = N.add_relu_dropout(a, b, keep, 0.3)
        held = [c.cell_contents for c in out._backward.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert len(held) == 1 and held[0] is out.data


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = N.Tensor([1.0, -2.0], requires_grad=True)
        opt = N.Adam([p], lr=0.1)
        p.grad[...] = 0.0
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_lr_schedule_exact(self):
        assert N.learning_rate(0) == 1e-4
        assert N.learning_rate(9) == 1e-4
        assert N.learning_rate(10) == 2e-5
        assert N.learning_rate(19) == 2e-5
        assert N.learning_rate(20) == 4e-6

    def test_single_step_matches_hand_formula(self):
        p = N.Tensor([0.0], requires_grad=True)
        opt = N.Adam([p], lr=1e-4)
        p.grad[...] = 1.0
        opt.step()
        m_hat = (0.1 * 1.0) / (1 - 0.9)
        v_hat = (0.001 * 1.0) / (1 - 0.999)
        expected = 0.0 - 1e-4 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert abs(p.data[0] - expected) <= 1e-12

    def test_step_rejects_wrongly_shaped_grad(self):
        from cqarank.errors import ShapeError

        p = N.Tensor([0.0, 1.0], requires_grad=True)
        opt = N.Adam([p], lr=1e-3)
        p.grad = np.zeros(3)
        with pytest.raises(ShapeError):
            opt.step()
        assert np.array_equal(p.data, [0.0, 1.0])

    def test_descends_a_quadratic(self):
        p = N.Tensor([5.0], requires_grad=True)
        opt = N.Adam([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 0.5


class TestGradcheckHarness:
    def test_quadratic_exact(self):
        x = N.Tensor([1.0, 2.0], requires_grad=True)
        err = N.gradcheck(lambda: (x * x).sum(), [x])
        x.zero_grad()
        (x * x).sum().backward()
        assert np.array_equal(x.grad, [2.0, 4.0])
        assert err <= 1e-8

    def test_relu_away_from_kink(self):
        x = N.Tensor([0.5, -0.7, 1.3], requires_grad=True)
        err = N.gradcheck(lambda: N.relu(x).sum(), [x])
        assert err <= 1e-7

    def test_rejects_non_scalar(self):
        from cqarank.errors import ContractError

        x = N.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            N.gradcheck(lambda: x * 2, [x])

    def test_detects_corrupted_backward(self):
        from cqarank.numerics.tensor import _make

        x = N.Tensor([1.0, 2.0], requires_grad=True)

        def bad_square(t):
            data = t.data ** 2

            def backward(g):
                return (g * 3.0 * t.data,)  # wrong factor on purpose

            return _make(data, (t,), backward)

        err = N.gradcheck(lambda: bad_square(x).sum(), [x])
        assert err > 1e-4


    def test_non_contiguous_tensor_is_perturbed_in_place(self):
        # a Fortran-order array: ravel() would perturb a copy and see no change
        x = N.Tensor(np.asfortranarray(np.arange(6.0).reshape(2, 3)), requires_grad=True)
        assert not x.data.flags.c_contiguous

        def zero_backward(t):
            return _make(t.data.sum(), (t,), lambda g: (np.zeros_like(t.data),))

        assert N.gradcheck(lambda: zero_backward(x), [x]) == pytest.approx(1.0)
        assert x.data.flags.f_contiguous
        assert np.array_equal(x.data, np.arange(6.0).reshape(2, 3))
