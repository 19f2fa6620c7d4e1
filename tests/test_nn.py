"""Explicit-backprop MLP: gradients vs. central differences, determinism."""

import io
import math

import numpy as np
import numpy.testing as npt
import pytest

from wavopt.nn import (
    _ADAM_BLOCK,
    AdamState,
    LayerBuffers,
    MlpParams,
    TrainingError,
    backward_batch,
    forward_batch,
    forward_batch_cached,
    init_mlp,
    read_params,
    write_params,
)
from wavopt.verify import central_differences

EPS = 1e-5


def _min_preactivation_margin(params, x):
    _, (inputs, pre) = forward_batch_cached(params, np.atleast_2d(x))
    if not pre:
        return math.inf
    return min(float(np.min(np.abs(z))) for z in pre)


def _safe_instance(seed, sizes, batch=3):
    # resample until every hidden pre-activation is safely away from the
    # ReLU kink, so +-EPS probes never flip an activation pattern
    for s in range(seed, seed + 50):
        rng = np.random.default_rng(s)
        params = init_mlp(sizes, rng)
        x = rng.standard_normal((batch, sizes[0]))
        u = rng.standard_normal((batch, sizes[-1]))
        if _min_preactivation_margin(params, x) > 1e-3:
            return params, x, u
    raise AssertionError("could not find a kink-free instance")


def _relative_gap(a, b):
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def _summed_backward(params, x, u):
    """The summed parameter gradient, and the input gradient formed from
    the gradient the backward pass carried into the first hidden layer."""
    bufs = LayerBuffers(params, x.shape[0])
    grad = backward_batch(params, forward_batch_cached(params, x, bufs)[1], u, reduce="sum", buffers=bufs)
    first = bufs.delta[0] if bufs.delta else u
    return grad, first @ params.weights[0]


class TestGradients:
    def test_backward_matches_central_differences(self):
        worst = 0.0
        for seed in range(20):
            params, x, u = _safe_instance(100 + seed, [4, 8, 8, 3])
            grad, _ = _summed_backward(params, x, u)
            fd = central_differences(params, lambda: float((forward_batch(params, x) * u).sum()), EPS)
            worst = max(worst, _relative_gap(grad, fd))
        assert worst < 1e-5

    def test_input_gradient_matches_central_differences(self):
        params, x, u = _safe_instance(300, [5, 9, 2])
        _, d_in = _summed_backward(params, x, u)
        fd = np.empty_like(x)
        for idx in np.ndindex(*x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += EPS
            xm[idx] -= EPS
            fd[idx] = ((forward_batch(params, xp) - forward_batch(params, xm)) * u).sum() / (2 * EPS)
        assert _relative_gap(d_in, fd) < 1e-5

    def test_batch_mean_reduction_matches_sample_average(self):
        rng = np.random.default_rng(7)
        params = init_mlp([3, 6, 2], rng)
        xs = rng.standard_normal((4, 3))
        us = rng.standard_normal((4, 2))
        _, cache = forward_batch_cached(params, xs)
        batch_grad = backward_batch(params, cache, us, reduce="mean")
        avg = sum(_summed_backward(params, xs[i : i + 1], us[i : i + 1])[0] for i in range(4)) / 4.0
        npt.assert_allclose(batch_grad, avg, rtol=1e-12, atol=1e-14)

    def test_relu_subgradient_at_zero_is_zero(self):
        # a unit that is exactly at the kink contributes no gradient
        params = init_mlp([1, 1, 1], 0)
        params.weights[0][...] = 1.0
        params.biases[0][...] = 0.0
        params.weights[1][...] = 1.0
        params.biases[1][...] = 0.0
        grad, d_in = _summed_backward(params, np.array([[0.0]]), np.array([[1.0]]))
        assert d_in[0, 0] == 0.0
        assert grad[0] == 0.0


class TestDeterminismAndUpdates:
    def test_init_bitwise_deterministic(self):
        a = init_mlp([4, 7, 2], 42)
        b = init_mlp([4, 7, 2], 42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_init_bounds_scale_with_fan_in(self):
        params = init_mlp([16, 8, 4], 1)
        assert np.max(np.abs(params.weights[0])) <= 1.0 / 4.0
        assert np.max(np.abs(params.weights[1])) <= 1.0 / math.sqrt(8)

    def test_adam_step_descends(self):
        # first step: m = (1 - b1) g and v = (1 - b2) g^2 after bias
        # correction give a move of lr * g / (|g| + eps / sqrt(1 - b2))
        params = init_mlp([2, 3, 1], 3)
        grad, _ = _summed_backward(params, np.array([[0.3, -0.2]]), np.array([[1.0]]))
        before = params.flat.copy()
        opt = AdamState(params)
        opt.step(params, grad, 0.1)
        expected = 0.1 * grad / (np.abs(grad) + opt.eps / math.sqrt(1.0 - opt.beta2))
        npt.assert_allclose(before - params.flat, expected, rtol=1e-12, atol=1e-16)

    def test_forward_batch_matches_single(self):
        rng = np.random.default_rng(10)
        params = init_mlp([4, 5, 3], rng)
        xs = rng.standard_normal((6, 4))
        batch = forward_batch(params, xs)
        for i in range(6):
            npt.assert_allclose(batch[i], forward_batch(params, xs[i : i + 1])[0], atol=1e-15)

    @pytest.mark.parametrize("hidden", [0, 1, 2, 3])
    @pytest.mark.parametrize("width, n_out", [(16, 12), (128, 1)])
    def test_forward_batch_equals_cached_forward_bitwise(self, hidden, width, n_out):
        # (128, 1) is the actor's shape; its one-row batch is the acting step
        rng = np.random.default_rng(30 + hidden)
        params = init_mlp([5] + [width] * hidden + [n_out], rng)
        for batch in (1, 3, 128):
            xs = rng.standard_normal((batch, 5))
            out = forward_batch(params, xs)
            assert out.tobytes() == forward_batch_cached(params, xs)[0].tobytes()
            assert out.shape == (batch, n_out)

    def test_forward_batch_checks_its_input(self):
        params = init_mlp([4, 5, 3], 1)
        with pytest.raises(ValueError, match="expects a"):
            forward_batch(params, np.zeros(4))
        with pytest.raises(ValueError, match="input width 3"):
            forward_batch(params, np.zeros((2, 3)))

    def test_adam_matches_textbook_formula_bitwise(self):
        # m <- b1 m + (1-b1) g, v <- b2 v + ((1-b2) g) g and
        # theta <- theta - (corr m) / (sqrt(v) + eps), with the bias
        # corrections folded into corr = lr sqrt(1-b2^t) / (1-b1^t)
        rng = np.random.default_rng(50)
        # more than two blocks of the step's scratch, the last one partial
        params = init_mlp([40, 100, 170], rng)
        assert params.flat.size > 2 * _ADAM_BLOCK and params.flat.size % _ADAM_BLOCK
        opt = AdamState(params)
        theta = params.flat.copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        b1, b2, eps = opt.beta1, opt.beta2, opt.eps
        for t in range(1, 51):
            grad = rng.standard_normal(theta.size) * 10.0 ** rng.integers(-6, 3)
            lr = 1e-3 if t % 2 else 5e-4
            opt.step(params, grad, lr)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            corr = lr * math.sqrt(1.0 - b2**t) / (1.0 - b1**t)
            theta = theta - corr * m / (np.sqrt(v) + eps)
        assert params.flat.tobytes() == theta.tobytes()
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()


class TestFlatLayout:
    def test_flat_holds_layers_in_checkpoint_order(self):
        w0, b0 = np.arange(6.0).reshape(2, 3), np.array([6.0, 7.0])
        w1, b1 = np.array([[8.0, 9.0]]), np.array([10.0])
        params = MlpParams([w0, w1], [b0, b1])
        npt.assert_array_equal(params.flat, np.arange(11.0))
        assert not np.shares_memory(params.flat, w0)
        params.weights[1][0, 1] = -1.0
        assert params.flat[9] == -1.0

    def test_views_share_flat_and_copy_shares_none(self):
        params = init_mlp([3, 5, 2], 11)
        for view in params.weights + params.biases:
            assert np.shares_memory(view, params.flat)
        clone = params.copy()
        npt.assert_array_equal(clone.flat, params.flat)
        for arr in [clone.flat] + clone.weights + clone.biases:
            assert not np.shares_memory(arr, params.flat)

    def test_adam_holds_one_vector_per_moment(self):
        params = init_mlp([3, 5, 2], 12)
        opt = AdamState(params)
        assert opt.m.shape == opt.v.shape == params.flat.shape
        grad = np.zeros_like(params.flat)
        grad[-1] = np.inf
        before = params.flat.copy()
        with pytest.raises(TrainingError):
            opt.step(params, grad, 1e-3)
        # the check runs before anything moves
        assert opt.t == 0 and not opt.m.any() and not opt.v.any()
        npt.assert_array_equal(params.flat, before)


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        params = init_mlp([5, 13, 13, 4], 2024)
        buf = io.StringIO()
        write_params(buf, params)
        buf.seek(0)
        loaded = read_params(buf)
        assert loaded.layer_sizes == params.layer_sizes
        for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b)

    def test_text_matches_per_value_format(self):
        # more than two write blocks, so a partial last block is covered
        params = init_mlp([40, 100, 80], 7)
        special = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 0.1, 0.1 + 0.2, 1 / 3, -2 / 3]
        special += [math.pi, 1.0000000000000002, 123456789.12345679, 1e-300 * 1.2345678901234567]
        params.flat[: len(special)] = special
        params.flat[-len(special) :] = special
        buf = io.StringIO()
        write_params(buf, params)
        expected = "mlp-text 1\nlayers 2\nsizes 40 100 80\n"
        expected += "".join(f"{v:.17g}\n" for v in params.flat)
        assert params.flat.size > 2 * 4096
        assert buf.getvalue() == expected

    def test_bad_header_rejected(self):
        for text in ("something else\n", "mlp-text 1\nlayers 0\nsizes 4\n"):
            with pytest.raises(ValueError):
                read_params(io.StringIO(text))
