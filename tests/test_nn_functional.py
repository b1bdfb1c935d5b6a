"""Unit tests for conv/pool primitives (adjoint identities included)."""

import numpy as np
import pytest

from repro.nn.functional import (
    avgpool2d_backward,
    avgpool2d_forward,
    col2im,
    conv_output_shape,
    im2col,
    maxpool2d_backward,
    maxpool2d_forward,
    sigmoid,
    to_pair,
    upsample_nearest_backward,
    upsample_nearest_forward,
)


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_is_scipy_expit_bitwise(self, dtype):
        from scipy.special import expit

        x = (np.random.default_rng(0).standard_normal(10_000) * 8.0).astype(dtype)
        out = sigmoid(x)
        assert out.dtype == dtype
        assert out.tobytes() == expit(x).tobytes()

    def test_saturates_silently(self):
        with np.errstate(all="raise"):
            assert sigmoid(np.array([-1e4, 0.0, 1e4])).tolist() == [0.0, 0.5, 1.0]


class TestToPair:
    def test_int(self):
        assert to_pair(3) == (3, 3)

    def test_pair(self):
        assert to_pair((1, 7)) == (1, 7)

    def test_triple_rejected(self):
        with pytest.raises(ValueError):
            to_pair((1, 2, 3))


class TestConvOutputShape:
    def test_same_padding(self):
        assert conv_output_shape((8, 8), (3, 3), (1, 1), (1, 1)) == (8, 8)

    def test_stride(self):
        assert conv_output_shape((8, 8), (2, 2), (2, 2), (0, 0)) == (4, 4)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            conv_output_shape((2, 2), (5, 5), (1, 1), (0, 0))


class TestIm2Col:
    def test_shape(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        cols = im2col(x, (3, 3), (1, 1), (1, 1))
        assert cols.shape == (2, 27, 64)

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        cols = im2col(x, (1, 1), (1, 1), (0, 0))
        assert np.allclose(cols.reshape(1, 2, 4, 4), x)

    def test_adjoint_identity(self, rng):
        """<im2col(x), c> == <x, col2im(c)> — col2im is the exact adjoint."""
        x = rng.standard_normal((2, 3, 6, 6))
        kernel, stride, padding = (3, 3), (2, 2), (1, 1)
        cols = im2col(x, kernel, stride, padding)
        c = rng.standard_normal(cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * col2im(c, x.shape, kernel, stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_col2im_shape_validation(self, rng):
        with pytest.raises(ValueError):
            col2im(
                rng.standard_normal((1, 9, 9)),
                (1, 1, 4, 4),
                (3, 3),
                (1, 1),
                (1, 1),
            )


class TestMaxPool:
    def test_forward_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out, _ = maxpool2d_forward(x, (2, 2))
        assert np.array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_backward_routes_to_argmax(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out, arg = maxpool2d_forward(x, (2, 2))
        grad = maxpool2d_backward(np.ones_like(out), arg, x.shape, (2, 2))
        assert grad.sum() == 4.0
        assert grad[0, 0, 1, 1] == 1.0
        assert grad[0, 0, 0, 0] == 0.0

    def test_indivisible_rejected(self, rng):
        with pytest.raises(ValueError):
            maxpool2d_forward(rng.standard_normal((1, 1, 5, 4)), (2, 2))


class TestAvgPool:
    def test_uniform_input(self):
        x = np.full((1, 1, 4, 4), 3.0)
        out = avgpool2d_forward(x, (2, 2))
        assert np.allclose(out, 3.0)

    def test_adjoint_identity(self, rng):
        x = rng.standard_normal((2, 2, 6, 6))
        out = avgpool2d_forward(x, (3, 3), (1, 1), (1, 1))
        g = rng.standard_normal(out.shape)
        lhs = float((out * g).sum())
        # forward is linear, so <Ax, g> == <x, A^T g>
        rhs = float(
            (x * avgpool2d_backward(g, x.shape, (3, 3), (1, 1), (1, 1))).sum()
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestUpsample:
    def test_forward_repeats(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = upsample_nearest_forward(x, 2)
        assert out.shape == (1, 1, 4, 4)
        assert np.array_equal(out[0, 0, :2, :2], np.full((2, 2), 1.0))

    def test_adjoint_identity(self, rng):
        x = rng.standard_normal((1, 3, 4, 4))
        out = upsample_nearest_forward(x, 2)
        g = rng.standard_normal(out.shape)
        lhs = float((out * g).sum())
        rhs = float((x * upsample_nearest_backward(g, 2)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_backward_shape_validation(self, rng):
        with pytest.raises(ValueError):
            upsample_nearest_backward(rng.standard_normal((1, 1, 5, 4)), 2)
