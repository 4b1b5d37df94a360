"""Core op correctness against hand-frozen values and loop-nest oracles.

The kernels under test run on single-sample [1, c, h, w] batches. The oracles
here are written as plain Python loops over the definition of each op,
independent of the vectorized kernels.
"""

import numpy as np
import pytest

from tvconv import kernels


def depthwise_conv2d(x, w):
    return kernels.dwconv(x[None], w)[0]


def conv2d(x, w):
    return kernels.conv(x[None], w)[0]


def layer_norm(x, gamma, beta):
    return kernels.layer_norm_fwd(x[None], gamma, beta)[0][0]


def downsample_mean(x, oh, ow):
    return kernels.downsample_mean(x[None], oh, ow)[0]


def dw_oracle(x, w):
    """Zero-same-padded per-channel cross-correlation, straight from the sum."""
    c, h, ww = x.shape
    k = w.shape[-1]
    r = k // 2
    out = np.zeros_like(x)
    for ch in range(c):
        for i in range(h):
            for j in range(ww):
                acc = 0.0
                for u in range(k):
                    for v in range(k):
                        a, b = i + u - r, j + v - r
                        if 0 <= a < h and 0 <= b < ww:
                            acc += w[ch, u, v] * x[ch, a, b]
                out[ch, i, j] = acc
    return out


def conv_oracle(x, w):
    """Dense zero-same cross-correlation, six explicit loops."""
    ci, h, ww = x.shape
    co, _, k, _ = w.shape
    r = k // 2
    out = np.zeros((co, h, ww), dtype=x.dtype)
    for o in range(co):
        for i in range(h):
            for j in range(ww):
                acc = 0.0
                for c in range(ci):
                    for u in range(k):
                        for v in range(k):
                            a, b = i + u - r, j + v - r
                            if 0 <= a < h and 0 <= b < ww:
                                acc += w[o, c, u, v] * x[c, a, b]
                out[o, i, j] = acc
    return out


def ln_oracle(x, gamma, beta, eps):
    mu = x.mean()
    var = ((x - mu) ** 2).mean()
    xhat = (x - mu) / np.sqrt(var + eps)
    return gamma[:, None, None] * xhat + beta[:, None, None]


class TestDepthwise:
    def test_ones_kernel_frozen(self):
        x = np.arange(1.0, 10.0).reshape(1, 3, 3)
        out = depthwise_conv2d(x, np.ones((1, 3, 3)))
        # Corner sees the 2x2 in-bounds patch 1+2+4+5, center sees everything.
        assert out[0, 0, 0] == 12.0
        assert out[0, 1, 1] == 45.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            c = int(rng.integers(1, 4))
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 7))
            k = int(rng.choice([1, 3, 5]))
            x = rng.standard_normal((c, h, w))
            wt = rng.standard_normal((c, k, k))
            got = depthwise_conv2d(x, wt)
            np.testing.assert_allclose(got, dw_oracle(x, wt), rtol=0, atol=1e-12)

    def test_linear_in_input_and_weight(self):
        rng = np.random.default_rng(12)
        x1 = rng.standard_normal((2, 5, 5))
        x2 = rng.standard_normal((2, 5, 5))
        wt = rng.standard_normal((2, 3, 3))
        a, b = 0.7, -1.3
        lhs = depthwise_conv2d(a * x1 + b * x2, wt)
        rhs = a * depthwise_conv2d(x1, wt) + b * depthwise_conv2d(x2, wt)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        lhs = depthwise_conv2d(x1, a * wt)
        np.testing.assert_allclose(lhs, a * depthwise_conv2d(x1, wt), atol=1e-12)

    def test_dtype_preserved(self):
        x = np.ones((1, 3, 3), dtype=np.float32)
        w = np.ones((1, 3, 3), dtype=np.float32)
        assert depthwise_conv2d(x, w).dtype == np.float32


class TestConv2d:
    def test_ones_kernel_frozen(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = conv2d(x, np.ones((1, 1, 3, 3)))
        # Every 3x3 patch of a 2x2 image covers all four pixels.
        np.testing.assert_array_equal(out, np.full((1, 2, 2), 10.0))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            ci = int(rng.integers(1, 4))
            co = int(rng.integers(1, 4))
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 6))
            k = int(rng.choice([1, 3]))
            x = rng.standard_normal((ci, h, w))
            wt = rng.standard_normal((co, ci, k, k))
            got = conv2d(x, wt)
            np.testing.assert_allclose(got, conv_oracle(x, wt), rtol=0, atol=1e-12)


class TestLayerNorm:
    def test_frozen_small_case(self):
        # Whole-sample stats over [1,2,3,4]: mean 2.5, pop var 1.25.
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2)
        out = layer_norm(x, np.ones(1), np.zeros(1))
        expect = np.array([-1.3416, -0.4472, 0.4472, 1.3416]).reshape(1, 2, 2)
        np.testing.assert_allclose(out, expect, atol=1e-3)

    def test_matches_definition(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            c = int(rng.integers(1, 5))
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 6))
            x = rng.standard_normal((c, h, w)) * 3 + 1
            gamma = rng.standard_normal(c)
            beta = rng.standard_normal(c)
            got = layer_norm(x, gamma, beta)
            np.testing.assert_allclose(got, ln_oracle(x, gamma, beta, 1e-5), atol=1e-12)

    def test_normalizes_over_whole_sample(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((4, 6, 6)) * 5 - 2
        out = layer_norm(x, np.ones(4), np.zeros(4))
        assert abs(out.mean()) < 1e-10
        assert abs(out.var() - 1.0) < 1e-4

    def test_constant_input_maps_to_beta(self):
        beta = np.array([0.5, -0.25])
        out = layer_norm(np.full((2, 3, 3), 7.0), np.ones(2), beta)
        np.testing.assert_allclose(out[0], 0.5, atol=1e-12)
        np.testing.assert_allclose(out[1], -0.25, atol=1e-12)


class TestDownsampleMean:
    def test_frozen_partition_case(self):
        rows = np.array([[1.0, 1.0], [3.0, 3.0], [5.0, 5.0], [7.0, 7.0]])
        out = downsample_mean(rows[None], 2, 1)
        np.testing.assert_array_equal(out, [[[2.0], [6.0]]])

    def test_identity_when_same_size(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((2, 5, 4))
        np.testing.assert_array_equal(downsample_mean(x, 5, 4), x)

    def test_matches_partition_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            oh = int(rng.integers(1, h + 1))
            ow = int(rng.integers(1, w + 1))
            x = rng.standard_normal((2, h, w))
            got = downsample_mean(x, oh, ow)
            # Partition i covers [floor(i*h/oh), floor((i+1)*h/oh)); disjoint
            # and exactly tiling by construction.
            expect = np.zeros((2, oh, ow))
            for i in range(oh):
                r0, r1 = i * h // oh, (i + 1) * h // oh
                for j in range(ow):
                    c0, c1 = j * w // ow, (j + 1) * w // ow
                    expect[:, i, j] = x[:, r0:r1, c0:c1].mean(axis=(1, 2))
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_upsample_rejected(self):
        with pytest.raises(ValueError, match="larger"):
            downsample_mean(np.ones((1, 2, 2)), 3, 1)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            downsample_mean(np.ones((1, 2, 2)), 0, 1)
