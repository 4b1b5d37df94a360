"""Property tests of the conv, depthwise, per-position and layer norm kernels.

`conv`, `conv_dx` and `conv_dw` run as one GEMM each, the depthwise and
per-position kernels add one tap at a time into a reused product buffer, and
layer norm keeps only its moments. `tvconv` (and `dwconv` and `dwconv_dx`
through it), `tvconv_dx`, `tvconv_dw` and `dwconv_dw` read their taps from a
column-shifted stack (`tvconv` and `tvconv_dx` in channel blocks); the
row-window and scatter loops they replaced are kept here as references, and
the kernels must match them bit for bit, signed zeros included. `dwconv_dw`
is held to that where the program trains, at n, c and w of two or more:
when one of them is 1 (or h*w exceeds numpy's 8192-element buffer), numpy's
einsum groups its `->c` sum over the stack's contiguous rows differently
from the padded rows, so at k >= 3 its last bits differ. The references here
compute every output position as an explicit window sum (or scatter, for the
input gradient) and the moments in two passes per sample. The ReLU that a
layer norm can fuse must give the unfused output clamped, bit for bit. The
backward, given the forward's epilogue, masks the gradient where that output
is positive, puts a stride's kept positions back into zeros, hands that
gradient to the residual bit for bit, and never writes the gradient it is
given. Shapes, kernel sizes and dtypes are drawn; the cases a shifted-window
layout is most likely to get wrong (1×N and N×1 maps, k = 5 wider than the
map, ci ≠ co, batch > 1, float32) are pinned as explicit examples.
"""

import functools

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tvconv import kernels  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
DIMS = dict(n=st.integers(1, 3), ci=st.integers(1, 4), co=st.integers(1, 4),
            h=st.integers(1, 6), w=st.integers(1, 6), k=st.sampled_from([1, 3, 5]),
            dtype=st.sampled_from([np.float64, np.float32]),
            seed=st.integers(0, 2**32 - 1))
EXAMPLES = [
    dict(n=2, ci=2, co=3, h=1, w=6, k=5, dtype=np.float64, seed=1),
    dict(n=3, ci=3, co=1, h=6, w=1, k=3, dtype=np.float64, seed=2),
    dict(n=2, ci=1, co=4, h=5, w=4, k=1, dtype=np.float32, seed=3),
    dict(n=1, ci=1, co=1, h=1, w=1, k=5, dtype=np.float32, seed=4),
]


def tol(dtype):
    return 1e-12 if dtype == np.float64 else 1e-4


def prop(test, dims=DIMS, examples=EXAMPLES):
    """Run `test` on drawn shapes plus every pinned example."""
    for ex in examples:
        test = example(**ex)(test)
    return SETTINGS(given(**dims)(test))


def arrays(n, ci, co, h, w, k, dtype, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, ci, h, w)).astype(dtype)
    wt = rng.standard_normal((co, ci, k, k)).astype(dtype)
    g = rng.standard_normal((n, co, h, w)).astype(dtype)
    return x, wt, g


def padded(x, k):
    r = k // 2
    return np.pad(x.astype(np.float64), ((0, 0), (0, 0), (r, r), (r, r)))


def conv_ref(x, w):
    n, _, h, ww = x.shape
    k = w.shape[-1]
    xp = padded(x, k)
    out = np.zeros((n, w.shape[0], h, ww))
    for i in range(h):
        for j in range(ww):
            out[:, :, i, j] = np.einsum("nikl,oikl->no", xp[:, :, i:i + k, j:j + k], w)
    return out


def conv_dx_ref(g, w):
    """Scatter each output position's gradient back onto its window."""
    n, _, h, ww = g.shape
    k = w.shape[-1]
    r = k // 2
    dxp = np.zeros((n, w.shape[1], h + 2 * r, ww + 2 * r))
    for i in range(h):
        for j in range(ww):
            dxp[:, :, i:i + k, j:j + k] += np.einsum("no,oikl->nikl", g[:, :, i, j], w)
    return dxp[:, :, r:r + h, r:r + ww]


def conv_dw_ref(g, x, k):
    _, _, h, ww = x.shape
    xp = padded(x, k)
    dw = np.zeros((g.shape[1], x.shape[1], k, k))
    for i in range(h):
        for j in range(ww):
            dw += np.einsum("no,nikl->oikl", g[:, :, i, j], xp[:, :, i:i + k, j:j + k])
    return dw


@prop
def test_conv_matches_window_sums(n, ci, co, h, w, k, dtype, seed):
    x, wt, _ = arrays(n, ci, co, h, w, k, dtype, seed)
    got = kernels.conv(x, wt)
    assert got.dtype == dtype and got.shape == (n, co, h, w)
    np.testing.assert_allclose(got, conv_ref(x, wt), rtol=0, atol=tol(dtype))


@prop
def test_conv_dx_matches_scatter(n, ci, co, h, w, k, dtype, seed):
    _, wt, g = arrays(n, ci, co, h, w, k, dtype, seed)
    got = kernels.conv_dx(g, wt)
    assert got.dtype == dtype and got.shape == (n, ci, h, w)
    np.testing.assert_allclose(got, conv_dx_ref(g, wt), rtol=0, atol=tol(dtype))


@prop
def test_conv_dw_matches_window_sums(n, ci, co, h, w, k, dtype, seed):
    x, _, g = arrays(n, ci, co, h, w, k, dtype, seed)
    got = kernels.conv_dw(g, x, k)
    assert got.dtype == dtype and got.shape == (co, ci, k, k)
    np.testing.assert_allclose(got, conv_dw_ref(g, x, k), rtol=0, atol=tol(dtype))


def window_im2col(x, k):
    """The general im2col: a window view of the padded input, transposed."""
    n, ci, h, w = x.shape
    r = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)))
    taps = sliding_window_view(xp, (k, k), axis=(2, 3))
    return taps.transpose(0, 1, 4, 5, 2, 3).reshape(n, ci * k * k, h * w)


@SETTINGS
@given(n=DIMS["n"], ci=DIMS["ci"], h=DIMS["h"], w=DIMS["w"], dtype=DIMS["dtype"],
       seed=DIMS["seed"], strided=st.booleans())
@example(n=2, ci=3, h=5, w=4, dtype=np.float64, seed=21, strided=True)
@example(n=1, ci=1, h=1, w=6, dtype=np.float32, seed=22, strided=False)
def test_pointwise_im2col_is_the_window_form(n, ci, h, w, dtype, seed, strided):
    # At k = 1 im2col is a reshape; a subsampled view is copied, not misread.
    x = np.random.default_rng(seed).standard_normal((n, ci, 2 * h, 2 * w)).astype(dtype)
    x = x[:, :, ::2, ::2] if strided else np.ascontiguousarray(x[:, :, :h, :w])
    got = kernels._im2col(x, 1)
    assert np.array_equal(got, window_im2col(x, 1)) and got.dtype == dtype
    assert strided or np.shares_memory(got, x)
    wt = np.random.default_rng(seed + 1).standard_normal((2, ci, 1, 1)).astype(dtype)
    np.testing.assert_allclose(kernels.conv(x, wt), conv_ref(x, wt), rtol=0, atol=tol(dtype))


def ln_arrays(n, c, h, w, dtype, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((n, c, h, w)) * 3 + 1).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
    beta = rng.standard_normal(c).astype(dtype)
    g = rng.standard_normal((n, c, h, w)).astype(dtype)
    return x, gamma, beta, g


def ln_ref(x, gamma, beta, eps):
    """Mean, then the mean squared deviation from it, one sample at a time."""
    x = x.astype(np.float64)
    y = np.empty_like(x)
    mean = np.empty((x.shape[0], 1, 1, 1))
    inv_std = np.empty((x.shape[0], 1, 1, 1))
    for s in range(x.shape[0]):
        mean[s] = x[s].sum() / x[s].size
        var = ((x[s] - mean[s]) ** 2).sum() / x[s].size
        inv_std[s] = 1.0 / np.sqrt(var + eps)
        y[s] = gamma[:, None, None] * (x[s] - mean[s]) * inv_std[s] + beta[:, None, None]
    return y, mean, inv_std


def ln_bwd_ref(g, x, gamma, eps):
    xhat = np.empty_like(x)
    dx = np.empty_like(x)
    for s in range(g.shape[0]):
        mu = x[s].mean()
        inv_std = 1.0 / np.sqrt(((x[s] - mu) ** 2).mean() + eps)
        xhat[s] = (x[s] - mu) * inv_std
        dxhat = g[s] * gamma[:, None, None]
        dx[s] = inv_std * (dxhat - dxhat.mean() - xhat[s] * (dxhat * xhat[s]).mean())
    return dx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


LN_DIMS = dict(n=DIMS["n"], c=DIMS["ci"], h=DIMS["h"], w=DIMS["w"],
               dtype=DIMS["dtype"], seed=DIMS["seed"])


@SETTINGS
@given(**LN_DIMS, relu=st.booleans())
@example(n=2, c=3, h=1, w=6, dtype=np.float64, seed=5, relu=False)
@example(n=3, c=2, h=6, w=1, dtype=np.float32, seed=6, relu=False)
@example(n=2, c=4, h=3, w=3, dtype=np.float32, seed=9, relu=True)
def test_layer_norm_fwd_matches_two_pass(n, c, h, w, dtype, seed, relu):
    x, gamma, beta, _ = ln_arrays(n, c, h, w, dtype, seed)
    got = kernels.layer_norm_fwd(x, gamma, beta, relu=relu)
    want = ln_ref(x, gamma, beta, 1e-5)
    if relu:
        want = (np.maximum(want[0], 0),) + want[1:]
        # The fused ReLU clamps the unfused output in place: the same bits.
        unfused = kernels.layer_norm_fwd(x, gamma, beta)
        assert np.array_equal(got[0], np.maximum(unfused[0], 0))
        for a, b in zip(got[1:], unfused[1:]):
            assert np.array_equal(a, b)
    for a, b in zip(got, want):
        assert a.dtype == dtype
        np.testing.assert_allclose(a, b, rtol=0, atol=tol(dtype))


@SETTINGS
@given(**LN_DIMS, relu=st.booleans(), residual=st.booleans(), stride=st.sampled_from([1, 2]))
@example(n=2, c=3, h=1, w=6, dtype=np.float64, seed=7, relu=False, residual=False, stride=1)
@example(n=3, c=2, h=6, w=1, dtype=np.float32, seed=8, relu=False, residual=False, stride=1)
@example(n=2, c=4, h=3, w=3, dtype=np.float64, seed=10, relu=True, residual=False, stride=1)
@example(n=3, c=3, h=2, w=5, dtype=np.float32, seed=11, relu=True, residual=False, stride=1)
@example(n=2, c=3, h=5, w=4, dtype=np.float64, seed=12, relu=True, residual=True, stride=2)
@example(n=1, c=2, h=1, w=5, dtype=np.float32, seed=13, relu=False, residual=True, stride=1)
@example(n=2, c=2, h=3, w=6, dtype=np.float64, seed=14, relu=False, residual=False, stride=2)
def test_layer_norm_bwd_matches_two_pass(n, c, h, w, dtype, seed, relu, residual, stride):
    x, gamma, beta, g = ln_arrays(n, c, h, w, dtype, seed)
    res = (np.random.default_rng(seed + 1).standard_normal(x.shape).astype(dtype)
           if residual else None)
    y, mean, inv_std = kernels.layer_norm_fwd(x, gamma, beta, relu=relu, residual=res,
                                              stride=stride)
    g = np.ascontiguousarray(g[:, :, ::stride, ::stride])  # the shape of y
    g_before = g.copy()
    dx, dgamma, dbeta, dres = kernels.layer_norm_bwd(g, x, y, mean, inv_std, gamma, relu=relu,
                                                     residual=residual, stride=stride)
    assert np.array_equal(g, g_before)
    # The ReLU passes the gradient where its output is positive; the kept
    # positions go back to their places in zeros of x's shape.
    g_in = np.zeros_like(x)
    g_in[:, :, ::stride, ::stride] = g * (y > 0) if relu else g
    if residual:
        assert dres.dtype == dtype and dres.shape == x.shape
        assert dres.tobytes() == g_in.tobytes() and not np.shares_memory(dx, dres)
    else:
        assert dres is None
    want = ln_bwd_ref(g_in.astype(np.float64), x.astype(np.float64),
                      gamma.astype(np.float64), 1e-5)
    for a, b in zip((dx, dgamma, dbeta), want):
        assert a.dtype == dtype
        np.testing.assert_allclose(a, b, rtol=0, atol=tol(dtype))


# --- depthwise and per-position kernels ----------------------------------------

DW_DIMS = dict(LN_DIMS, k=DIMS["k"], relu=st.booleans())
DW_EXAMPLES = [
    dict(n=2, c=3, h=1, w=6, k=5, dtype=np.float64, seed=11, relu=False),
    dict(n=3, c=2, h=6, w=1, k=3, dtype=np.float32, seed=12, relu=False),
    dict(n=1, c=4, h=2, w=3, k=5, dtype=np.float32, seed=13, relu=False),
    dict(n=2, c=1, h=4, w=5, k=1, dtype=np.float64, seed=14, relu=False),
    dict(n=2, c=4, h=4, w=5, k=3, dtype=np.float64, seed=16, relu=True),
    dict(n=1, c=2, h=6, w=3, k=5, dtype=np.float32, seed=17, relu=True),
]


def dw_prop(test):
    return prop(test, DW_DIMS, DW_EXAMPLES)


def dw_arrays(n, c, h, w, k, dtype, seed, relu=False):
    """Input, depthwise kernel [c,k,k], weight field [c,k,k,h,w], output grad.

    With `relu` the input and the gradient look like ReLU outputs and masked
    gradients: zero wherever the input is not positive, and in the top half
    of the map. Even channels' filters are then negative, so where a window
    holds only zeros and padding every product is -0.0 and the sum's sign
    bit shows how it was started."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    wt = rng.standard_normal((c, k, k)).astype(dtype)
    w5 = rng.standard_normal((c, k, k, h, w)).astype(dtype)
    g = rng.standard_normal((n, c, h, w)).astype(dtype)
    if relu:
        x = np.maximum(x, 0)
        x[:, :, : h // 2] = 0
        g = g * (x > 0)
        wt[::2], w5[::2] = -abs(wt[::2]), -abs(w5[::2])
    return x, wt, w5, g


def row_window_tvconv(x, w5):
    """The per-position loop the shifted stack replaced: from zeros, add tap
    (u, v) in row-major order, read as h strided rows of a padded copy."""
    n, c, h, ww = x.shape
    k = w5.shape[1]
    r = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)))
    out, prod = np.zeros_like(x), np.empty_like(x)
    for u in range(k):
        for v in range(k):
            np.multiply(w5[:, u, v][None], xp[:, :, u:u + h, v:v + ww], out=prod)
            out += prod
    return out


def row_window_tvconv_dw(g, x, k):
    n, c, h, ww = x.shape
    r = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)))
    dw = np.zeros((c, k, k, h, ww), dtype=x.dtype)
    for u in range(k):
        for v in range(k):
            dw[:, u, v] = np.einsum("nchw,nchw->chw", g, xp[:, :, u:u + h, v:v + ww])
    return dw


def row_window_dwconv_dw(g, x, k):
    n, c, h, ww = x.shape
    r = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)))
    dw = np.zeros((c, k, k), dtype=x.dtype)
    for u in range(k):
        for v in range(k):
            dw[:, u, v] = np.einsum("nchw,nchw->c", g, xp[:, :, u:u + h, v:v + ww])
    return dw


def scatter_tvconv_dx(g, w5):
    """The input-gradient loop the shifted stack replaced: from zeros, add
    each tap's product in row-major order into a window of a padded buffer."""
    n, c, h, ww = g.shape
    k = w5.shape[1]
    r = k // 2
    dxp = np.zeros((n, c, h + 2 * r, ww + 2 * r), dtype=g.dtype)
    prod = np.empty_like(g)
    for u in range(k):
        for v in range(k):
            np.multiply(w5[:, u, v][None], g, out=prod)
            dxp[:, :, u:u + h, v:v + ww] += prod
    return dxp[:, :, r:r + h, r:r + ww]


def flat(w):
    """A depthwise kernel as a field with length-1 position axes."""
    return w[..., None, None]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def at(w, i, j):
    """The [c,k,k] filter at position (i, j): a weight field's, or a fixed one."""
    return w[..., i, j] if w.ndim == 5 else w


def per_tap_ref(x, w):
    n, c, h, ww = x.shape
    k = w.shape[1]
    xp = padded(x, k)
    out = np.zeros((n, c, h, ww))
    for i in range(h):
        for j in range(ww):
            out[:, :, i, j] = np.einsum("nckl,ckl->nc", xp[:, :, i:i + k, j:j + k], at(w, i, j))
    return out


def per_tap_dx_ref(g, w):
    """Scatter each output position's gradient back onto its window."""
    n, c, h, ww = g.shape
    k = w.shape[1]
    r = k // 2
    dxp = np.zeros((n, c, h + 2 * r, ww + 2 * r))
    for i in range(h):
        for j in range(ww):
            dxp[:, :, i:i + k, j:j + k] += g[:, :, i, j, None, None] * at(w, i, j)
    return dxp[:, :, r:r + h, r:r + ww]


def per_tap_dw_ref(g, x, k, per_position):
    _, c, h, ww = x.shape
    xp = padded(x, k)
    dw = np.zeros((c, k, k, h, ww))
    for i in range(h):
        for j in range(ww):
            dw[..., i, j] = np.einsum("nc,nckl->ckl", g[:, :, i, j], xp[:, :, i:i + k, j:j + k])
    return dw if per_position else dw.sum(axis=(3, 4))


def check(got, want, dtype):
    assert got.dtype == dtype and got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=tol(dtype))


@dw_prop
def test_dwconv_matches_window_sums(n, c, h, w, k, dtype, seed, relu):
    x, wt, _, _ = dw_arrays(n, c, h, w, k, dtype, seed, relu)
    got = kernels.dwconv(x, wt)
    check(got, per_tap_ref(x, wt), dtype)
    assert_same_bits(got, row_window_tvconv(x, flat(wt)))


@dw_prop
def test_dwconv_dx_matches_scatter(n, c, h, w, k, dtype, seed, relu):
    _, wt, _, g = dw_arrays(n, c, h, w, k, dtype, seed, relu)
    got = kernels.dwconv_dx(g, wt)
    check(got, per_tap_dx_ref(g, wt), dtype)
    assert_same_bits(got, row_window_tvconv(g, flat(wt[:, ::-1, ::-1])))


@dw_prop
def test_dwconv_dw_matches_window_sums(n, c, h, w, k, dtype, seed, relu):
    x, _, _, g = dw_arrays(n, c, h, w, k, dtype, seed, relu)
    check(kernels.dwconv_dw(g, x, k), per_tap_dw_ref(g, x, k, False), dtype)


@functools.partial(prop, dims=dict(DW_DIMS, n=st.integers(2, 8), c=st.integers(2, 4),
                                   w=st.integers(2, 6)), examples=[
    dict(n=2, c=3, h=1, w=6, k=5, dtype=np.float64, seed=11, relu=False),
    dict(n=2, c=4, h=4, w=5, k=3, dtype=np.float64, seed=16, relu=True),
    dict(n=3, c=2, h=5, w=3, k=3, dtype=np.float32, seed=18, relu=True),
])
def test_dwconv_dw_matches_row_windows_bitwise(n, c, h, w, k, dtype, seed, relu):
    x, _, _, g = dw_arrays(n, c, h, w, k, dtype, seed, relu)
    assert_same_bits(kernels.dwconv_dw(g, x, k), row_window_dwconv_dw(g, x, k))


@dw_prop
def test_tvconv_matches_window_sums(n, c, h, w, k, dtype, seed, relu):
    x, _, w5, _ = dw_arrays(n, c, h, w, k, dtype, seed, relu)
    got = kernels.tvconv(x, w5)
    check(got, per_tap_ref(x, w5), dtype)
    assert_same_bits(got, row_window_tvconv(x, w5))


@dw_prop
def test_tvconv_dx_matches_scatter(n, c, h, w, k, dtype, seed, relu):
    _, _, w5, g = dw_arrays(n, c, h, w, k, dtype, seed, relu)
    got = kernels.tvconv_dx(g, w5)
    check(got, per_tap_dx_ref(g, w5), dtype)
    assert_same_bits(got, scatter_tvconv_dx(g, w5))


@dw_prop
def test_tvconv_dw_matches_window_sums(n, c, h, w, k, dtype, seed, relu):
    x, _, _, g = dw_arrays(n, c, h, w, k, dtype, seed, relu)
    got = kernels.tvconv_dw(g, x, k)
    check(got, per_tap_dw_ref(g, x, k, True), dtype)
    assert_same_bits(got, row_window_tvconv_dw(g, x, k))


@pytest.mark.parametrize("n, c, h, w", [
    (32, 8, 16, 16), (32, 16, 8, 8),  # desk training and b128 blocks
    (1, 32, 56, 56),                  # the paper-scale layer: four channel blocks
    (1, 33, 56, 56),                  # the last of four blocks is short
])
@pytest.mark.parametrize("relu", [False, True])
def test_benchmark_shapes_match_row_windows_bitwise(n, c, h, w, relu):
    x, wt, w5, g = dw_arrays(n, c, h, w, 3, np.float64, seed=c * h, relu=relu)
    assert (w5.nbytes > kernels.L2_BYTES) == (h == 56)
    assert_same_bits(kernels.tvconv(x, w5), row_window_tvconv(x, w5))
    assert_same_bits(kernels.dwconv(x, wt), row_window_tvconv(x, flat(wt)))
    assert_same_bits(kernels.dwconv_dx(g, wt), row_window_tvconv(g, flat(wt[:, ::-1, ::-1])))
    assert_same_bits(kernels.tvconv_dw(g, x, 3), row_window_tvconv_dw(g, x, 3))
    assert_same_bits(kernels.tvconv_dx(g, w5), scatter_tvconv_dx(g, w5))
    if n > 1:  # the depthwise weight gradient's bits differ at n = 1 (module docstring)
        assert_same_bits(kernels.dwconv_dw(g, x, 3), row_window_dwconv_dw(g, x, 3))
    if relu:
        # Some windows hold only zeros and padding; in the even (negative)
        # channels every product there is -0.0, and only the zero start gives +0.0.
        empty = row_window_tvconv((x != 0).astype(x.dtype), np.ones_like(w5)) == 0
        assert empty[:, ::2].any()


@pytest.mark.parametrize("field, x_shape", [
    ((1, 3, 3, 1, 1), (2, 3, 4, 5)),  # one channel's filter for three channels
    ((3, 3, 3, 4, 1), (2, 3, 4, 5)),  # a column of filters for a 4x5 map
    ((3, 3, 3, 5, 4), (2, 3, 4, 5)),  # the map's axes swapped
    ((3, 3, 3), (2, 3, 4, 5)),        # a depthwise kernel passed as a field
    ((3, 2, 2, 4, 5), (2, 3, 4, 5)),  # even taps have no centre
    ((3, 3, 1, 4, 5), (2, 3, 4, 5)),  # the two tap axes differ
])
def test_tvconv_refuses_a_field_that_does_not_fit(field, x_shape):
    x, w5 = np.ones(x_shape), np.ones(field)
    with pytest.raises(ValueError) as err:
        kernels.tvconv(x, w5)
    assert str(field) in str(err.value) and str(x_shape) in str(err.value)


def test_dwconv_refuses_one_filter_for_many_channels():
    x, wt, _, _ = dw_arrays(2, 3, 4, 5, 3, np.float64, seed=15)
    with pytest.raises(ValueError, match=r"\(1, 3, 3, 1, 1\).*\(2, 3, 4, 5\)"):
        kernels.dwconv(x, wt[:1])


@dw_prop
def test_constant_field_is_dwconv_bitwise(n, c, h, w, k, dtype, seed, relu):
    # Gate criterion 1 checks this at n = 1; the batch must not change it.
    x, wt, _, _ = dw_arrays(3, c, h, w, k, dtype, seed, relu)
    field = np.broadcast_to(wt[..., None, None], (c, k, k, h, w)).copy()
    assert np.array_equal(kernels.tvconv(x, field), kernels.dwconv(x, wt))
