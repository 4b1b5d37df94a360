"""Vectorized numpy kernels under the autograd ops and the operator module.

All spatial kernels work on batched [n, c, h, w] arrays with zero "same"
padding and odd square kernels; `pad_same` copies the input into the
interior of a zeroed buffer. The per-position conv adds one kernel tap at
a time in row-major (u, v) order: each tap is multiplied into one product
buffer, allocated once per call, and added from there. The dense conv and
its two gradients are one GEMM each over an im2col matrix. The bit-exact
contracts hold by sharing a path: `dwconv` is `tvconv` on a field whose
position axes have length 1, so a weight field that is constant over
positions gives the depthwise output by construction, and a single-channel
dense conv runs `dwconv`. The depthwise gradients keep their own loops: a
flipped-filter `dwconv` for the input and a reduction over positions for
the weight, both faster than the per-position gradients at one filter.

Layer norm returns only its per-sample moments next to its output, and the
tape saves those two [n,1,1,1] arrays, not the normalized activation; the
backward rule rebuilds x-hat from the input, which the tape already holds.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def pad_same(x: np.ndarray, k: int) -> np.ndarray:
    r = k // 2
    if r == 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * r, w + 2 * r), dtype=x.dtype)
    xp[:, :, r : r + h, r : r + w] = x
    return xp


def dwconv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Depthwise conv: x [n,c,h,w], w [c,k,k] -> [n,c,h,w]; `tvconv` with a
    field that is constant over positions."""
    return tvconv(x, w[..., None, None])


def dwconv_dx(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Gradient wrt input is correlation with the spatially flipped kernel.
    return dwconv(g, w[:, ::-1, ::-1])


def dwconv_dw(g: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    n, c, h, ww = x.shape
    xp = pad_same(x, k)
    dw = np.zeros((c, k, k), dtype=x.dtype)
    for u in range(k):
        for v in range(k):
            dw[:, u, v] = np.einsum("nchw,nchw->c", g, xp[:, :, u : u + h, v : v + ww])
    return dw


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """[n, ci, h, w] -> [n, ci*k*k, h*w]; row (c, u, v) holds tap (u, v) of channel c."""
    n, ci, h, w = x.shape
    taps = sliding_window_view(pad_same(x, k), (k, k), axis=(2, 3))  # [n, ci, h, w, k, k]
    return taps.transpose(0, 1, 4, 5, 2, 3).reshape(n, ci * k * k, h * w)


def conv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense conv: x [n,ci,h,w], w [co,ci,k,k] -> [n,co,h,w], as one GEMM."""
    n, ci, h, ww = x.shape
    co, _, k, _ = w.shape
    if ci == co == 1:
        return dwconv(x, w[0])
    return np.matmul(w.reshape(co, -1), _im2col(x, k)).reshape(n, co, h, ww)


def conv_dx(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Transpose the channel axes and flip spatially.
    return conv(g, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


def conv_dw(g: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    # Per-sample GEMMs summed over n; a tensordot over (n, h*w) copies both operands.
    n, co = g.shape[:2]
    dw = np.matmul(g.reshape(n, co, -1), _im2col(x, k).transpose(0, 2, 1)).sum(axis=0)
    return dw.reshape(co, x.shape[1], k, k)


def tvconv(x: np.ndarray, w5: np.ndarray) -> np.ndarray:
    """Per-position depthwise conv: x [n,c,h,w], w5 [c,k,k,h,w] -> [n,c,h,w];
    w5's two position axes may also be 1 (one filter for every position)."""
    n, c, h, ww = x.shape
    k = w5.shape[1]
    xp = pad_same(x, k)
    out, prod = np.zeros_like(x), np.empty_like(x)
    for u in range(k):
        for v in range(k):
            np.multiply(w5[:, u, v][None], xp[:, :, u : u + h, v : v + ww], out=prod)
            out += prod
    return out


def tvconv_dx(g: np.ndarray, w5: np.ndarray) -> np.ndarray:
    n, c, h, ww = g.shape
    k = w5.shape[1]
    r = k // 2
    dxp = np.zeros((n, c, h + 2 * r, ww + 2 * r), dtype=g.dtype)
    prod = np.empty_like(g)
    for u in range(k):
        for v in range(k):
            np.multiply(w5[:, u, v][None], g, out=prod)
            dxp[:, :, u : u + h, v : v + ww] += prod
    return dxp[:, :, r : r + h, r : r + ww] if r else dxp


def tvconv_dw(g: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    n, c, h, ww = x.shape
    xp = pad_same(x, k)
    dw = np.zeros((c, k, k, h, ww), dtype=x.dtype)
    for u in range(k):
        for v in range(k):
            dw[:, u, v] = np.einsum("nchw,nchw->chw", g, xp[:, :, u : u + h, v : v + ww])
    return dw


def layer_norm_fwd(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """Per-sample normalization over (c,h,w), per-channel affine.

    Returns (y, mean, inv_std), the last two [n,1,1,1]; they and x are all
    the backward rule needs. The variance is taken about the mean, not as
    E[x^2] - E[x]^2, which cancels.
    """
    mean = x.mean(axis=(1, 2, 3), keepdims=True)
    y = x - mean
    flat = y.reshape(len(x), -1)
    var = np.einsum("ij,ij->i", flat, flat)[:, None, None, None] / flat.shape[1]
    inv_std = 1.0 / np.sqrt(var + eps)
    y *= inv_std * gamma[:, None, None]
    y += beta[:, None, None]
    return y, mean, inv_std


def layer_norm_bwd(g, x, mean, inv_std, gamma):
    xhat = x - mean
    xhat *= inv_std
    dgamma = np.einsum("nchw,nchw->c", g, xhat)
    dbeta = g.sum(axis=(0, 2, 3))
    dx = g * gamma[:, None, None]
    flat, xflat = dx.reshape(len(g), -1), xhat.reshape(len(g), -1)
    xhat *= np.einsum("ij,ij->i", flat, xflat)[:, None, None, None] / flat.shape[1]
    xhat += flat.mean(axis=1)[:, None, None, None]
    dx -= xhat
    dx *= inv_std
    return dx, dgamma, dbeta


def downsample_mean(x: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Partition-mean pooling; partition i spans [i*h//oh, (i+1)*h//oh)."""
    n, c, h, w = x.shape
    if oh < 1 or ow < 1:
        raise ValueError(f"target size must be positive, got {oh}x{ow}")
    if oh > h or ow > w:
        raise ValueError(f"cannot downsample {h}x{w} to larger {oh}x{ow}")
    ri = np.array([i * h // oh for i in range(oh)])
    ci = np.array([j * w // ow for j in range(ow)])
    sums = np.add.reduceat(np.add.reduceat(x, ri, axis=2), ci, axis=3)
    rc = np.diff(np.append(ri, h))
    cc = np.diff(np.append(ci, w))
    return sums / np.multiply.outer(rc, cc)
