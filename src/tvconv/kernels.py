"""Vectorized numpy kernels under the autograd ops and the operator module.

All spatial kernels work on batched [n, c, h, w] arrays with zero "same"
padding and odd square kernels. Convolutions accumulate one kernel tap at a
time in row-major (u, v) order; every variant therefore reduces in the same
order, which keeps the depthwise / dense / per-position paths bit-compatible
where they coincide (single channel, constant weight field).
"""

from __future__ import annotations

import numpy as np


def pad_same(x: np.ndarray, k: int) -> np.ndarray:
    r = k // 2
    if r == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)))


def dwconv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Depthwise conv: x [n,c,h,w], w [c,k,k] -> [n,c,h,w]."""
    n, c, h, ww = x.shape
    k = w.shape[-1]
    xp = pad_same(x, k)
    out = np.zeros_like(x)
    for u in range(k):
        for v in range(k):
            out += w[:, u, v][:, None, None] * xp[:, :, u : u + h, v : v + ww]
    return out


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


def conv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense conv: x [n,ci,h,w], w [co,ci,k,k] -> [n,co,h,w]."""
    n, ci, h, ww = x.shape
    co, _, k, _ = w.shape
    xp = pad_same(x, k)
    out = np.zeros((n, co, h, ww), dtype=x.dtype)
    for u in range(k):
        for v in range(k):
            out += np.einsum(
                "oi,nihw->nohw", w[:, :, u, v], xp[:, :, u : u + h, v : v + ww], optimize=True
            )
    return out


def conv_dx(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Transpose the channel axes and flip spatially.
    return conv(g, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


def conv_dw(g: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    n, ci, h, ww = x.shape
    co = g.shape[1]
    xp = pad_same(x, k)
    dw = np.zeros((co, ci, k, k), dtype=x.dtype)
    for u in range(k):
        for v in range(k):
            dw[:, :, u, v] = np.einsum(
                "nohw,nihw->oi", g, xp[:, :, u : u + h, v : v + ww], optimize=True
            )
    return dw


def tvconv(x: np.ndarray, w5: np.ndarray) -> np.ndarray:
    """Per-position depthwise conv: x [n,c,h,w], w5 [c,k,k,h,w] -> [n,c,h,w]."""
    n, c, h, ww = x.shape
    k = w5.shape[1]
    xp = pad_same(x, k)
    out = np.zeros_like(x)
    for u in range(k):
        for v in range(k):
            out += w5[:, u, v][None] * xp[:, :, u : u + h, v : v + ww]
    return out


def tvconv_dx(g: np.ndarray, w5: np.ndarray) -> np.ndarray:
    n, c, h, ww = g.shape
    k = w5.shape[1]
    r = k // 2
    dxp = np.zeros((n, c, h + 2 * r, ww + 2 * r), dtype=g.dtype)
    for u in range(k):
        for v in range(k):
            dxp[:, :, u : u + h, v : v + ww] += w5[:, u, v][None] * g
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

    Returns (y, xhat, inv_std); the extras feed the backward rule.
    """
    mu = x.mean(axis=(1, 2, 3), keepdims=True)
    var = x.var(axis=(1, 2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    y = gamma[:, None, None] * xhat + beta[:, None, None]
    return y, xhat, inv_std


def layer_norm_bwd(g, xhat, inv_std, gamma):
    dgamma = np.einsum("nchw,nchw->c", g, xhat)
    dbeta = g.sum(axis=(0, 2, 3))
    dxhat = g * gamma[:, None, None]
    m1 = dxhat.mean(axis=(1, 2, 3), keepdims=True)
    m2 = (dxhat * xhat).mean(axis=(1, 2, 3), keepdims=True)
    dx = inv_std * (dxhat - m1 - xhat * m2)
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
