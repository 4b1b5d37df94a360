"""Vectorized numpy kernels under the autograd ops and the operator module.

All spatial kernels work on batched [n, c, h, w] arrays with zero "same"
padding and odd square kernels. The per-position conv and its two gradients
read a column-shifted stack of an input (`_shifted_stack`; of g for the input
gradient): plane v is the padded input moved v columns, so tap (u, v) is rows
u..u+h-1 of plane v, one contiguous run of h*w values per (n, c) where a
padded copy gives h strided runs of w. `tvconv` adds one tap at a time in
row-major (u, v) order, starting from zeros: each tap is multiplied into one
product buffer, allocated once per call, and added from there. That order and
the zero start fix every output bit, signed zeros included. It walks channels
in blocks whose slice of the field fits one core's L2 (`L2_BYTES`). The field
is read once either way; what a block keeps in cache is its output, product
and stack slices, which each of the k*k taps reads again. At a 32x56x56 layer
those are 4.1 MB whole and 1.0 MB in each of the four blocks its 7.2 MB field
gives, and the conv runs about a fifth faster. Every desk field fits L2 and
stays one block: splitting the channels of a batched desk input made it slower
(1.30 -> 1.84 ms at 32x8x16x16 in two blocks). The dense conv and its two
gradients are one GEMM each over an im2col matrix, which at k = 1 is a reshape
of the input; `pad_same` copies the input into the interior of a zeroed buffer
for it.

The bit-exact contracts hold by sharing a path: `dwconv` is `tvconv` on a
field whose position axes have length 1, so a weight field that is constant
over positions gives the depthwise output by construction, and a
single-channel dense conv runs `dwconv`. The depthwise gradients keep their
own loops: a flipped-filter `dwconv` for the input and a reduction over
positions for the weight, both faster than the per-position gradients at one
filter. `tvconv_dx` runs `tvconv`'s tap loop (`_tap_sum`) on g's stack, in
the same channel blocks: tap (u, v) multiplies a copy of the field plane
moved by (r-u, r-v) into the window at (k-1-u, k-1-v) and is added in the
same row-major order as the scatter into a padded buffer it replaced, so its
bits are that scatter's. One loop keeps padded windows on purpose:
`dwconv_dw`'s `->c` einsum groups its sum by the length of its inner loop,
so on the stack it gives other bits at n = 1.

Layer norm returns only its per-sample moments next to its output, and the
tape saves those two [n,1,1,1] arrays, not the normalized activation; the
backward rule rebuilds x-hat from the input, which the tape already holds.
After the affine it runs an epilogue on the fresh output, in this order: add
a residual, clamp with `relu`, and keep every `stride`-th row and column. The
moments cover the whole input, the other passes only the kept positions, so
a norm, the skip add after it, the ReLU and the next block's entry stride
are one op with one output array of the size the next op reads. The
backward masks the incoming gradient by that output.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

L2_BYTES = 2 << 20  # one core's L2; a `tvconv` channel block's slice of the field fits it
LN_EPS = 1e-5       # added to every layer norm's variance


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
    """[n, ci, h, w] -> [n, ci*k*k, h*w]; row (c, u, v) holds tap (u, v) of channel c.
    At k = 1 that is a reshape: a view of contiguous input, one copy of a strided one."""
    n, ci, h, w = x.shape
    if k == 1:
        return x.reshape(n, ci, h * w)
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


def _shifted_stack(x: np.ndarray, k: int) -> np.ndarray:
    """[n,c,h,w] -> [k, n, c, h+2r, w], r = k // 2: plane v is the zero-padded
    input shifted v columns, so tap (u, v) of a same-padded window is rows
    u..u+h-1 of plane v, one contiguous run of h*w values per (n, c)."""
    n, c, h, w = x.shape
    r = k // 2
    xs = np.zeros((k, n, c, h + 2 * r, w), dtype=x.dtype)
    for v in range(k):
        s = v - r  # column j of plane v holds column j + s of x
        lo, hi = max(0, -s), min(w, w - s)
        if lo < hi:
            xs[v, :, :, r : r + h, lo:hi] = x[:, :, :, lo + s : hi + s]
    return xs


def _tap_sum(xs: np.ndarray, w5: np.ndarray, tap) -> np.ndarray:
    """From zeros, add one tap at a time in row-major (u, v) order: a field
    plane times a window of the shifted stack xs [k, n, c, h+2r, w].
    `tap(f, u, v)` gives, for tap (u, v) of a block's field slice f, the
    plane [cb, h, w] and the (row, plane) of the stack window it multiplies.
    Channels run in blocks whose slice of the field fits L2_BYTES."""
    k, n, c, hp, ww = xs.shape
    h = hp - 2 * (k // 2)
    blocks = -(-w5.nbytes // L2_BYTES)  # the fewest whose field slices fit L2
    step = -(-c // blocks)  # channels per block; the last block may be short
    out = np.zeros((n, c, h, ww), dtype=xs.dtype)
    prod = np.empty((n, step, h, ww), dtype=xs.dtype)
    for c0 in range(0, c, step):
        o, f = out[:, c0 : c0 + step], w5[c0 : c0 + step]
        p = prod[:, : o.shape[1]]
        for u in range(k):
            for v in range(k):
                plane, row, col = tap(f, u, v)
                np.multiply(plane[None], xs[col, :, c0 : c0 + step, row : row + h], out=p)
                o += p
    return out


def tvconv(x: np.ndarray, w5: np.ndarray) -> np.ndarray:
    """Per-position depthwise conv: x [n,c,h,w], w5 [c,k,k,h,w] -> [n,c,h,w];
    k is odd, and w5's two position axes may also be 1 (one filter for every
    position). Any other field shape raises ValueError. Channels run in blocks
    whose slice of the field fits L2_BYTES."""
    n, c, h, ww = x.shape
    if (w5.ndim != 5 or w5.shape[0] != c or w5.shape[1] != w5.shape[2]
            or w5.shape[1] % 2 == 0 or w5.shape[3:] not in ((h, ww), (1, 1))):
        raise ValueError(f"weight field of shape {w5.shape} does not fit input of shape "
                         f"{x.shape}: want [{c}, k, k, {h}, {ww}] or [{c}, k, k, 1, 1], "
                         "k odd")
    return _tap_sum(_shifted_stack(x, w5.shape[1]), w5, lambda f, u, v: (f[:, u, v], u, v))


def _moved(f: np.ndarray, du: int, dv: int) -> np.ndarray:
    """A copy of f [c, h, w] with out[:, i, j] = f[:, i+du, j+dv], zero where
    that falls outside f."""
    _, h, w = f.shape
    out = np.zeros_like(f)
    ilo, ihi, jlo, jhi = max(0, -du), min(h, h - du), max(0, -dv), min(w, w - dv)
    if ilo < ihi and jlo < jhi:
        out[:, ilo:ihi, jlo:jhi] = f[:, ilo + du : ihi + du, jlo + dv : jhi + dv]
    return out


def tvconv_dx(g: np.ndarray, w5: np.ndarray) -> np.ndarray:
    """Input gradient of `tvconv`: dx[i, j] sums, over taps (u, v), the field
    at (i+r-u, j+r-v) times g there. Tap (u, v) is the field plane moved by
    (r-u, r-v) times the window of g's shifted stack at (k-1-u, k-1-v); where
    the moved plane is zero the window is padding, so those products are +0.0
    and leave the sum as the scatter into a padded buffer left it."""
    k = w5.shape[1]
    r = k // 2
    return _tap_sum(_shifted_stack(g, k), w5, lambda f, u, v: (
        _moved(f[:, u, v], r - u, r - v), k - 1 - u, k - 1 - v))


def tvconv_dw(g: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    n, c, h, ww = x.shape
    xs = _shifted_stack(x, k)
    dw = np.zeros((c, k, k, h, ww), dtype=x.dtype)
    for u in range(k):
        for v in range(k):
            dw[:, u, v] = np.einsum("nchw,nchw->chw", g, xs[v, :, :, u : u + h])
    return dw


def layer_norm_fwd(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, relu: bool = False,
                   residual: np.ndarray | None = None, stride: int = 1):
    """Per-sample normalization over (c,h,w) and a per-channel affine, then
    the epilogue: add `residual` (x's shape), apply the ReLU with `relu`, and
    keep every `stride`-th row and column.

    Returns (y, mean, inv_std), the last two [n,1,1,1]; they, x and y are all
    the backward rule needs. The moments cover all of x. The mean is
    `np.add.reduce` over the [n, c*h*w] view (the same bits as
    `x.mean(axis=(1, 2, 3))`, without its wrapper), and the variance is taken
    about it, not as E[x^2] - E[x]^2, which cancels. The affine, the residual
    and the ReLU run on the kept positions only, so with a stride y is already
    the subsampled, contiguous array; each kept value goes through the same
    operations as unstrided, so it has the same bits.
    """
    if residual is not None and residual.shape != x.shape:
        raise ValueError(f"residual of shape {residual.shape} does not match "
                         f"input of shape {x.shape}")
    flat = x.reshape(len(x), -1)
    m = flat.shape[1]
    mean = (np.add.reduce(flat, axis=1) / m)[:, None, None, None]
    y = x - mean
    flat = y.reshape(len(x), -1)
    var = np.einsum("ij,ij->i", flat, flat)[:, None, None, None] / m
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    scale = inv_std * gamma[:, None, None]
    if stride > 1:
        y = np.multiply(y[:, :, ::stride, ::stride], scale)
    else:
        y *= scale
    y += beta[:, None, None]
    if residual is not None:
        y += residual[:, :, ::stride, ::stride]
    if relu:
        np.maximum(y, 0, out=y)
    return y, mean, inv_std


def layer_norm_bwd(g, x, mean, inv_std, gamma, y=None):
    """Gradients (dx, dgamma, dbeta); pass the fused forward's output as `y`
    to mask `g` by its ReLU first. `g` is never written.

    Everything reduces through the per-(sample, channel) sums S1 = sum g and
    S2 = sum g * x-hat, the latter one batched matmul against x - mean times
    inv_std: dbeta and dgamma sum them over the batch, and the per-sample
    correction is their product with gamma.
    """
    if y is not None:
        g = np.multiply(g, y > 0)  # y > 0 exactly where the norm's output was
    n, c = g.shape[:2]
    m = g[0].size
    xc = x - mean
    g3 = g.reshape(n, c, -1)
    s1 = np.add.reduce(g3, axis=2)
    s2 = np.matmul(g3[:, :, None, :], xc.reshape(n, c, -1, 1))[:, :, 0, 0] * inv_std[:, :, 0, 0]
    scale = inv_std * gamma[:, None, None]
    dx = np.multiply(g, scale, out=g) if y is not None else g * scale  # the mask is a copy
    xc *= inv_std * inv_std * (s2 @ gamma)[:, None, None, None] / m
    xc += inv_std * (s1 @ gamma)[:, None, None, None] / m
    dx -= xc
    return dx, s2.sum(axis=0), s1.sum(axis=0)


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
