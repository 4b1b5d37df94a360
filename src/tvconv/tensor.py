"""Dense real-valued tensors and the TVTENSOR container format.

A Tensor is a thin wrapper over a C-contiguous numpy array of float32
(``real32``) or float64 (``real64``) values with at least one axis and no
zero-extent axes. Everything else in the package speaks numpy internally;
Tensor is the carrier at module boundaries and on disk.

TVTENSOR layout (all integers little-endian):

    bytes 0..7   magic b"TVTENSOR"
    byte  8      dtype code, u8: 0 = real32, 1 = real64
    byte  9      ndim, u8
    next 4*ndim  dims, u32 each
    rest         payload, little-endian scalars in row-major order
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAXDIMS = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32  # most axes of an array

REAL32 = np.dtype(np.float32)
REAL64 = np.dtype(np.float64)

MAGIC = b"TVTENSOR"
_CODE_TO_DTYPE = {0: REAL32, 1: REAL64}
_DTYPE_TO_CODE = {REAL32: 0, REAL64: 1}


class FormatError(ValueError):
    """Malformed TVTENSOR bytes."""


class Tensor:
    """Row-major dense tensor of real32 or real64 scalars."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (REAL32, REAL64):
            # Int/bool literals are promoted; anything else is a caller bug.
            if arr.dtype.kind not in "iub":
                raise TypeError(f"tensor dtype must be real32 or real64, got {arr.dtype}")
            arr = arr.astype(REAL64)
        if arr.ndim < 1:
            raise ValueError("tensor must have at least one axis")
        if any(d < 1 for d in arr.shape):
            raise ValueError(f"tensor axes must have positive extent, got {arr.shape}")
        self.data = np.ascontiguousarray(arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        name = "real32" if self.dtype == REAL32 else "real64"
        return f"Tensor(dims={self.dims}, dtype={name})"


def tensor_to_bytes(t: Tensor) -> bytes:
    code = _DTYPE_TO_CODE[t.dtype]
    head = MAGIC + struct.pack("<BB", code, t.data.ndim)
    head += struct.pack(f"<{t.data.ndim}I", *t.dims)
    payload = np.ascontiguousarray(t.data, dtype=t.dtype.newbyteorder("<")).tobytes()
    return head + payload


def tensor_from_bytes(raw: bytes) -> Tensor:
    if len(raw) < 10:
        raise FormatError(f"header truncated: {len(raw)} bytes")
    if raw[:8] != MAGIC:
        raise FormatError(f"bad magic {raw[:8]!r}")
    code, ndim = struct.unpack_from("<BB", raw, 8)
    if code not in _CODE_TO_DTYPE:
        raise FormatError(f"unknown dtype code {code}")
    if ndim < 1:
        raise FormatError("zero-rank tensor not allowed")
    if ndim > MAXDIMS:
        raise FormatError(f"ndim {ndim} exceeds the {MAXDIMS} axes numpy can hold")
    dtype = _CODE_TO_DTYPE[code]
    off = 10
    if len(raw) < off + 4 * ndim:
        raise FormatError("dims truncated")
    dims = struct.unpack_from(f"<{ndim}I", raw, off)
    off += 4 * ndim
    if any(d < 1 for d in dims):
        raise FormatError(f"zero-extent axis in dims {dims}")
    count = math.prod(dims)  # exact: a numpy product wraps in int64
    need = count * dtype.itemsize
    got = len(raw) - off
    if got < need:
        raise FormatError(f"payload truncated: dims {dims} need {need} bytes, got {got}")
    if got > need:
        raise FormatError(f"trailing bytes after payload: expected {need} bytes, got {got}")
    flat = np.frombuffer(raw, dtype=dtype.newbyteorder("<"), count=count, offset=off)
    return Tensor(flat.astype(dtype).reshape(dims))


def save_tensor(t: Tensor, path) -> None:
    Path(path).write_bytes(tensor_to_bytes(t))


def load_tensor(path) -> Tensor:
    return tensor_from_bytes(Path(path).read_bytes())
