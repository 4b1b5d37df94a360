"""Tensor container invariants and the TVTENSOR binary format.

The byte-level oracle below builds expected files by hand with struct, so the
reader/writer are checked against the documented layout rather than against
each other.
"""

import struct

import numpy as np
import pytest

from tvconv.tensor import (
    MAXDIMS,
    REAL32,
    REAL64,
    FormatError,
    Tensor,
    load_tensor,
    save_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
)


class TestTensorInvariants:
    def test_dims_match_data(self):
        t = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert t.dims == (2, 3)
        assert t.dtype == REAL64

    def test_row_major_contiguous(self):
        # Wrapping a transposed (non-contiguous) view must yield a contiguous copy.
        a = np.arange(6, dtype=np.float64).reshape(2, 3).T
        t = Tensor(a)
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.dims == (3, 2)
        np.testing.assert_array_equal(t.data, a)

    def test_scalar_rank_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.float64(3.0))

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 0, 3)))

    def test_integer_input_promotes_to_real64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.dtype == REAL64

    def test_non_real_dtype_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.zeros((2, 2), dtype=np.complex128))

    def test_real32_preserved(self):
        t = Tensor(np.ones((4,), dtype=np.float32))
        assert t.dtype == REAL32


class TestTvtensorFormat:
    def test_frozen_byte_layout(self):
        # Hand-assembled expectation: magic, dtype code 1 (real64), ndim 2,
        # dims 1 and 2 as little-endian u32, then the payload doubles.
        t = Tensor(np.array([[1.0, 2.0]], dtype=np.float64))
        expect = (
            b"TVTENSOR"
            + struct.pack("<BB", 1, 2)
            + struct.pack("<II", 1, 2)
            + struct.pack("<2d", 1.0, 2.0)
        )
        assert tensor_to_bytes(t) == expect

    def test_frozen_byte_layout_real32(self):
        t = Tensor(np.array([7.0, -1.5, 0.25], dtype=np.float32))
        expect = (
            b"TVTENSOR"
            + struct.pack("<BB", 0, 1)
            + struct.pack("<I", 3)
            + struct.pack("<3f", 7.0, -1.5, 0.25)
        )
        assert tensor_to_bytes(t) == expect

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for dtype in (np.float64, np.float32):
            for _ in range(20):
                ndim = int(rng.integers(1, 5))
                dims = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
                a = rng.standard_normal(dims).astype(dtype)
                back = tensor_from_bytes(tensor_to_bytes(Tensor(a)))
                assert back.dims == dims
                assert back.dtype == np.dtype(dtype)
                np.testing.assert_array_equal(back.data, a)

    def test_file_round_trip(self, tmp_path):
        a = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        p = tmp_path / "t.tvt"
        save_tensor(Tensor(a), p)
        back = load_tensor(p)
        np.testing.assert_array_equal(back.data, a)

    def test_bad_magic_rejected(self):
        good = tensor_to_bytes(Tensor([1.0, 2.0]))
        bad = b"NOTMAGIC" + good[8:]
        with pytest.raises(FormatError, match="magic"):
            tensor_from_bytes(bad)

    def test_truncated_payload_rejected(self):
        good = tensor_to_bytes(Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(FormatError, match="truncat"):
            tensor_from_bytes(good[:-4])

    def test_trailing_garbage_rejected(self):
        good = tensor_to_bytes(Tensor([1.0]))
        with pytest.raises(FormatError):
            tensor_from_bytes(good + b"x")

    def test_unknown_dtype_code_rejected(self):
        good = bytearray(tensor_to_bytes(Tensor([1.0])))
        good[8] = 9
        with pytest.raises(FormatError, match="dtype"):
            tensor_from_bytes(bytes(good))

    def test_truncated_header_and_dims_rejected(self):
        good = tensor_to_bytes(Tensor(np.zeros((2, 3))))
        with pytest.raises(FormatError, match="header truncated: 9 bytes"):
            tensor_from_bytes(good[:9])
        with pytest.raises(FormatError, match="dims truncated"):
            tensor_from_bytes(good[:15])

    def test_zero_rank_rejected(self):
        raw = b"TVTENSOR" + struct.pack("<BB", 1, 0)
        with pytest.raises(FormatError):
            tensor_from_bytes(raw)

    def test_zero_extent_dim_rejected(self):
        raw = b"TVTENSOR" + struct.pack("<BB", 1, 1) + struct.pack("<I", 0)
        with pytest.raises(FormatError):
            tensor_from_bytes(raw)

    def test_dims_whose_size_wraps_rejected(self):
        # 2**31 * 2**31 * 4 values wrap to 0 in int64, which the empty payload matched.
        raw = b"TVTENSOR" + struct.pack("<BB", 1, 3) + struct.pack("<3I", 2**31, 2**31, 4)
        assert len(raw) == 22
        with pytest.raises(FormatError, match=r"dims \(2147483648, 2147483648, 4\) need "
                                              r"147573952589676412928 bytes, got 0"):
            tensor_from_bytes(raw)

    def test_rank_numpy_cannot_hold_rejected(self):
        raw = b"TVTENSOR" + struct.pack("<BB", 1, 65) + struct.pack("<65I", *[1] * 65)
        with pytest.raises(FormatError, match="ndim 65 exceeds"):
            tensor_from_bytes(raw + bytes(8))
        # the largest rank numpy holds still reads back
        a = np.full((1,) * MAXDIMS, 2.5)
        np.testing.assert_array_equal(tensor_from_bytes(tensor_to_bytes(Tensor(a))).data, a)
