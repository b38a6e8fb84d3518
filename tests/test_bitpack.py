"""Unit and property tests for repro.bitpack."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack import pack_bits, packed_nbytes, unpack_bits


def _ref_pack(values, width):
    """Reference packer: the (n, B) bit matrix folded by ``np.packbits``."""
    vals = np.asarray(values).astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((vals[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def _ref_unpack(data, count, width):
    """Reference unpacker: ``np.unpackbits`` into an (n, B) bit matrix."""
    raw = np.frombuffer(bytes(data), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[: count * width]
    bits = bits.reshape(count, width).astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)


class TestPackedNbytes:
    def test_exact_multiples(self):
        assert packed_nbytes(8, 8) == 8
        assert packed_nbytes(8, 1) == 1
        assert packed_nbytes(16, 4) == 8

    def test_rounding_up(self):
        assert packed_nbytes(3, 3) == 2  # 9 bits -> 2 bytes
        assert packed_nbytes(1, 1) == 1
        assert packed_nbytes(5, 7) == 5  # 35 bits -> 5 bytes

    def test_zero_count(self):
        assert packed_nbytes(0, 8) == 0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            packed_nbytes(10, 0)
        with pytest.raises(ValueError):
            packed_nbytes(10, 33)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            packed_nbytes(-1, 8)


class TestPackBits:
    def test_known_layout_width8(self):
        # width 8 is plain bytes.
        vals = np.array([0, 1, 255, 128], dtype=np.uint32)
        assert pack_bits(vals, 8) == bytes([0, 1, 255, 128])

    def test_known_layout_width1(self):
        # LSB-first within each byte.
        vals = np.array([1, 0, 1, 1, 0, 0, 0, 1], dtype=np.uint8)
        assert pack_bits(vals, 1) == bytes([0b10001101])

    def test_known_layout_width4(self):
        vals = np.array([0xA, 0xB], dtype=np.uint32)
        # 0xA in low nibble, 0xB in high nibble.
        assert pack_bits(vals, 4) == bytes([0xBA])

    def test_empty(self):
        assert pack_bits(np.array([], dtype=np.uint32), 8) == b""

    def test_value_out_of_range(self):
        with pytest.raises(ValueError, match="exceed"):
            pack_bits(np.array([256], dtype=np.uint32), 8)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            pack_bits(np.array([1.0]), 8)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros((2, 2), dtype=np.uint32), 8)

    def test_length(self):
        vals = np.arange(100, dtype=np.uint32) % 8
        assert len(pack_bits(vals, 3)) == packed_nbytes(100, 3)


class TestUnpackBits:
    def test_roundtrip_simple(self):
        vals = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.uint32)
        packed = pack_bits(vals, 4)
        out = unpack_bits(packed, len(vals), 4)
        np.testing.assert_array_equal(out, vals)

    def test_short_buffer_raises(self):
        with pytest.raises(ValueError, match="need"):
            unpack_bits(b"\x00", 10, 8)

    def test_extra_bytes_ignored(self):
        vals = np.array([7, 7], dtype=np.uint32)
        packed = pack_bits(vals, 3) + b"\xff\xff"
        np.testing.assert_array_equal(unpack_bits(packed, 2, 3), vals)

    def test_zero_count(self):
        assert unpack_bits(b"", 0, 5).size == 0

    def test_negative_count(self):
        with pytest.raises(ValueError):
            unpack_bits(b"\x00", -1, 8)

    def test_wide_values(self):
        vals = np.array([2**31 - 1, 0, 12345678], dtype=np.uint64)
        packed = pack_bits(vals, 32)
        np.testing.assert_array_equal(unpack_bits(packed, 3, 32), vals)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=16),
    data=st.data(),
)
def test_property_roundtrip(width, data):
    """pack -> unpack is the identity for any width and values in range."""
    n = data.draw(st.integers(min_value=0, max_value=200))
    vals = data.draw(
        st.lists(st.integers(min_value=0, max_value=2**width - 1),
                 min_size=n, max_size=n)
    )
    arr = np.array(vals, dtype=np.uint32)
    out = unpack_bits(pack_bits(arr, width), n, width)
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=30, deadline=None)
@given(width=st.integers(min_value=1, max_value=16),
       n=st.integers(min_value=1, max_value=500))
def test_property_size_is_minimal(width, n):
    """The packed stream never exceeds ceil(n*width/8) bytes."""
    arr = np.full(n, (1 << width) - 1, dtype=np.uint32)
    assert len(pack_bits(arr, width)) == (n * width + 7) // 8


#: integer dtypes the encoder, the baselines and callers hand to pack_bits.
_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64, np.int64]
_CONTAINERS = [bytes, bytearray, memoryview,
               lambda b: np.frombuffer(b, dtype=np.uint8)]


@settings(max_examples=300, deadline=None)
@given(width=st.integers(min_value=1, max_value=32),
       n=st.one_of(st.integers(min_value=0, max_value=17),
                   st.integers(min_value=18, max_value=300)),
       fill=st.sampled_from(["random", "zeros", "max"]),
       dtype=st.sampled_from(_DTYPES),
       container=st.sampled_from(_CONTAINERS),
       trailing=st.binary(max_size=9),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_matches_bit_matrix_oracle(width, n, fill, dtype, container,
                                            trailing, seed):
    """pack_bits is byte-identical to the bit-matrix packer for every
    width, count, fill and input dtype, and unpack_bits inverts it from
    any buffer type with trailing bytes."""
    top = min(width, np.iinfo(dtype).bits)  # widest value the dtype holds
    if fill == "zeros":
        vals = np.zeros(n, dtype=dtype)
    elif fill == "max":
        vals = np.full(n, (1 << top) - 1, dtype=dtype)
    else:
        vals = np.random.default_rng(seed).integers(
            0, 1 << top, n, dtype=np.uint64).astype(dtype)
    packed = pack_bits(vals, width)
    assert packed == _ref_pack(vals, width)
    out = unpack_bits(container(packed + trailing), n, width)
    assert out.dtype == np.uint32
    np.testing.assert_array_equal(out, vals.astype(np.uint64))
    np.testing.assert_array_equal(_ref_unpack(packed, n, width), out)


def test_golden_bytes_width10():
    """The B=10 layout of .nmk files already on disk keeps decoding."""
    vals = np.array([0, 1, 1023, 512, 341, 682, 5, 1000, 7], dtype=np.uint32)
    golden = bytes.fromhex("0004f03f8055a95a00fa0700")
    assert pack_bits(vals, 10) == golden
    np.testing.assert_array_equal(unpack_bits(golden, vals.size, 10), vals)


class TestPeakMemory:
    """Transient memory stays O(n): at most 16 bytes per value (a bit
    matrix would take ~90 for packing and ~150 for unpacking at B=9)."""

    N = 1_000_000
    WIDTH = 9

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pack_and_unpack_peak(self):
        vals = np.random.default_rng(3).integers(
            0, 1 << self.WIDTH, self.N).astype(np.uint32)
        packed = pack_bits(vals, self.WIDTH)
        pack_peak = self._peak(pack_bits, vals, self.WIDTH)
        unpack_peak = self._peak(unpack_bits, packed, self.N, self.WIDTH)
        assert pack_peak <= 16 * self.N, pack_peak / self.N
        assert unpack_peak <= 16 * self.N, unpack_peak / self.N
