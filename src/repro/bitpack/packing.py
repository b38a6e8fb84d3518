"""Vectorised pack/unpack of B-bit unsigned integers.

Values are stored LSB-first in a little-endian bit stream: value ``j``
occupies bits ``j*B .. j*B + B - 1``.  Eight B-bit values fill exactly B
bytes, so both directions work on groups of eight, without any Python
loop over elements:

* **pack** zero-pads the values to a multiple of 8 and views them as an
  ``(m, 8)`` uint64 array.  Lane ``i`` of each group starts at bit ``i*B``
  of its group, so it is shifted left by ``i*B mod 64`` and OR-ed into
  64-bit word ``i*B // 64`` of an ``(m, ceil(B/8))`` word array; the bits
  that cross a word boundary spill into the next word.  The words are
  viewed as little-endian bytes and the first B bytes of each row are
  kept.
* **unpack** copies the stream once into a buffer padded by 8 zero bytes.
  Lane ``i`` is then one strided, unaligned ``<u8`` view starting at byte
  ``i*B // 8`` with stride B: shifted right by ``i*B mod 8`` and masked,
  it yields value ``i`` of every group (``i*B mod 8 + B <= 39`` bits, so
  one 64-bit load always holds the whole value).

Each direction is 8 (pack: at most 16) vector operations over ``n/8``
elements, O(n) word operations in total, with O(n) transient memory: one
padded uint64 copy of the values when packing (8 bytes per value) and one
padded copy of the stream plus the uint32 result when unpacking.
Byte-aligned widths (8, 16, 32) are plain little-endian casts.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.tracer import get_telemetry

__all__ = ["pack_bits", "unpack_bits", "packed_nbytes"]

_MAX_WIDTH = 32
#: widths whose values are whole little-endian bytes: plain casts.
_BYTE_ALIGNED = {8: "<u1", 16: "<u2", 32: "<u4"}


def _check_width(width: int) -> None:
    if not isinstance(width, (int, np.integer)):
        raise TypeError(f"width must be an int, got {type(width).__name__}")
    if not 1 <= width <= _MAX_WIDTH:
        raise ValueError(f"width must be in [1, {_MAX_WIDTH}], got {width}")


def packed_nbytes(count: int, width: int) -> int:
    """Number of bytes needed to store ``count`` values of ``width`` bits."""
    _check_width(width)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return (count * width + 7) // 8


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative integers into a little-endian-bit byte stream.

    Parameters
    ----------
    values:
        1-D array of non-negative integers, each ``< 2**width``.
    width:
        Bit width ``B`` of each value, ``1 <= B <= 32``.

    Returns
    -------
    bytes
        ``packed_nbytes(len(values), width)`` bytes.
    """
    _check_width(width)
    vals = np.ascontiguousarray(values)
    if vals.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {vals.shape}")
    if vals.size == 0:
        return b""
    if not np.issubdtype(vals.dtype, np.integer):
        raise TypeError(f"values must be integers, got dtype {vals.dtype}")
    tel = get_telemetry()
    with tel.span("bitpack.pack", n_values=vals.size, width=width) as sp:
        n = vals.size
        byte_aligned = width in _BYTE_ALIGNED
        if byte_aligned:
            lanes = vals.astype(np.uint64, copy=False)
        else:
            # One uint64 copy, zero-padded to whole groups of 8 values.
            lanes = np.zeros(-(-n // 8) * 8, dtype=np.uint64)
            lanes[:n] = vals
        # Negative inputs wrap to huge values and fail the range check.
        limit = np.uint64(1) << np.uint64(width)
        if lanes.max() >= limit:
            raise ValueError(
                f"values exceed {width}-bit range (max={int(lanes.max())})")
        if byte_aligned:
            out = lanes.astype(_BYTE_ALIGNED[width]).tobytes()
        else:
            out = _pack_groups(lanes.reshape(-1, 8), width)[
                : packed_nbytes(n, width)]
        sp.set(bytes_in=n * 8, bytes_out=len(out))
    tel.metrics.counter("bitpack.bytes_packed").inc(len(out))
    return out


def _pack_groups(lanes: np.ndarray, width: int) -> bytes:
    """Shift-or an ``(m, 8)`` uint64 array into ``m * width`` bytes."""
    m = lanes.shape[0]
    words = np.zeros((m, -(-width // 8)), dtype="<u8")
    for i in range(8):
        w, shift = divmod(i * width, 64)
        words[:, w] |= lanes[:, i] << np.uint64(shift)
        if shift + width > 64:
            words[:, w + 1] |= lanes[:, i] >> np.uint64(64 - shift)
    return words.view(np.uint8)[:, :width].tobytes()


def unpack_bits(data: bytes | bytearray | np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`.

    Parameters
    ----------
    data:
        Byte stream produced by :func:`pack_bits`, or any buffer over it
        such as a ``memoryview`` slice (extra trailing bytes are ignored;
        too-short input raises ``ValueError``).  It is read in place; a
        non-byte-aligned width copies the packed bytes once.
    count:
        Number of values to recover.
    width:
        Bit width used when packing.

    Returns
    -------
    numpy.ndarray
        ``count`` values as ``uint32`` (``width <= 32``).
    """
    _check_width(width)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.uint32)
    with get_telemetry().span("bitpack.unpack", n_values=count,
                              width=width) as sp:
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data)
        raw = np.frombuffer(data, dtype=np.uint8)
        need = packed_nbytes(count, width)
        sp.set(bytes_in=need, bytes_out=count * 4)
        if raw.size < need:
            raise ValueError(
                f"need {need} bytes for {count} x {width}-bit values, got {raw.size}")
        if width in _BYTE_ALIGNED:
            return raw[:need].view(_BYTE_ALIGNED[width]).astype(np.uint32)
        m = -(-count // 8)
        # Whole groups plus 8 zero bytes, so every 8-byte load stays inside.
        buf = np.zeros(m * width + 8, dtype=np.uint8)
        buf[:need] = raw[:need]
        mask = np.uint64((1 << width) - 1)
        out = np.empty((m, 8), dtype=np.uint32)
        for i in range(8):
            offset, shift = divmod(i * width, 8)
            lane = np.ndarray((m,), dtype="<u8", buffer=buf, offset=offset,
                              strides=(width,))
            out[:, i] = (lane >> np.uint64(shift)) & mask
        return out.reshape(-1)[:count]
