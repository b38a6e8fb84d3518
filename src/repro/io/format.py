"""Record payload encoding.

All integers are little-endian.  A *full* payload is::

    ndim:u8  dims:u64[ndim]  data:f64[prod(dims)]

A *delta* payload is::

    nbits:u8  flags:u8  strategy_len:u8  strategy:bytes
    error_bound:f64
    ndim:u8  dims:u64[ndim]
    n_reps:u32          reps:f64[n_reps]
    n_exact:u64         exact:f64[n_exact]
    bitmap:u8[ceil(n/8)]            (incompressibility mask, little bit order)
    packed_indices:u8[ceil(n*nbits/8)]

``flags`` bit 0 = zero index reserved; bit 1 = exact values stored as
float32; bit 2 = the iteration reused the previous iteration's bin model
(adaptive reuse hit); bit 3 = *table reference*: ``n_reps`` is written as
0 and the reader must substitute the representative table of the nearest
preceding delta of the same chain -- repeated tables are thereby stored
once per run of reuse hits.  Exact values appear in flat index order,
i.e. the j-th set bit of the bitmap corresponds to ``exact[j]``.

The delta's fields are written and parsed by shared helpers that the
stream records of :mod:`repro.io.streamed` reuse: the *head*
(``nbits flags strategy_len strategy error_bound``, with one ``flags``
builder) and the *table* (``n_reps reps``) also make up a stream's
``SHDR`` record, and the last four fields, the *point tail*, make up each
``CHNK`` record.  The point-tail parser also checks the bitmap population
and the index range.

Format version 2 introduced bits 2/3; version-1 files (which can never
carry them) read back unchanged.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Sequence

import numpy as np

from repro.bitpack import pack_bits, packed_nbytes, unpack_bits
from repro.core.encoder import EncodedIteration
from repro.errors import FormatError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "encode_full_bytes",
    "decode_full_bytes",
    "encode_delta_bytes",
    "decode_delta_bytes",
    "DeltaHead",
    "last_delta_head",
]

MAGIC = b"NMRK"
FORMAT_VERSION = 2
#: versions this reader accepts (v1 lacks the reuse/table-ref flag bits).
SUPPORTED_VERSIONS = (1, 2)

_FLAG_ZERO_RESERVED = 0x01
_FLAG_FLOAT32_VALUES = 0x02
_FLAG_MODEL_REUSED = 0x04
_FLAG_TABLE_REF = 0x08


def _pack_dims(shape: tuple[int, ...]) -> bytes:
    if len(shape) > 255:
        raise FormatError(f"too many dimensions: {len(shape)}")
    return struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}Q", *shape)


def _unpack_dims(buf: memoryview, off: int) -> tuple[tuple[int, ...], int]:
    (ndim,) = struct.unpack_from("<B", buf, off)
    off += 1
    dims = struct.unpack_from(f"<{ndim}Q", buf, off)
    off += 8 * ndim
    return tuple(int(d) for d in dims), off


def encode_full_bytes(data: np.ndarray) -> bytes:
    """Serialise an exact full checkpoint array, copying its data once."""
    arr = np.ascontiguousarray(data, dtype="<f8")
    return b"".join((_pack_dims(arr.shape), arr.data))


def decode_full_bytes(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_full_bytes`: a view into ``payload``
    (read-only for ``bytes``), copying nothing."""
    buf = memoryview(payload)
    try:
        shape, off = _unpack_dims(buf, 0)
    except struct.error as exc:
        raise FormatError(f"truncated full-checkpoint payload: {exc}") from exc
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    need = off + 8 * n
    if len(payload) < need:
        raise FormatError(
            f"full-checkpoint payload too short: need {need} bytes, have {len(payload)}"
        )
    return np.frombuffer(buf[off : off + 8 * n], dtype="<f8").reshape(shape)


def _pack_flags(zero_reserved: bool, value_bits: int, *,
                model_reused: bool = False, table_ref: bool = False) -> int:
    """The ``flags`` byte of a delta payload or a stream header."""
    if value_bits not in (32, 64):
        raise FormatError(f"unsupported value_bits {value_bits}")
    return ((_FLAG_ZERO_RESERVED if zero_reserved else 0)
            | (_FLAG_FLOAT32_VALUES if value_bits == 32 else 0)
            | (_FLAG_MODEL_REUSED if model_reused else 0)
            | (_FLAG_TABLE_REF if table_ref else 0))


def _pack_head(nbits: int, flags: int, strategy: str,
               error_bound: float) -> bytes:
    """``nbits:u8 flags:u8 strategy_len:u8 strategy error_bound:f64``."""
    name = strategy.encode("ascii")
    if len(name) > 255:
        raise FormatError("strategy name too long")
    return (struct.pack("<BBB", nbits, flags, len(name)) + name
            + struct.pack("<d", error_bound))


def _parse_head(buf: memoryview, off: int
                ) -> tuple[int, int, str, float, int]:
    """Inverse of :func:`_pack_head` at ``off``: ``(nbits, flags,
    strategy, error_bound, end offset)``; raises ``struct.error`` or
    ``ValueError`` on a corrupt head."""
    nbits, flags, slen = struct.unpack_from("<BBB", buf, off)
    off += 3
    strategy = bytes(buf[off : off + slen]).decode("ascii")
    off += slen
    (error_bound,) = struct.unpack_from("<d", buf, off)
    return int(nbits), int(flags), strategy, float(error_bound), off + 8


def _pack_table(representatives: np.ndarray) -> bytes:
    """``n_reps:u32 reps:f64[n_reps]``."""
    reps = np.ascontiguousarray(representatives, dtype="<f8")
    return struct.pack("<I", reps.size) + reps.tobytes()


def _parse_table(buf: memoryview, off: int) -> tuple[np.ndarray, int]:
    """Inverse of :func:`_pack_table` at ``off``: ``(reps, end offset)``."""
    (n_reps,) = struct.unpack_from("<I", buf, off)
    off += 4
    reps = np.frombuffer(buf[off : off + 8 * n_reps], dtype="<f8").copy()
    if reps.size != n_reps:
        raise FormatError("truncated representatives table")
    return reps, off + 8 * n_reps


def _pack_point_tail(enc: EncodedIteration) -> bytes:
    """``n_exact:u64 exact bitmap packed_indices`` of ``enc``; exact
    values as f4 when its ``value_bits`` is 32, else f8."""
    exact = np.ascontiguousarray(enc.exact_values,
                                 dtype="<f4" if enc.value_bits == 32 else "<f8")
    bitmap = np.packbits(enc.incompressible.astype(np.uint8), bitorder="little")
    return (struct.pack("<Q", exact.size) + exact.tobytes() + bitmap.tobytes()
            + pack_bits(enc.indices, enc.nbits))


def _parse_point_tail(buf: memoryview, off: int, n: int, nbits: int, *,
                      float32: bool, n_reps: int, zero_reserved: bool
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`_pack_point_tail` for ``n`` points at ``off``;
    returns ``(indices, incompressible, exact_values)``.

    Raises :class:`FormatError` on truncation, when the bitmap population
    differs from the exact-value count, and when an index points past the
    ``n_reps``-entry table.
    """
    try:
        (n_exact,) = struct.unpack_from("<Q", buf, off)
        off += 8
        width = 4 if float32 else 8
        exact = np.frombuffer(buf[off : off + width * n_exact],
                              dtype="<f4" if float32 else "<f8"
                              ).astype(np.float64)
        if exact.size != n_exact:
            raise FormatError("truncated exact-value stream")
        off += width * n_exact
        bitmap_bytes = (n + 7) // 8
        raw_bitmap = np.frombuffer(buf[off : off + bitmap_bytes], dtype=np.uint8)
        if raw_bitmap.size != bitmap_bytes:
            raise FormatError("truncated incompressibility bitmap")
        incompressible = np.unpackbits(raw_bitmap, bitorder="little")[:n].astype(bool)
        off += bitmap_bytes
        indices = unpack_bits(buf[off : off + packed_nbytes(n, nbits)], n, nbits)
    except (struct.error, ValueError) as exc:
        raise FormatError(f"corrupt point data: {exc}") from exc

    if int(incompressible.sum()) != n_exact:
        raise FormatError(
            f"bitmap population ({int(incompressible.sum())}) does not match "
            f"exact-value count ({n_exact})"
        )
    max_valid = n_reps if zero_reserved else max(n_reps - 1, 0)
    if indices.size and int(indices.max()) > max_valid:
        raise FormatError(
            f"index {int(indices.max())} exceeds bin table of {n_reps} entries"
        )
    return indices.astype(np.uint32, copy=False), incompressible, exact


def encode_delta_bytes(enc: EncodedIteration, *, table_ref: bool = False) -> bytes:
    """Serialise one encoded iteration.

    With ``table_ref`` the representative table is *elided* (``n_reps``
    written as 0, flag bit 3 set): the writer asserts it equals the table
    of the nearest preceding delta in the same chain, and the reader must
    pass that table as ``prev_reps`` to :func:`decode_delta_bytes`.
    """
    flags = _pack_flags(enc.zero_reserved, enc.value_bits,
                        model_reused=enc.model_reused,
                        table_ref=table_ref)
    return (_pack_head(enc.nbits, flags, enc.strategy, enc.error_bound)
            + _pack_dims(enc.shape)
            + _pack_table(np.empty(0) if table_ref else enc.representatives)
            + _pack_point_tail(enc))


def _delta_head(payload: bytes, prev_reps: np.ndarray | None):
    """``(buf, nbits, flags, strategy, error_bound, shape, reps, off)`` of
    a delta payload: everything before the point tail (which starts at
    ``off``), with a table reference resolved against ``prev_reps``."""
    buf = memoryview(payload)
    try:
        nbits, flags, strategy, error_bound, off = _parse_head(buf, 0)
        shape, off = _unpack_dims(buf, off)
        reps, off = _parse_table(buf, off)
    except (struct.error, ValueError) as exc:
        raise FormatError(f"corrupt delta payload: {exc}") from exc
    if flags & _FLAG_TABLE_REF:
        if prev_reps is None:
            raise FormatError(
                "table-reference delta needs the preceding delta's "
                "representative table (prev_reps)"
            )
        reps = np.asarray(prev_reps, dtype=np.float64).copy()
    return buf, nbits, flags, strategy, error_bound, shape, reps, off


def decode_delta_bytes(payload: bytes,
                       prev_reps: np.ndarray | None = None) -> EncodedIteration:
    """Inverse of :func:`encode_delta_bytes`.

    ``prev_reps`` is the representative table of the nearest preceding
    delta in the same chain; it is required to resolve a table-reference
    delta (flag bit 3) and ignored otherwise.
    """
    buf, nbits, flags, strategy, error_bound, shape, reps, off = _delta_head(
        payload, prev_reps)
    zero_reserved = bool(flags & _FLAG_ZERO_RESERVED)
    float32 = bool(flags & _FLAG_FLOAT32_VALUES)
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    indices, incompressible, exact = _parse_point_tail(
        buf, off, n, nbits, float32=float32, n_reps=reps.size,
        zero_reserved=zero_reserved)
    return EncodedIteration(
        shape=shape,
        nbits=nbits,
        representatives=reps,
        indices=indices,
        incompressible=incompressible,
        exact_values=exact,
        error_bound=error_bound,
        strategy=strategy,
        zero_reserved=zero_reserved,
        value_bits=32 if float32 else 64,
        model_reused=bool(flags & _FLAG_MODEL_REUSED),
    )


class DeltaHead(NamedTuple):
    """The head of a delta payload: what it was encoded with, and its
    representative table (a table reference resolved)."""

    nbits: int
    strategy: str
    error_bound: float
    representatives: np.ndarray


def last_delta_head(payloads: Sequence[bytes]) -> DeltaHead | None:
    """The :class:`DeltaHead` of the last of a chain's delta ``payloads``
    (``None`` for none), parsing only their heads: a resumed or cut chain
    reads from it the table its next delta may reference."""
    head = None
    for payload in payloads:
        _buf, nbits, _flags, strategy, error_bound, _shape, reps, _off = \
            _delta_head(payload, None if head is None
                        else head.representatives)
        head = DeltaHead(nbits, strategy, error_bound, reps)
    return head
