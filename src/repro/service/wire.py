"""Wire framing for array payloads crossing the service boundary.

HTTP bodies carry float64 arrays in a tiny self-describing frame --

    ``b"NARR"`` | ``<Q n>`` little-endian count | ``n * 8`` bytes of ``<f8``

-- repeated once per array, so a single body can hold a sequence of
states (a decompress result is the whole decoded chain).  The frame is
deliberately dumber than the checkpoint container: no CRC, no tags --
transport integrity is TCP's job, and the *compressed* payloads that
matter travel as checkpoint container bytes, which carry their own
per-record CRC32.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator

import numpy as np

from repro.errors import FormatError

__all__ = ["pack_arrays", "unpack_arrays", "iter_frames", "read_chunked",
           "MAGIC"]

MAGIC = b"NARR"
_HEADER = struct.Struct("<4sQ")


def pack_arrays(arrays) -> bytes:
    """Frame one or more 1-D float64 arrays into a single wire payload."""
    parts: list[bytes] = []
    for arr in arrays:
        data = np.ascontiguousarray(arr, dtype="<f8")
        if data.ndim != 1:
            raise FormatError(
                f"wire arrays must be 1-D, got shape {data.shape}"
            )
        parts.append(_HEADER.pack(MAGIC, data.size))
        parts.append(data.tobytes())
    return b"".join(parts)


def unpack_arrays(payload: bytes) -> list[np.ndarray]:
    """Parse a wire payload back into its framed arrays (strict)."""
    out: list[np.ndarray] = []
    off = 0
    total = len(payload)
    while off < total:
        if total - off < _HEADER.size:
            raise FormatError("truncated wire frame header")
        magic, n = _HEADER.unpack_from(payload, off)
        if magic != MAGIC:
            raise FormatError(f"bad wire magic {magic!r}")
        off += _HEADER.size
        nbytes = 8 * n
        if total - off < nbytes:
            raise FormatError(
                f"truncated wire frame: declared {n} values, "
                f"{(total - off) // 8} present"
            )
        out.append(np.frombuffer(payload, dtype="<f8", count=n,
                                 offset=off).copy())
        off += nbytes
    if not out:
        raise FormatError("empty wire payload")
    return out


def iter_frames(data: bytes, chunk_size: int = 1 << 16) -> Iterator[bytes]:
    """Split a payload into transport chunks for chunked uploads."""
    for off in range(0, len(data), chunk_size):
        yield data[off : off + chunk_size]


def read_chunked(rfile: BinaryIO) -> bytes:
    """Decode a ``Transfer-Encoding: chunked`` request body.

    ``http.server`` leaves chunked decoding to the handler; the framing is
    simple (hex size line, payload, CRLF, terminated by a zero-size chunk)
    and malformed input raises :class:`~repro.errors.FormatError` so the
    handler can answer 422 instead of hanging.
    """
    parts: list[bytes] = []
    while True:
        size_line = rfile.readline(1 << 10)
        if not size_line:
            raise FormatError("truncated chunked body: missing size line")
        try:
            size = int(size_line.split(b";", 1)[0].strip(), 16)
        except ValueError:
            raise FormatError(
                f"bad chunk size line {size_line!r}"
            ) from None
        if size == 0:
            # Consume the (possibly empty) trailer up to the blank line.
            while True:
                trailer = rfile.readline(1 << 10)
                if trailer in (b"\r\n", b"\n", b""):
                    break
            return b"".join(parts)
        chunk = rfile.read(size)
        if len(chunk) != size:
            raise FormatError("truncated chunk payload")
        parts.append(chunk)
        rfile.read(2)  # trailing CRLF
