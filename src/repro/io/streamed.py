"""Persistence for streamed (chunked) encodings.

A :class:`~repro.core.streaming.StreamedIteration` could be concatenated
and written as one delta record, but that defeats the point of streaming:
the writer would materialise the whole iteration.  This module stores the
stream as-is --

* one ``SHDR`` record: stream metadata + the shared representative table;
* one ``CHNK`` record per chunk: start offset, indices (bit-packed),
  incompressibility bitmap, exact values --

so both writing and reading touch one chunk at a time.  Reading back
yields a ``StreamedIteration`` whose chunks decode against the same
replayed reference stream used at encode time.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np

from repro.bitpack import pack_bits, packed_nbytes, unpack_bits
from repro.core.errors import FormatError
from repro.core.streaming import ChunkRecord, StreamedIteration
from repro.io.container import CheckpointFile, _check_header
from repro.io.durable import atomic_write, retry_io
from repro.telemetry.tracer import get_telemetry

__all__ = ["save_streamed", "load_streamed", "streamed_to_bytes",
           "streamed_from_bytes"]

TAG_STREAM_HEADER = b"SHDR"
TAG_CHUNK = b"CHNK"

_FLAG_ZERO_RESERVED = 0x01


def _header_payload(streamed: StreamedIteration) -> bytes:
    strategy = streamed.strategy.encode("ascii")
    flags = _FLAG_ZERO_RESERVED if streamed.zero_reserved else 0
    reps = np.ascontiguousarray(streamed.representatives, dtype="<f8")
    return (
        struct.pack("<QBBB", streamed.n_points, streamed.nbits, flags,
                    len(strategy))
        + strategy
        + struct.pack("<d", streamed.error_bound)
        + struct.pack("<I", reps.size)
        + reps.tobytes()
    )


def _parse_header(payload: bytes):
    try:
        n_points, nbits, flags, slen = struct.unpack_from("<QBBB", payload, 0)
        off = 11
        strategy = payload[off : off + slen].decode("ascii")
        off += slen
        (error_bound,) = struct.unpack_from("<d", payload, off)
        off += 8
        (n_reps,) = struct.unpack_from("<I", payload, off)
        off += 4
        reps = np.frombuffer(payload[off : off + 8 * n_reps], dtype="<f8").copy()
        if reps.size != n_reps:
            raise FormatError("truncated representative table")
    except (struct.error, UnicodeDecodeError) as exc:
        raise FormatError(f"corrupt stream header: {exc}") from exc
    return (int(n_points), int(nbits), bool(flags & _FLAG_ZERO_RESERVED),
            strategy, float(error_bound), reps)


def _chunk_payload(chunk: ChunkRecord, nbits: int) -> bytes:
    exact = np.ascontiguousarray(chunk.exact_values, dtype="<f8")
    bitmap = np.packbits(chunk.incompressible.astype(np.uint8),
                         bitorder="little")
    return (
        struct.pack("<QQQ", chunk.start, chunk.n_points, exact.size)
        + exact.tobytes()
        + bitmap.tobytes()
        + pack_bits(chunk.indices, nbits)
    )


def _parse_chunk(payload: bytes, nbits: int) -> ChunkRecord:
    try:
        start, n, n_exact = struct.unpack_from("<QQQ", payload, 0)
        off = 24
        exact = np.frombuffer(payload[off : off + 8 * n_exact],
                              dtype="<f8").copy()
        if exact.size != n_exact:
            raise FormatError("truncated exact stream in chunk")
        off += 8 * n_exact
        bitmap_bytes = (n + 7) // 8
        raw = np.frombuffer(payload[off : off + bitmap_bytes], dtype=np.uint8)
        if raw.size != bitmap_bytes:
            raise FormatError("truncated bitmap in chunk")
        mask = np.unpackbits(raw, bitorder="little")[:n].astype(bool)
        off += bitmap_bytes
        idx_bytes = packed_nbytes(n, nbits)
        indices = unpack_bits(payload[off : off + idx_bytes], n, nbits)
    except (struct.error, ValueError) as exc:
        raise FormatError(f"corrupt chunk payload: {exc}") from exc
    if int(mask.sum()) != n_exact:
        raise FormatError("chunk bitmap population mismatch")
    return ChunkRecord(start=int(start),
                       indices=indices.astype(np.uint32, copy=False),
                       incompressible=mask, exact_values=exact)


def save_streamed(path: str | Path, streamed: StreamedIteration, *,
                  durable: bool = True) -> int:
    """Write a streamed iteration chunk by chunk; returns bytes written.

    With ``durable`` (the default) the file is replaced atomically via
    :func:`~repro.io.durable.atomic_write` under
    :func:`~repro.io.durable.retry_io`, so a crash mid-save never leaves a
    torn stream behind.
    """

    def _write_all() -> None:
        if durable:
            with atomic_write(path) as fh:
                f = CheckpointFile.from_handle(fh)
                _write_records(f)
        else:
            with CheckpointFile.create(path) as f:
                _write_records(f)

    def _write_records(f: CheckpointFile) -> None:
        f.write_record(TAG_STREAM_HEADER, _header_payload(streamed))
        for chunk in streamed.chunks:
            f.write_record(TAG_CHUNK, _chunk_payload(chunk, streamed.nbits))

    with get_telemetry().span("io.save_streamed",
                              n_chunks=len(streamed.chunks),
                              durable=durable) as sp:
        if durable:
            retry_io(_write_all)
        else:
            _write_all()
        nbytes = Path(path).stat().st_size
        sp.set(bytes_out=nbytes)
    return nbytes


def streamed_to_bytes(streamed: StreamedIteration) -> bytes:
    """Serialise a streamed iteration to container bytes (same layout as
    :func:`save_streamed`, byte for byte).  In-memory twin used by the
    compression service's stream endpoints."""
    buf = io.BytesIO()
    with get_telemetry().span("io.streamed_to_bytes",
                              n_chunks=len(streamed.chunks)) as sp:
        f = CheckpointFile.from_handle(buf)
        f.write_record(TAG_STREAM_HEADER, _header_payload(streamed))
        for chunk in streamed.chunks:
            f.write_record(TAG_CHUNK, _chunk_payload(chunk, streamed.nbits))
        data = buf.getvalue()
        sp.set(bytes_out=len(data))
    return data


def streamed_from_bytes(data: bytes) -> StreamedIteration:
    """Rebuild a :class:`~repro.core.streaming.StreamedIteration` from
    container bytes (strict; the in-memory twin of :func:`load_streamed`)."""
    buf = io.BytesIO(data)
    with get_telemetry().span("io.streamed_from_bytes",
                              bytes_in=len(data)) as sp:
        _check_header(buf, "<bytes>")
        f = CheckpointFile(buf, "r", owns_handle=False)
        header, chunks = _read_stream_records(f)
        sp.set(n_chunks=len(chunks))
    return _assemble_stream(header, chunks)


def _read_stream_records(f: CheckpointFile):
    header = None
    chunks: list[ChunkRecord] = []
    for tag, payload in f.records():
        if tag == TAG_STREAM_HEADER:
            if header is not None:
                raise FormatError("multiple stream headers")
            header = _parse_header(payload)
        elif tag == TAG_CHUNK:
            if header is None:
                raise FormatError("chunk before stream header")
            chunks.append(_parse_chunk(payload, header[1]))
        else:
            raise FormatError(f"unexpected record tag {tag!r}")
    return header, chunks


def load_streamed(path: str | Path) -> StreamedIteration:
    """Read a streamed iteration back (chunks stay separate)."""
    with get_telemetry().span("io.load_streamed",
                              bytes_in=Path(path).stat().st_size) as sp, \
            CheckpointFile.open(path) as f:
        header, chunks = _read_stream_records(f)
        sp.set(n_chunks=len(chunks))
    return _assemble_stream(header, chunks)


def _assemble_stream(header, chunks: list[ChunkRecord]) -> StreamedIteration:
    if header is None:
        raise FormatError("no stream header record")
    n_points, nbits, zero_reserved, strategy, error_bound, reps = header
    expected = 0
    for chunk in chunks:
        if chunk.start != expected:
            raise FormatError(
                f"chunk at offset {chunk.start}, expected {expected}"
            )
        expected += chunk.n_points
    if expected != n_points:
        raise FormatError(
            f"chunks cover {expected} points, header declares {n_points}"
        )
    return StreamedIteration(
        n_points=n_points,
        nbits=nbits,
        error_bound=error_bound,
        strategy=strategy,
        zero_reserved=zero_reserved,
        representatives=reps,
        chunks=tuple(chunks),
    )
