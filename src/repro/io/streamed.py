"""Persistence for streamed (chunked) encodings.

A :class:`~repro.core.streaming.StreamedIteration` could be concatenated
and written as one delta record, but that defeats the point of streaming:
the writer would materialise the whole iteration.  This module stores the
stream as-is --

* one ``SHDR`` record: stream metadata + the shared representative table
  (flag bit 0 = zero index reserved, bit 1 = exact values stored as
  float32, the same bits a delta record uses);
* one ``CHNK`` record per chunk: ``start:u64 n:u64`` followed by the point
  tail of a delta payload (``n_exact:u64 exact bitmap packed_indices``),
  written and parsed by the same code as in :mod:`repro.io.format` --

so both writing and reading touch one chunk at a time.  Reading back
yields a ``StreamedIteration`` whose chunks decode against the same
replayed reference stream used at encode time.
"""

from __future__ import annotations

import io
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.streaming import ChunkRecord, StreamedIteration
from repro.errors import FormatError
from repro.io.container import CheckpointFile
from repro.io.format import (_FLAG_FLOAT32_VALUES, _FLAG_ZERO_RESERVED,
                             _pack_point_tail, _parse_point_tail)
from repro.telemetry.tracer import get_telemetry

__all__ = ["save_streamed", "load_streamed", "streamed_to_bytes",
           "streamed_from_bytes"]

TAG_STREAM_HEADER = b"SHDR"
TAG_CHUNK = b"CHNK"


def _header_payload(streamed: StreamedIteration) -> bytes:
    strategy = streamed.strategy.encode("ascii")
    flags = _FLAG_ZERO_RESERVED if streamed.zero_reserved else 0
    if streamed.value_bits == 32:
        flags |= _FLAG_FLOAT32_VALUES
    reps = np.ascontiguousarray(streamed.representatives, dtype="<f8")
    return (
        struct.pack("<QBBB", streamed.n_points, streamed.nbits, flags,
                    len(strategy))
        + strategy
        + struct.pack("<d", streamed.error_bound)
        + struct.pack("<I", reps.size)
        + reps.tobytes()
    )


def _parse_header(payload: bytes) -> StreamedIteration:
    """The stream's metadata and table, as a chunk-less iteration."""
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
    return StreamedIteration(
        n_points=int(n_points),
        nbits=int(nbits),
        error_bound=float(error_bound),
        strategy=strategy,
        zero_reserved=bool(flags & _FLAG_ZERO_RESERVED),
        representatives=reps,
        chunks=(),
        value_bits=32 if flags & _FLAG_FLOAT32_VALUES else 64,
    )


def _chunk_payload(chunk: ChunkRecord, streamed: StreamedIteration) -> bytes:
    return (struct.pack("<QQ", chunk.start, chunk.n_points)
            + _pack_point_tail(chunk.indices, chunk.incompressible,
                               chunk.exact_values, streamed.nbits,
                               streamed.value_bits))


def _parse_chunk(payload: bytes, header: StreamedIteration) -> ChunkRecord:
    buf = memoryview(payload)
    try:
        start, n = struct.unpack_from("<QQ", buf, 0)
    except struct.error as exc:
        raise FormatError(f"corrupt chunk payload: {exc}") from exc
    indices, mask, exact = _parse_point_tail(
        buf, 16, n, header.nbits, float32=header.value_bits == 32,
        n_reps=header.representatives.size,
        zero_reserved=header.zero_reserved)
    return ChunkRecord(start=int(start), indices=indices,
                       incompressible=mask, exact_values=exact)


def _write_records(f: CheckpointFile, streamed: StreamedIteration) -> None:
    f.write_record(TAG_STREAM_HEADER, _header_payload(streamed))
    for chunk in streamed.chunks:
        f.write_record(TAG_CHUNK, _chunk_payload(chunk, streamed))


def save_streamed(path: str | Path, streamed: StreamedIteration) -> int:
    """Write a streamed iteration chunk by chunk, atomically (see
    :meth:`~repro.io.container.CheckpointFile.save`, so a crash mid-save
    never leaves a torn stream behind); returns bytes written."""
    return CheckpointFile.save(path, lambda f: _write_records(f, streamed),
                               "io.save_streamed",
                               n_chunks=len(streamed.chunks))


def streamed_to_bytes(streamed: StreamedIteration) -> bytes:
    """Serialise a streamed iteration to container bytes (same layout as
    :func:`save_streamed`, byte for byte)."""
    buf = io.BytesIO()
    with get_telemetry().span("io.streamed_to_bytes",
                              n_chunks=len(streamed.chunks)) as sp:
        _write_records(CheckpointFile.from_handle(buf), streamed)
        data = buf.getvalue()
        sp.set(bytes_out=len(data))
    return data


def streamed_from_bytes(data: bytes) -> StreamedIteration:
    """Rebuild a :class:`~repro.core.streaming.StreamedIteration` from
    container bytes (strict; the in-memory twin of :func:`load_streamed`)."""
    with get_telemetry().span("io.streamed_from_bytes",
                              bytes_in=len(data)) as sp:
        header, chunks = _read_stream_records(CheckpointFile.from_bytes(data))
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
            chunks.append(_parse_chunk(payload, header))
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


def _assemble_stream(header: StreamedIteration | None,
                     chunks: list[ChunkRecord]) -> StreamedIteration:
    if header is None:
        raise FormatError("no stream header record")
    expected = 0
    for chunk in chunks:
        if chunk.start != expected:
            raise FormatError(
                f"chunk at offset {chunk.start}, expected {expected}"
            )
        expected += chunk.n_points
    if expected != header.n_points:
        raise FormatError(
            f"chunks cover {expected} points, header declares {header.n_points}"
        )
    return replace(header, chunks=tuple(chunks))
