"""Persistence for streamed (chunked) encodings.

A :class:`~repro.core.streaming.StreamedIteration` could be concatenated
and written as one delta record, but that defeats the point of streaming:
the writer would materialise the whole iteration.  This module stores the
stream as-is, reusing the delta record's fields from
:mod:`repro.io.format` --

* one ``SHDR`` record: ``n_points:u64`` followed by the delta head
  (``nbits flags strategy_len strategy error_bound``; flag bit 0 = zero
  index reserved, bit 1 = exact values stored as float32) and the shared
  table (``n_reps reps``);
* one ``CHNK`` record per chunk: ``start:u64 n:u64`` followed by the point
  tail of a delta payload (``n_exact:u64 exact bitmap packed_indices``) --

so both writing and reading touch one chunk at a time.  The writer
computes each chunk's ``start`` offset; the reader checks it, and rebuilds
each chunk as a flat :class:`~repro.core.encoder.EncodedIteration` that
decodes against the same replayed reference stream used at encode time.
"""

from __future__ import annotations

import io
import struct
from dataclasses import replace
from pathlib import Path

from repro.core.encoder import EncodedIteration
from repro.core.streaming import StreamedIteration
from repro.errors import FormatError
from repro.io.container import CheckpointFile
from repro.io.format import (_FLAG_FLOAT32_VALUES, _FLAG_ZERO_RESERVED,
                             _pack_flags, _pack_head, _pack_point_tail,
                             _pack_table, _parse_head, _parse_point_tail,
                             _parse_table)
from repro.telemetry.tracer import get_telemetry

__all__ = ["save_streamed", "load_streamed", "streamed_to_bytes",
           "streamed_from_bytes"]

TAG_STREAM_HEADER = b"SHDR"
TAG_CHUNK = b"CHNK"


def _parse_header(payload: bytes) -> StreamedIteration:
    """The stream's metadata and table, as a chunk-less iteration."""
    buf = memoryview(payload)
    try:
        (n_points,) = struct.unpack_from("<Q", buf, 0)
        nbits, flags, strategy, error_bound, off = _parse_head(buf, 8)
        reps, _ = _parse_table(buf, off)
    except (struct.error, ValueError) as exc:
        raise FormatError(f"corrupt stream header: {exc}") from exc
    return StreamedIteration(
        n_points=int(n_points),
        nbits=nbits,
        error_bound=error_bound,
        strategy=strategy,
        zero_reserved=bool(flags & _FLAG_ZERO_RESERVED),
        representatives=reps,
        chunks=(),
        value_bits=32 if flags & _FLAG_FLOAT32_VALUES else 64,
    )


def _parse_chunk(payload: bytes, header: StreamedIteration
                 ) -> tuple[int, EncodedIteration]:
    """``(start offset, chunk)`` of a ``CHNK`` payload."""
    buf = memoryview(payload)
    try:
        start, n = struct.unpack_from("<QQ", buf, 0)
    except struct.error as exc:
        raise FormatError(f"corrupt chunk payload: {exc}") from exc
    indices, mask, exact = _parse_point_tail(
        buf, 16, n, header.nbits, float32=header.value_bits == 32,
        n_reps=header.representatives.size,
        zero_reserved=header.zero_reserved)
    return int(start), EncodedIteration(
        shape=(int(n),), nbits=header.nbits,
        representatives=header.representatives, indices=indices,
        incompressible=mask, exact_values=exact,
        error_bound=header.error_bound, strategy=header.strategy,
        zero_reserved=header.zero_reserved, value_bits=header.value_bits)


def _write_records(f: CheckpointFile, streamed: StreamedIteration) -> None:
    flags = _pack_flags(streamed.zero_reserved, streamed.value_bits)
    f.write_record(TAG_STREAM_HEADER, struct.pack("<Q", streamed.n_points)
                   + _pack_head(streamed.nbits, flags, streamed.strategy,
                                streamed.error_bound)
                   + _pack_table(streamed.representatives))
    start = 0
    for chunk in streamed.chunks:
        f.write_record(TAG_CHUNK, struct.pack("<QQ", start, chunk.n_points)
                       + _pack_point_tail(chunk))
        start += chunk.n_points


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
        streamed = _read_stream(CheckpointFile.from_bytes(data))
        sp.set(n_chunks=len(streamed.chunks))
    return streamed


def _read_stream(f: CheckpointFile) -> StreamedIteration:
    """Parse every record, checking each chunk's start offset as it
    comes and that the chunks cover the header's points."""
    header = None
    chunks: list[EncodedIteration] = []
    expected = 0
    for tag, payload in f.records():
        if tag == TAG_STREAM_HEADER:
            if header is not None:
                raise FormatError("multiple stream headers")
            header = _parse_header(payload)
        elif tag == TAG_CHUNK:
            if header is None:
                raise FormatError("chunk before stream header")
            start, chunk = _parse_chunk(payload, header)
            if start != expected:
                raise FormatError(
                    f"chunk at offset {start}, expected {expected}")
            chunks.append(chunk)
            expected += chunk.n_points
        else:
            raise FormatError(f"unexpected record tag {tag!r}")
    if header is None:
        raise FormatError("no stream header record")
    if expected != header.n_points:
        raise FormatError(
            f"chunks cover {expected} points, header declares {header.n_points}"
        )
    return replace(header, chunks=tuple(chunks))


def load_streamed(path: str | Path) -> StreamedIteration:
    """Read a streamed iteration back (chunks stay separate)."""
    with get_telemetry().span("io.load_streamed",
                              bytes_in=Path(path).stat().st_size) as sp, \
            CheckpointFile.open(path) as f:
        streamed = _read_stream(f)
        sp.set(n_chunks=len(streamed.chunks))
    return streamed
