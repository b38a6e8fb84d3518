"""Framed multi-record checkpoint files.

File layout::

    file  := magic:u8[4] version:u16 record*
    record:= tag:u8[4] payload_len:u64 payload crc32:u32

Tags: ``b"FULL"`` (exact checkpoint) and ``b"DELT"`` (encoded iteration).
The CRC covers tag + length + payload, so any bit flip or truncation in a
record is caught.  Records are strictly appended; a chain file is one FULL
followed by zero or more DELT records.

Durability model
----------------

* :func:`save_chain` rewrites the whole file through
  :func:`~repro.io.durable.atomic_write`: a crash mid-save leaves the old
  file intact, never a torn mixture.
* :meth:`CheckpointFile.append` adds records in place with per-record
  ``fsync``: a crash mid-append can only damage the record being written
  (a *torn tail*), never an already-persisted one.
* :meth:`CheckpointFile.records` with ``strict=False`` -- and
  :func:`load_chain` with ``recover="tail"`` -- salvage the longest valid
  record prefix from a torn file instead of raising.  Corruption *before*
  the last record still raises: the delta chain after a damaged interior
  record cannot be trusted.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from repro.core.checkpoint import CheckpointChain
from repro.core.config import NumarckConfig
from repro.core.decoder import decode_iteration
from repro.core.encoder import EncodedIteration
from repro.errors import FormatError, SalvageError, SalvageReport
from repro.io.durable import atomic_write, retry_io
from repro.io.format import (
    FORMAT_VERSION,
    MAGIC,
    SUPPORTED_VERSIONS,
    decode_delta_bytes,
    decode_full_bytes,
    encode_delta_bytes,
    encode_full_bytes,
    peek_delta_table,
)
from repro.telemetry.tracer import get_telemetry

__all__ = ["CheckpointFile", "save_chain", "load_chain", "salvage_truncate",
           "chain_to_bytes", "chain_from_bytes", "WriteHook"]

TAG_FULL = b"FULL"
TAG_DELTA = b"DELT"

#: length of ``magic + version`` -- the offset of the first record.
HEADER_SIZE = 6

#: signature of an injectable raw-write hook: ``hook(fh, data)`` performs
#: the actual ``fh.write(data)`` (or deliberately fails to, for fault
#: injection).
WriteHook = Callable[[BinaryIO, bytes], None]


class _ScanFailure(Exception):
    """Internal: a record failed to parse while walking the file.

    ``offset`` is where the bad record starts, ``tail`` whether the damage
    is consistent with a torn trailing write (salvageable) as opposed to
    corruption with intact records after it (not salvageable).
    """

    def __init__(self, offset: int, reason: str, tail: bool) -> None:
        super().__init__(reason)
        self.offset = offset
        self.reason = reason
        self.tail = tail


def _check_header(fh: BinaryIO, path: str | Path) -> None:
    head = fh.read(HEADER_SIZE)
    if len(head) != HEADER_SIZE or head[:4] != MAGIC:
        raise FormatError(f"{path}: not a NUMARCK checkpoint file")
    (version,) = struct.unpack("<H", head[4:])
    if version not in SUPPORTED_VERSIONS:
        raise FormatError(f"{path}: unsupported format version {version}")


def _stream_size(fh: BinaryIO) -> int:
    """Total byte size of a seekable stream (files and ``BytesIO`` alike)."""
    pos = fh.tell()
    size = fh.seek(0, os.SEEK_END)
    fh.seek(pos)
    return size


def _iter_frames(fh: BinaryIO) -> Iterator[tuple[bytes, bytes]]:
    """Yield ``(tag, payload)`` per CRC-valid record; raise
    :class:`_ScanFailure` at the first record that does not parse."""
    file_size = _stream_size(fh)
    while True:
        offset = fh.tell()
        head = fh.read(12)
        if not head:
            return
        if len(head) < 12:
            raise _ScanFailure(offset, "truncated record header", tail=True)
        tag = head[:4]
        (length,) = struct.unpack("<Q", head[4:])
        # A corrupt length field must not trigger a giant allocation:
        # the payload plus its CRC cannot exceed what is left on disk.
        remaining = file_size - fh.tell()
        if length > max(remaining - 4, 0):
            raise _ScanFailure(
                offset,
                f"record length {length} exceeds remaining file size "
                f"({remaining} bytes)",
                tail=True,
            )
        payload = fh.read(length)
        if len(payload) < length:
            raise _ScanFailure(offset,
                               f"truncated record payload (tag {tag!r})",
                               tail=True)
        crc_bytes = fh.read(4)
        if len(crc_bytes) < 4:
            raise _ScanFailure(offset, "truncated record CRC", tail=True)
        (crc,) = struct.unpack("<I", crc_bytes)
        if zlib.crc32(head + payload) & 0xFFFFFFFF != crc:
            raise _ScanFailure(offset,
                               f"CRC mismatch in record (tag {tag!r})",
                               tail=fh.tell() == file_size)
        yield tag, payload


class CheckpointFile:
    """Streaming writer/reader for framed checkpoint records."""

    def __init__(self, fh: BinaryIO, mode: str, *,
                 write_hook: WriteHook | None = None,
                 sync: bool = False,
                 owns_handle: bool = True) -> None:
        self._fh = fh
        self._mode = mode
        self._write_hook = write_hook
        self._sync = sync
        self._owns_handle = owns_handle
        #: records confirmed on this handle (written, or found by append()).
        self.n_records = 0
        #: byte offset just past record ``i`` (index 0 = end of header).
        self._record_ends: list[int] = [HEADER_SIZE]
        #: offset just past the last CRC-valid record seen by ``records()``.
        self.valid_end = HEADER_SIZE
        #: ``(reason, tail)`` when a non-strict ``records()`` walk stopped
        #: at damage; ``None`` while the file looks clean.
        self.damage: tuple[str, bool] | None = None
        #: :class:`SalvageReport` describing what ``append()`` found and
        #: cut when it opened the file; ``None`` for other constructors.
        self.salvage: SalvageReport | None = None
        #: representative table of the last delta written/seen on this
        #: handle -- the dedup anchor for table-reference records.
        self._last_reps: np.ndarray | None = None

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, *,
               write_hook: WriteHook | None = None,
               sync: bool = False) -> "CheckpointFile":
        """Create/truncate a checkpoint file and write the header."""
        fh = open(path, "wb")
        fh.write(MAGIC + struct.pack("<H", FORMAT_VERSION))
        return cls(fh, "w", write_hook=write_hook, sync=sync)

    @classmethod
    def from_handle(cls, fh: BinaryIO, *,
                    write_hook: WriteHook | None = None) -> "CheckpointFile":
        """Start a checkpoint stream on an already-open writable handle
        (e.g. inside :func:`~repro.io.durable.atomic_write`); the caller
        keeps ownership of the handle."""
        fh.write(MAGIC + struct.pack("<H", FORMAT_VERSION))
        return cls(fh, "w", write_hook=write_hook, owns_handle=False)

    @classmethod
    def open(cls, path: str | Path) -> "CheckpointFile":
        """Open an existing checkpoint file for reading (validates header)."""
        fh = open(path, "rb")
        try:
            _check_header(fh, path)
        except FormatError:
            fh.close()
            raise
        return cls(fh, "r")

    @classmethod
    def append(cls, path: str | Path, *,
               write_hook: WriteHook | None = None,
               sync: bool = True) -> "CheckpointFile":
        """Open ``path`` for crash-consistent appending.

        Validates the header, scans to the end of the last CRC-valid
        record, truncates any torn tail left by an interrupted write, and
        positions the writer there.  ``n_records`` holds the number of
        valid records found and ``salvage`` a :class:`SalvageReport` of
        what (if anything) was cut.  A file whose damage is *not* a torn
        tail (valid records after a corrupt one) raises
        :class:`FormatError` -- appending to it would bury the corruption.

        With ``sync`` (the default) every appended record is flushed and
        ``fsync``\\ ed individually, so a crash can only tear the record
        being written.
        """
        fh = open(path, "r+b")
        try:
            _check_header(fh, path)
            ends = [HEADER_SIZE]
            reason = None
            last_reps = None
            try:
                for tag, payload in _iter_frames(fh):
                    ends.append(fh.tell())
                    # Rebuild the table-dedup anchor from the surviving
                    # records so appended reuse-hit deltas keep eliding
                    # repeated tables correctly.
                    if tag == TAG_DELTA:
                        last_reps = peek_delta_table(payload, last_reps)
                    elif tag == TAG_FULL:
                        last_reps = None
            except _ScanFailure as exc:
                if not exc.tail:
                    raise FormatError(
                        f"{path}: damaged interior record cannot be "
                        f"repaired by appending: {exc.reason}"
                    ) from None
                reason = exc.reason
        except BaseException:
            fh.close()
            raise
        file_size = os.fstat(fh.fileno()).st_size
        truncated = file_size - ends[-1]
        if truncated:
            fh.truncate(ends[-1])
            fh.flush()
            os.fsync(fh.fileno())
        fh.seek(ends[-1])
        obj = cls(fh, "w", write_hook=write_hook, sync=sync)
        obj.n_records = len(ends) - 1
        obj._record_ends = ends
        obj._last_reps = last_reps
        obj.salvage = SalvageReport(
            path=str(path),
            records_kept=len(ends) - 1,
            records_dropped=1 if truncated else 0,
            bytes_truncated=truncated,
            reason=reason,
        )
        if truncated:
            get_telemetry().metrics.counter(
                "io.records_salvaged").inc(obj.salvage.records_kept)
        return obj

    def close(self) -> None:
        if self._owns_handle:
            self._fh.close()

    def __enter__(self) -> "CheckpointFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writing -----------------------------------------------------------

    def _write(self, data: bytes) -> None:
        if self._write_hook is not None:
            self._write_hook(self._fh, data)
        else:
            self._fh.write(data)

    def write_record(self, tag: bytes, payload: bytes) -> None:
        """Append one framed record (tag + length + payload + CRC32).

        In ``sync`` mode the record is flushed and ``fsync``\\ ed before
        returning, making it durable on its own.  A failed write
        (transient ``OSError``) rolls the file back to the record
        boundary, so the caller may simply retry -- e.g. through
        :func:`~repro.io.durable.retry_io`.
        """
        if self._mode != "w":
            raise FormatError("file opened for reading")
        frame = tag + struct.pack("<Q", len(payload)) + payload
        crc = zlib.crc32(frame) & 0xFFFFFFFF
        data = frame + struct.pack("<I", crc)
        start = self._record_ends[-1]
        tel = get_telemetry()
        with tel.span("io.write_record", tag=tag.decode("ascii", "replace"),
                      bytes_out=len(data), sync=self._sync):
            try:
                self._write(data)
                if self._sync:
                    self._fh.flush()
                    os.fsync(self._fh.fileno())
                    tel.metrics.counter("io.fsync").inc()
            except OSError:
                # Roll back to the record boundary so a retry appends cleanly
                # instead of concatenating two half-records.
                try:
                    self._fh.flush()
                except OSError:
                    pass
                try:
                    self._fh.truncate(start)
                    self._fh.seek(start)
                except OSError:
                    pass
                raise
        tel.metrics.counter("io.bytes_written").inc(len(data))
        self.n_records += 1
        self._record_ends.append(start + len(data))

    def truncate_records(self, n: int) -> None:
        """Drop every record after the first ``n`` (writer mode only).

        Used when resuming an append on a file that holds more records
        than the adopted in-memory chain trusts.
        """
        if self._mode != "w":
            raise FormatError("file opened for reading")
        if not 0 <= n <= self.n_records:
            raise ValueError(f"cannot keep {n} of {self.n_records} records")
        if n == self.n_records:
            return
        end = self._record_ends[n]
        self._fh.truncate(end)
        self._fh.seek(end)
        if self._sync:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        del self._record_ends[n + 1:]
        self.n_records = n
        # The dedup anchor may have been cut away; writing the next delta
        # with a full table is always safe.
        self._last_reps = None

    def write_full(self, data: np.ndarray) -> None:
        """Append an exact full-checkpoint record."""
        self.write_record(TAG_FULL, encode_full_bytes(data))
        self._last_reps = None

    def write_delta(self, encoded: EncodedIteration) -> None:
        """Append one encoded-iteration record.

        When the iteration reused the previous delta's bin model
        (``model_reused``) and the tables verifiably match, the table is
        stored as a back-reference instead of repeating it.
        """
        ref = bool(
            encoded.model_reused
            and self._last_reps is not None
            and encoded.representatives.size == self._last_reps.size
            and np.array_equal(encoded.representatives, self._last_reps)
        )
        self.write_record(TAG_DELTA, encode_delta_bytes(encoded, table_ref=ref))
        if ref:
            get_telemetry().metrics.counter("io.table_refs").inc()
        else:
            self._last_reps = np.asarray(encoded.representatives,
                                         dtype=np.float64).copy()

    # -- reading -----------------------------------------------------------

    def records(self, strict: bool = True) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(tag, payload)`` for every record, verifying CRCs.

        With ``strict=True`` (the default) any damage raises
        :class:`FormatError`.  With ``strict=False`` a *torn tail* --
        damage extending to end-of-file, the signature of an interrupted
        append -- stops the iteration instead, leaving ``self.damage``
        set and ``self.valid_end`` at the last good record boundary.
        Damage with file content *after* it (an interior record) raises
        either way: the records beyond it decode against an untrusted
        base.
        """
        if self._mode != "r":
            raise FormatError("file opened for writing")
        frames = _iter_frames(self._fh)
        while True:
            try:
                tag, payload = next(frames)
            except StopIteration:
                return
            except _ScanFailure as exc:
                if strict or not exc.tail:
                    raise FormatError(exc.reason) from None
                self.damage = (exc.reason, exc.tail)
                return
            self.valid_end = self._fh.tell()
            yield tag, payload

    def read_chain(self, strict: bool = True
                   ) -> tuple[np.ndarray, list[EncodedIteration]]:
        """Read a FULL record followed by DELT records."""
        full: np.ndarray | None = None
        deltas: list[EncodedIteration] = []
        last_reps: np.ndarray | None = None
        for tag, payload in self.records(strict=strict):
            if tag == TAG_FULL:
                if full is not None:
                    raise FormatError("multiple FULL records in one chain file")
                full = decode_full_bytes(payload)
            elif tag == TAG_DELTA:
                if full is None:
                    raise FormatError("DELT record before FULL record")
                enc = decode_delta_bytes(payload, prev_reps=last_reps)
                last_reps = enc.representatives
                deltas.append(enc)
            else:
                raise FormatError(f"unknown record tag {tag!r}")
        if full is None:
            raise FormatError("checkpoint file has no FULL record")
        return full, deltas


def _write_chain(f: CheckpointFile, chain: CheckpointChain) -> None:
    f.write_full(chain.full_checkpoint)
    for enc in chain.deltas:
        f.write_delta(enc)


def chain_to_bytes(chain: CheckpointChain) -> bytes:
    """Serialise a chain to container bytes (same layout as
    :func:`save_chain` writes to disk, byte for byte).

    The in-memory twin of :func:`save_chain`, used by the compression
    service to stream a chain down an HTTP response without touching the
    filesystem.
    """
    buf = io.BytesIO()
    with get_telemetry().span("io.chain_to_bytes",
                              records=1 + len(chain.deltas)) as sp:
        _write_chain(CheckpointFile.from_handle(buf), chain)
        data = buf.getvalue()
        sp.set(bytes_out=len(data))
    return data


def chain_from_bytes(data: bytes,
                     config: NumarckConfig | None = None) -> CheckpointChain:
    """Rebuild a :class:`CheckpointChain` from container bytes.

    The in-memory twin of :func:`load_chain` (strict mode: any damage
    raises :class:`~repro.errors.FormatError` -- bytes received over a
    checksummed transport have no torn-tail story to salvage).
    """
    buf = io.BytesIO(data)
    with get_telemetry().span("io.chain_from_bytes",
                              bytes_in=len(data)) as sp:
        _check_header(buf, "<bytes>")
        f = CheckpointFile(buf, "r", owns_handle=False)
        full, deltas = f.read_chain()
        sp.set(records=1 + len(deltas))
    return _rebuild_chain(full, deltas, config)


def salvage_truncate(path: str | Path) -> SalvageReport:
    """Truncate ``path`` in place to its longest valid record prefix.

    Unlike :meth:`CheckpointFile.append`, this is a repair tool: it cuts
    at the *first* damaged record even when intact-looking records follow
    (they decode against an untrusted base, so they are unusable anyway).
    Returns a :class:`SalvageReport`; a clean file is left untouched.
    """
    fh = open(path, "r+b")
    try:
        _check_header(fh, path)
        end = HEADER_SIZE
        kept = 0
        reason = None
        try:
            for _tag, _payload in _iter_frames(fh):
                end = fh.tell()
                kept += 1
        except _ScanFailure as exc:
            reason = exc.reason
        file_size = os.fstat(fh.fileno()).st_size
        truncated = file_size - end
        if truncated:
            fh.truncate(end)
            fh.flush()
            os.fsync(fh.fileno())
    finally:
        fh.close()
    if truncated:
        get_telemetry().metrics.counter("io.records_salvaged").inc(kept)
    return SalvageReport(path=str(path), records_kept=kept,
                         records_dropped=1 if truncated else 0,
                         bytes_truncated=truncated, reason=reason)


def save_chain(path: str | Path, chain: CheckpointChain, *,
               durable: bool = True) -> int:
    """Write a :class:`CheckpointChain` to ``path``; returns bytes written.

    With ``durable`` (the default) the file is produced via
    :func:`~repro.io.durable.atomic_write` under
    :func:`~repro.io.durable.retry_io`: the previous contents of ``path``
    survive any mid-write crash, and transient ``OSError``\\ s are retried
    with backoff.
    """

    def _write_all() -> None:
        if durable:
            with atomic_write(path) as fh:
                _write_chain(CheckpointFile.from_handle(fh), chain)
        else:
            with CheckpointFile.create(path) as f:
                _write_chain(f, chain)

    with get_telemetry().span("io.save_chain", records=1 + len(chain.deltas),
                              durable=durable) as sp:
        if durable:
            retry_io(_write_all)
        else:
            _write_all()
        nbytes = Path(path).stat().st_size
        sp.set(bytes_out=nbytes)
    return nbytes


def _rebuild_chain(full: np.ndarray, deltas: list[EncodedIteration],
                   config: NumarckConfig | None) -> CheckpointChain:
    chain = CheckpointChain(full, config)
    chain._deltas = deltas  # noqa: SLF001 - same-module rebuild of private state
    # Restore the running reference so further appends are well-defined.
    state = full.copy()
    for enc in deltas:
        state = decode_iteration(state, enc)
    chain._ref = state  # noqa: SLF001
    # Resume model reuse across a save/load cycle: prime the adaptive
    # cache with the last stored table (conservative zero baseline).
    adaptive = chain._adaptive  # noqa: SLF001
    if adaptive is not None and deltas and deltas[-1].representatives.size:
        from repro.core.strategies.base import BinModel

        adaptive.seed(BinModel(deltas[-1].representatives))
    return chain


def load_chain(path: str | Path,
               config: NumarckConfig | None = None,
               recover: str | None = None):
    """Rebuild a :class:`CheckpointChain` from ``path``.

    The returned chain can be reconstructed at any iteration; appending to
    it continues from the last stored iteration's *decoded* state under
    ``reference="reconstructed"``, or from the decoded state treated as
    original under the default mode (the true originals are not stored).

    With ``recover="tail"`` a torn trailing record is dropped instead of
    raising, and the call returns ``(chain, SalvageReport)`` -- the
    longest valid prefix plus what was lost.  Interior corruption still
    raises :class:`FormatError`; a file with no salvageable prefix at all
    (bad header, no FULL record) raises :class:`SalvageError`.
    """
    if recover not in (None, "tail"):
        raise ValueError(f"unknown recover mode {recover!r}")
    tel = get_telemetry()
    if recover is None:
        with tel.span("io.load_chain") as sp:
            with CheckpointFile.open(path) as f:
                full, deltas = f.read_chain()
            sp.set(records=1 + len(deltas),
                   bytes_in=Path(path).stat().st_size)
            return _rebuild_chain(full, deltas, config)

    with tel.span("io.load_chain", recover="tail") as sp:
        try:
            f = CheckpointFile.open(path)
        except FormatError as exc:
            raise SalvageError(f"{path}: nothing to salvage: {exc}") from exc
        with f:
            try:
                full, deltas = f.read_chain(strict=False)
            except FormatError as exc:
                if f.valid_end == HEADER_SIZE:
                    # Not even the FULL record survived.
                    raise SalvageError(
                        f"{path}: nothing to salvage: {exc}") from exc
                raise
            file_size = os.fstat(f._fh.fileno()).st_size  # noqa: SLF001
            truncated = file_size - f.valid_end
            report = SalvageReport(
                path=str(path),
                records_kept=1 + len(deltas),
                records_dropped=1 if truncated else 0,
                bytes_truncated=truncated,
                reason=f.damage[0] if f.damage else None,
            )
        sp.set(records=report.records_kept, bytes_in=f.valid_end)
        if truncated:
            tel.metrics.counter("io.records_salvaged").inc(report.records_kept)
        return _rebuild_chain(full, deltas, config), report
