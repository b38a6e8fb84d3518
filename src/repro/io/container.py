"""Framed multi-record checkpoint files.

File layout::

    file  := magic:u8[4] version:u16 record*
    record:= tag:u8[4] payload_len:u64 payload crc32:u32

Tags:

* ``b"FULL"`` (exact checkpoint) and ``b"DELT"`` (encoded iteration): a
  single-chain file is one FULL followed by zero or more DELT records;
* ``b"NFUL"`` and ``b"NDEL"``: the same payloads behind a variable-name
  prefix ``name_len:u8 name``.  A multi-variable file holds one chain per
  variable, like a real FLASH checkpoint file holds every variable.  The
  records may interleave across variables (e.g. appended iteration by
  iteration); each variable's first record is its NFUL;
* ``b"SHDR"`` and ``b"CHNK"``: a streamed iteration
  (:mod:`repro.io.streamed`).

The CRC covers tag + length + payload, so any bit flip or truncation in a
record is caught.  Records are strictly appended.  A chain record holds
the payload its chain built: it is framed, never encoded or decoded,
here.

Durability model
----------------

* :meth:`CheckpointFile.save` -- behind :func:`save_chain`,
  :func:`save_chains` and :func:`~repro.io.streamed.save_streamed` --
  rewrites the whole file through :func:`~repro.io.durable.atomic_write`:
  a crash mid-save leaves the old file intact, never a torn mixture.
* :meth:`CheckpointFile.append` adds records in place with per-record
  ``fsync``: a crash mid-append can only damage the record being written
  (a *torn tail*), never an already-persisted one.
* :meth:`CheckpointFile.records` with ``strict=False`` -- and
  :func:`load_chain` / :func:`load_chains` with ``recover="tail"`` --
  salvage the longest valid record prefix from a torn file instead of
  raising.  Corruption *before* the last record still raises: the delta
  chain after a damaged interior record cannot be trusted.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator

from repro.core.config import NumarckConfig
from repro.errors import FormatError, SalvageError, SalvageReport
from repro.io.durable import atomic_write, retry_io
from repro.io.format import FORMAT_VERSION, MAGIC, SUPPORTED_VERSIONS
from repro.telemetry.tracer import get_telemetry

if TYPE_CHECKING:  # the chain imports the codec, whose package imports us
    from repro.core.checkpoint import CheckpointChain

__all__ = ["CheckpointFile", "ChainWriter", "save_chain", "load_chain",
           "save_chains", "load_chains", "resume_chains", "salvage_truncate",
           "chain_to_bytes", "chain_from_bytes", "WriteHook"]

TAG_FULL = b"FULL"
TAG_DELTA = b"DELT"
TAG_NAMED_FULL = b"NFUL"
TAG_NAMED_DELTA = b"NDEL"

#: length of ``magic + version`` -- the offset of the first record.
HEADER_SIZE = 6

#: signature of an injectable raw-write hook: ``hook(fh, data)`` performs
#: the actual ``fh.write(data)`` (or deliberately fails to, for fault
#: injection).
WriteHook = Callable[[BinaryIO, bytes], None]

#: what :meth:`CheckpointFile.read_chains` returns: ``(full_payload,
#: payloads)`` per chain, keyed by variable name (``None`` for a
#: single-chain file).
Chains = dict[str | None, tuple[bytes, list[bytes]]]


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
        if zlib.crc32(payload, zlib.crc32(head)) != crc:
            raise _ScanFailure(offset,
                               f"CRC mismatch in record (tag {tag!r})",
                               tail=fh.tell() == file_size)
        yield tag, payload


def _salvage_report(path: str | Path, kept: int, end: int, file_size: int,
                    reason: str | None) -> SalvageReport:
    """What a salvage kept (``kept`` records ending at ``end``) and cut."""
    truncated = file_size - end
    if truncated:
        get_telemetry().metrics.counter("io.records_salvaged").inc(kept)
    return SalvageReport(path=str(path), records_kept=kept,
                         records_dropped=1 if truncated else 0,
                         bytes_truncated=truncated, reason=reason)


def _cut_to_valid_prefix(fh: BinaryIO, path: str | Path, *, interior: bool,
                         on_record: Callable[[bytes, bytes], None]
                         | None = None) -> SalvageReport:
    """Truncate ``fh`` just past its last CRC-valid record and leave it
    positioned there; ``on_record(tag, payload)`` sees each kept record.

    A torn tail is always cut.  Damage with file content after it is cut
    too with ``interior`` (a repair), and raises :class:`FormatError`
    otherwise (an append would bury the corruption).
    """
    end, kept, reason = HEADER_SIZE, 0, None
    try:
        for tag, payload in _iter_frames(fh):
            end = fh.tell()
            kept += 1
            if on_record is not None:
                on_record(tag, payload)
    except _ScanFailure as exc:
        if not (exc.tail or interior):
            raise FormatError(
                f"{path}: damaged interior record cannot be repaired by "
                f"appending: {exc.reason}") from None
        reason = exc.reason
    file_size = os.fstat(fh.fileno()).st_size
    if file_size > end:
        fh.truncate(end)
        fh.flush()
        os.fsync(fh.fileno())
    fh.seek(end)
    return _salvage_report(path, kept, end, file_size, reason)


def _tagged(name: str | None, tag: bytes, named_tag: bytes,
            payload: bytes) -> tuple[bytes, bytes]:
    """``(tag, payload)`` of a chain record: as given for a single chain,
    ``named_tag`` with the ``name_len:u8 name`` prefix for a variable."""
    if name is None:
        return tag, payload
    raw = name.encode("utf-8")
    if not raw:
        raise FormatError("variable name must be non-empty")
    if len(raw) > 255:
        raise FormatError(f"variable name too long: {name!r}")
    return named_tag, struct.pack("<B", len(raw)) + raw + payload


def _chain_record(tag: bytes, payload: bytes
                  ) -> tuple[bool, str | None, bytes | memoryview] | None:
    """``(is_full, name, body)`` of a chain record, ``None`` for any other
    tag; ``name`` is ``None`` for FULL/DELT records."""
    if tag in (TAG_FULL, TAG_DELTA):
        return tag == TAG_FULL, None, payload
    if tag not in (TAG_NAMED_FULL, TAG_NAMED_DELTA):
        return None
    if not payload:
        raise FormatError("empty named record")
    nlen = payload[0]
    if len(payload) < 1 + nlen:
        raise FormatError("truncated variable name")
    try:
        name = payload[1 : 1 + nlen].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"corrupt variable name: {exc}") from exc
    return tag == TAG_NAMED_FULL, name, memoryview(payload)[1 + nlen :]


class CheckpointFile:
    """Streaming writer/reader for framed checkpoint records.

    ``write_full``/``write_delta`` with ``name=None`` write a single-chain
    file; with a variable name they write that variable's chain in a
    multi-variable file.
    """

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
        #: a failed write could not roll back: bytes may follow ``end``.
        self.torn = False
        #: record index of each chain's full record, by variable name.
        self._fulls: dict[str | None, int] = {}

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
    def from_handle(cls, fh: BinaryIO) -> "CheckpointFile":
        """Start a checkpoint stream on an already-open writable handle
        (e.g. inside :func:`~repro.io.durable.atomic_write`); the caller
        keeps ownership of the handle."""
        fh.write(MAGIC + struct.pack("<H", FORMAT_VERSION))
        return cls(fh, "w", owns_handle=False)

    @classmethod
    def save(cls, path: str | Path,
             write: Callable[["CheckpointFile"], None],
             span: str, **attrs) -> int:
        """Replace ``path`` with the records ``write`` puts on a fresh
        writer; returns the bytes written.

        The file is produced via :func:`~repro.io.durable.atomic_write`
        under :func:`~repro.io.durable.retry_io`: the previous contents of
        ``path`` survive any mid-write crash, and transient ``OSError``\\ s
        are retried with backoff.  ``span`` names the telemetry span of the
        save (``attrs`` are its attributes).
        """

        def _write_all() -> None:
            with atomic_write(path) as fh:
                write(cls.from_handle(fh))

        with get_telemetry().span(span, **attrs) as sp:
            retry_io(_write_all)
            nbytes = Path(path).stat().st_size
            sp.set(bytes_out=nbytes)
        return nbytes

    @classmethod
    def open(cls, path: str | Path) -> "CheckpointFile":
        """Open an existing checkpoint file for reading (validates header)."""
        return cls._reader(open(path, "rb"), path)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CheckpointFile":
        """Read container bytes held in memory (validates header)."""
        return cls._reader(io.BytesIO(data), "<bytes>")

    @classmethod
    def _reader(cls, fh: BinaryIO, label: str | Path) -> "CheckpointFile":
        try:
            _check_header(fh, label)
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
        The scan parses no payload.

        With ``sync`` (the default) every appended record is flushed and
        ``fsync``\\ ed individually, so a crash can only tear the record
        being written.
        """
        fh = open(path, "r+b")
        try:
            _check_header(fh, path)
            obj = cls(fh, "w", write_hook=write_hook, sync=sync)
            obj.salvage = _cut_to_valid_prefix(fh, path, interior=False,
                                               on_record=obj._found)
        except BaseException:
            fh.close()
            raise
        return obj

    def _found(self, tag: bytes, payload: bytes) -> None:
        """Account for one valid record already in the file."""
        rec = _chain_record(tag, payload)
        if rec is not None and rec[0]:
            self._fulls[rec[1]] = self.n_records
        self.n_records += 1
        self._record_ends.append(self._fh.tell())

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
        head = tag + struct.pack("<Q", len(payload))
        crc = zlib.crc32(payload, zlib.crc32(head))
        data = b"".join((head, payload, struct.pack("<I", crc)))
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
                    self.torn = True
                raise
        tel.metrics.counter("io.bytes_written").inc(len(data))
        self.n_records += 1
        self._record_ends.append(start + len(data))

    @property
    def end(self) -> int:
        """Byte offset just past the last confirmed record."""
        return self._record_ends[-1]

    def truncate_records(self, n: int) -> None:
        """Drop every record after the first ``n`` (writer mode only).

        Used when resuming an append on a file that holds more records
        than the adopted in-memory chain trusts; it reads no record.
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
        self.n_records = n
        del self._record_ends[n + 1:]
        self._fulls = {k: i for k, i in self._fulls.items() if i < n}

    def write_full(self, payload: bytes, name: str | None = None) -> None:
        """Append a full-checkpoint record (of variable ``name``) framing
        ``payload``, as its chain built it."""
        if name is not None and name in self._fulls:
            raise FormatError(f"variable {name!r} already has a full record")
        self.write_record(*_tagged(name, TAG_FULL, TAG_NAMED_FULL, payload))
        self._fulls[name] = self.n_records - 1

    def write_delta(self, payload: bytes, name: str | None = None) -> None:
        """Append a delta record (of variable ``name``) framing ``payload``,
        as its chain built it."""
        if name is not None and name not in self._fulls:
            raise FormatError(f"variable {name!r} has no full record yet")
        self.write_record(*_tagged(name, TAG_DELTA, TAG_NAMED_DELTA, payload))

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

    def read_chains(self, strict: bool = True) -> Chains:
        """Read every chain in the file as ``{name: (full_payload,
        payloads)}``, parsing no payload.

        A single-chain file (FULL/DELT records) reads as ``{None: ...}``,
        a multi-variable file (NFUL/NDEL records) as one entry per
        variable in the order of their full records; their depths may
        differ.  A file mixing the two raises :class:`FormatError`;
        ``strict`` is as in :meth:`records`.
        """
        chains: Chains = {}
        for tag, payload in self.records(strict=strict):
            rec = _chain_record(tag, payload)
            if rec is None:
                raise FormatError(f"unknown record tag {tag!r}")
            is_full, name, body = rec
            if chains and (name is None) != (None in chains):
                raise FormatError("file mixes named and unnamed records")
            what = "the chain" if name is None else f"variable {name!r}"
            if is_full:
                if name in chains:
                    raise FormatError(f"second FULL record for {what}")
                chains[name] = (bytes(body), [])
            elif name not in chains:
                raise FormatError(f"{tag.decode()} record before FULL "
                                  f"record for {what}")
            else:
                chains[name][1].append(bytes(body))
        if not chains:
            raise FormatError("checkpoint file has no FULL record")
        return chains


class ChainWriter:
    """The held append writer of one chain file.

    ``committed`` counts the file's records the caller's chains share.
    With ``0`` the first write creates the file; otherwise it opens it
    with :meth:`CheckpointFile.append` and cuts it back to ``committed``
    records (a file missing or shorter raises).  Each write commits one
    record.  A transient ``OSError`` that rolled back keeps the writer for
    the retry; any other failure closes it, so the next write re-opens and
    cuts again, and a failed first record leaves no file.  ``end`` is the
    committed container length.
    """

    def __init__(self, path: str | Path, committed: int = 0, *,
                 end: int = HEADER_SIZE,
                 write_hook: WriteHook | None = None,
                 sync: bool = True) -> None:
        self.path = Path(path)
        self.committed = committed
        self.end = end
        self._opts = {"write_hook": write_hook, "sync": sync}
        self._writer: CheckpointFile | None = None

    def write_full(self, payload: bytes, name: str | None = None) -> None:
        """Commit a full record, as :meth:`CheckpointFile.write_full`."""
        self._write(lambda w: w.write_full(payload, name))

    def write_delta(self, payload: bytes, name: str | None = None) -> None:
        """Commit a delta record, as :meth:`CheckpointFile.write_delta`."""
        self._write(lambda w: w.write_delta(payload, name))

    def _write(self, write: Callable[[CheckpointFile], None]) -> None:
        try:
            if self._writer is None and self.committed == 0:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._writer = CheckpointFile.create(self.path, **self._opts)
            elif self._writer is None:
                self._writer = CheckpointFile.append(self.path, **self._opts)
                self._writer.truncate_records(self.committed)
            write(self._writer)
        except BaseException as exc:
            w = self._writer
            if not (isinstance(exc, OSError) and self.committed and w
                    and not w.torn and w.n_records == self.committed):
                self.close()
                if self.committed == 0:
                    with contextlib.suppress(OSError):
                        self.path.unlink(missing_ok=True)
            raise
        self.committed += 1
        self.end = self._writer.end

    def container_bytes(self) -> bytes:
        """The committed container: never a torn or rolled-back record."""
        with open(self.path, "rb") as fh:
            return fh.read(self.end)

    def close(self) -> None:
        """Close the file's writer (best effort: its records are already
        written); the next write re-opens the file."""
        if self._writer is not None:
            writer, self._writer = self._writer, None
            with contextlib.suppress(OSError):
                writer.close()


def _single_chain(chains: Chains, source: str | Path
                  ) -> tuple[bytes, list[bytes]]:
    if None not in chains:
        raise FormatError(f"{source}: multi-variable file ({len(chains)} "
                          f"variables); read it with load_chains")
    return chains[None]


def _read_file(path: str | Path, recover: str | None
               ) -> tuple[Chains, SalvageReport | None]:
    """:meth:`CheckpointFile.read_chains` of ``path``: strict when
    ``recover`` is ``None``, else salvaging a torn tail and reporting it."""
    if recover not in (None, "tail"):
        raise ValueError(f"unknown recover mode {recover!r}")
    strict = recover is None
    try:
        f = CheckpointFile.open(path)
    except FormatError as exc:
        if strict:
            raise
        raise SalvageError(f"{path}: nothing to salvage: {exc}") from exc
    with f:
        try:
            chains = f.read_chains(strict=strict)
        except FormatError as exc:
            if strict or f.valid_end > HEADER_SIZE:
                raise
            # Not even the first record survived.
            raise SalvageError(f"{path}: nothing to salvage: {exc}") from exc
        if strict:
            return chains, None
        kept = sum(1 + len(payloads) for _full, payloads in chains.values())
        return chains, _salvage_report(
            path, kept, f.valid_end, _stream_size(f._fh),
            f.damage[0] if f.damage else None)


def _write_chains(f: CheckpointFile,
                  chains: dict[str | None, CheckpointChain]) -> None:
    """Every full record, then the deltas interleaved by iteration (each
    chain's delta 1, then delta 2, ...) -- the order an in-situ writer
    appends them in."""
    for name, chain in chains.items():
        f.write_full(chain.full_payload, name)
    payloads = {name: chain.payloads for name, chain in chains.items()}
    for i in range(max(map(len, payloads.values()))):
        for name, held in payloads.items():
            if i < len(held):
                f.write_delta(held[i], name)


def chain_to_bytes(chain: CheckpointChain) -> bytes:
    """Serialise a chain to container bytes: the in-memory twin of
    :func:`save_chain`, byte for byte."""
    buf = io.BytesIO()
    with get_telemetry().span("io.chain_to_bytes", records=len(chain)) as sp:
        _write_chains(CheckpointFile.from_handle(buf), {None: chain})
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
    with get_telemetry().span("io.chain_from_bytes",
                              bytes_in=len(data)) as sp:
        chains = CheckpointFile.from_bytes(data).read_chains()
        sp.set(records=1 + len(_single_chain(chains, "<bytes>")[1]))
    return resume_chains(chains, config)[None]


def salvage_truncate(path: str | Path) -> SalvageReport:
    """Truncate ``path`` in place to its longest valid record prefix.

    Unlike :meth:`CheckpointFile.append`, this is a repair tool: it cuts
    at the *first* damaged record even when intact-looking records follow
    (they decode against an untrusted base, so they are unusable anyway).
    Returns a :class:`SalvageReport`; a clean file is left untouched.
    """
    with open(path, "r+b") as fh:
        _check_header(fh, path)
        return _cut_to_valid_prefix(fh, path, interior=True)


def save_chain(path: str | Path, chain: CheckpointChain) -> int:
    """Write a :class:`CheckpointChain` to ``path`` atomically (see
    :meth:`CheckpointFile.save`); returns bytes written."""
    return CheckpointFile.save(path, lambda f: _write_chains(f, {None: chain}),
                               "io.save_chain", records=len(chain))


def save_chains(path: str | Path, chains: dict[str, CheckpointChain]) -> int:
    """Write a set of named chains into one multi-variable file atomically
    (see :meth:`CheckpointFile.save`); returns bytes written.

    Records are interleaved by iteration (all variables' fulls, then every
    variable's delta 1, delta 2, ...), matching how an in-situ writer
    would append them.
    """
    if not chains:
        raise FormatError("no chains to save")
    return CheckpointFile.save(path, lambda f: _write_chains(f, chains),
                               "io.save_chains",
                               records=sum(len(c) for c in chains.values()))


def resume_chains(chains: Chains, config: NumarckConfig | None = None
                  ) -> dict[str | None, CheckpointChain]:
    """One :class:`CheckpointChain` per entry of
    :meth:`CheckpointFile.read_chains`, ready to append to (see
    :meth:`CheckpointChain.resume`)."""
    from repro.core.checkpoint import CheckpointChain

    return {name: CheckpointChain.resume(full, payloads, config)
            for name, (full, payloads) in chains.items()}


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
    with get_telemetry().span("io.load_chain", recover=recover) as sp:
        chains, report = _read_file(path, recover)
        payloads = _single_chain(chains, path)[1]
        nbytes = Path(path).stat().st_size
        sp.set(records=1 + len(payloads),
               bytes_in=nbytes - (report.bytes_truncated if report else 0))
        chain = resume_chains(chains, config)[None]
    return chain if report is None else (chain, report)


def load_chains(path: str | Path,
                config: NumarckConfig | None = None,
                recover: str | None = None):
    """Read a multi-variable checkpoint file back into ``{name: chain}``.

    With ``recover="tail"`` a torn trailing record is dropped instead of
    raising and the call returns ``(chains, SalvageReport)``.  Because a
    torn tail can cut mid-iteration, the surviving chains may differ in
    length by one; callers resuming a run should truncate them to the
    shortest (see :meth:`CheckpointChain.truncate`).  Interior corruption
    still raises :class:`FormatError`; a file with no salvageable records
    raises :class:`SalvageError`.
    """
    chains, report = _read_file(path, recover)
    if None in chains:
        raise FormatError(f"{path}: single-chain file; read it with "
                          f"load_chain")
    out = resume_chains(chains, config)
    return out if report is None else (out, report)
