"""Multi-variable checkpoint files.

A real FLASH checkpoint holds *all* variables in one file; this module
stores a whole ``{variable: CheckpointChain}`` set in a single framed
container.  Two additional record tags carry a variable-name prefix:

* ``NFUL`` -- named full checkpoint: ``name_len:u8 name payload``
* ``NDEL`` -- named delta: same prefix, then a standard delta payload.

Records may be interleaved arbitrarily (e.g. appended iteration by
iteration across variables); per-variable order is preserved.  Each
variable's first record must be its ``NFUL``.

Durability follows :mod:`repro.io.container`: :func:`save_chains` is an
atomic whole-file replace, :meth:`MultiChainWriter.append` adds records in
place with per-record ``fsync``, and :func:`load_chains` with
``recover="tail"`` salvages the longest valid prefix of a torn file.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from repro.core.checkpoint import CheckpointChain
from repro.core.config import NumarckConfig
from repro.errors import FormatError, SalvageError, SalvageReport
from repro.io.container import HEADER_SIZE, CheckpointFile, WriteHook
from repro.io.durable import atomic_write, retry_io
from repro.io.format import (
    decode_delta_bytes,
    decode_full_bytes,
    encode_delta_bytes,
    encode_full_bytes,
    peek_delta_table,
)

__all__ = ["save_chains", "load_chains", "MultiChainWriter"]

TAG_NAMED_FULL = b"NFUL"
TAG_NAMED_DELTA = b"NDEL"


def _named(name: str, payload: bytes) -> bytes:
    raw = name.encode("utf-8")
    if not raw:
        raise FormatError("variable name must be non-empty")
    if len(raw) > 255:
        raise FormatError(f"variable name too long: {name!r}")
    return struct.pack("<B", len(raw)) + raw + payload


def _split_named(payload: bytes) -> tuple[str, bytes]:
    if not payload:
        raise FormatError("empty named record")
    (nlen,) = struct.unpack_from("<B", payload, 0)
    if len(payload) < 1 + nlen:
        raise FormatError("truncated variable name")
    name = payload[1 : 1 + nlen].decode("utf-8")
    return name, payload[1 + nlen :]


class MultiChainWriter:
    """Streaming writer for multi-variable checkpoint files.

    Intended for in-situ use: write each variable's full checkpoint once,
    then append deltas as the simulation produces iterations::

        with MultiChainWriter.create(path) as w:
            for name, data in first_checkpoint.items():
                w.write_full(name, data)
            ...
            w.write_delta(name, encoded)
    """

    def __init__(self, inner: CheckpointFile) -> None:
        self._inner = inner
        self._seen_full: set[str] = set()
        #: per-variable table-dedup anchor (last written delta's table).
        self._last_reps: dict[str, np.ndarray] = {}

    @classmethod
    def create(cls, path: str | Path, *,
               write_hook: WriteHook | None = None,
               sync: bool = False) -> "MultiChainWriter":
        return cls(CheckpointFile.create(path, write_hook=write_hook,
                                         sync=sync))

    @classmethod
    def append(cls, path: str | Path, *,
               write_hook: WriteHook | None = None,
               sync: bool = True) -> "MultiChainWriter":
        """Open an existing multi-variable file for crash-consistent
        appending (torn tails are truncated, see
        :meth:`CheckpointFile.append`); replays the surviving records so
        per-variable full/delta bookkeeping continues correctly."""
        seen: set[str] = set()
        last_reps: dict[str, np.ndarray] = {}
        with CheckpointFile.open(path) as reader:
            for tag, payload in reader.records(strict=False):
                if tag == TAG_NAMED_FULL:
                    name, _ = _split_named(payload)
                    seen.add(name)
                elif tag == TAG_NAMED_DELTA:
                    # Rebuild each variable's table-dedup anchor so new
                    # reuse-hit deltas keep eliding repeated tables.
                    name, body = _split_named(payload)
                    last_reps[name] = peek_delta_table(body,
                                                       last_reps.get(name))
                else:
                    raise FormatError(
                        f"unexpected record tag {tag!r} in multi-chain file"
                    )
        writer = cls(CheckpointFile.append(path, write_hook=write_hook,
                                           sync=sync))
        writer._seen_full = seen
        writer._last_reps = last_reps
        return writer

    def write_full(self, name: str, data: np.ndarray) -> None:
        if name in self._seen_full:
            raise FormatError(f"variable {name!r} already has a full record")
        self._seen_full.add(name)
        self._inner.write_record(TAG_NAMED_FULL,
                                 _named(name, encode_full_bytes(data)))

    def write_delta(self, name: str, encoded) -> None:
        if name not in self._seen_full:
            raise FormatError(f"variable {name!r} has no full record yet")
        prev = self._last_reps.get(name)
        ref = bool(
            encoded.model_reused
            and prev is not None
            and encoded.representatives.size == prev.size
            and np.array_equal(encoded.representatives, prev)
        )
        self._inner.write_record(
            TAG_NAMED_DELTA,
            _named(name, encode_delta_bytes(encoded, table_ref=ref)))
        if not ref:
            self._last_reps[name] = np.asarray(encoded.representatives,
                                               dtype=np.float64).copy()

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "MultiChainWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _write_interleaved(w: MultiChainWriter,
                       chains: dict[str, CheckpointChain]) -> None:
    for name, chain in chains.items():
        w.write_full(name, chain.full_checkpoint)
    depth = max(len(c.deltas) for c in chains.values())
    for i in range(depth):
        for name, chain in chains.items():
            if i < len(chain.deltas):
                w.write_delta(name, chain.deltas[i])


def save_chains(path: str | Path, chains: dict[str, CheckpointChain], *,
                durable: bool = True) -> int:
    """Write a set of chains into one file; returns bytes written.

    Records are interleaved by iteration (all variables' fulls, then every
    variable's delta 1, delta 2, ...), matching how an in-situ writer would
    append them.  With ``durable`` (the default) the file is replaced
    atomically and transient ``OSError``\\ s are retried, so a crash never
    destroys the previous checkpoint set.
    """
    if not chains:
        raise FormatError("no chains to save")

    def _write_all() -> None:
        if durable:
            with atomic_write(path) as fh:
                inner = CheckpointFile.from_handle(fh)
                _write_interleaved(MultiChainWriter(inner), chains)
        else:
            with MultiChainWriter.create(path) as w:
                _write_interleaved(w, chains)

    if durable:
        retry_io(_write_all)
    else:
        _write_all()
    return Path(path).stat().st_size


def load_chains(path: str | Path,
                config: NumarckConfig | None = None,
                recover: str | None = None):
    """Read a multi-variable checkpoint file back into chains.

    With ``recover="tail"`` a torn trailing record is dropped instead of
    raising and the call returns ``(chains, SalvageReport)``.  Because a
    torn tail can cut mid-iteration, the surviving chains may differ in
    length by one; callers resuming a run should truncate them to the
    shortest (see :meth:`CheckpointChain.truncate`).  Interior corruption
    still raises :class:`FormatError`; a file with no salvageable records
    raises :class:`SalvageError`.
    """
    if recover not in (None, "tail"):
        raise ValueError(f"unknown recover mode {recover!r}")
    fulls: dict[str, np.ndarray] = {}
    deltas: dict[str, list] = {}

    if recover is None:
        f = CheckpointFile.open(path)
    else:
        try:
            f = CheckpointFile.open(path)
        except FormatError as exc:
            raise SalvageError(f"{path}: nothing to salvage: {exc}") from exc
    with f:
        try:
            for tag, payload in f.records(strict=recover is None):
                if tag == TAG_NAMED_FULL:
                    name, body = _split_named(payload)
                    if name in fulls:
                        raise FormatError(
                            f"duplicate full record for {name!r}")
                    fulls[name] = decode_full_bytes(body)
                    deltas[name] = []
                elif tag == TAG_NAMED_DELTA:
                    name, body = _split_named(payload)
                    if name not in fulls:
                        raise FormatError(
                            f"delta for unknown variable {name!r}")
                    prior = deltas[name]
                    prev_reps = prior[-1].representatives if prior else None
                    deltas[name].append(
                        decode_delta_bytes(body, prev_reps=prev_reps))
                else:
                    raise FormatError(
                        f"unexpected record tag {tag!r} in multi-chain file"
                    )
        except FormatError as exc:
            if recover is not None and f.valid_end == HEADER_SIZE:
                raise SalvageError(
                    f"{path}: nothing to salvage: {exc}") from exc
            raise
        if not fulls:
            if recover is not None:
                raise SalvageError(f"{path}: nothing to salvage: "
                                   f"multi-chain file has no records")
            raise FormatError("multi-chain file has no records")
        if recover is not None:
            file_size = os.fstat(f._fh.fileno()).st_size  # noqa: SLF001
            truncated = file_size - f.valid_end
            n_records = len(fulls) + sum(len(d) for d in deltas.values())
            report = SalvageReport(
                path=str(path),
                records_kept=n_records,
                records_dropped=1 if truncated else 0,
                bytes_truncated=truncated,
                reason=f.damage[0] if f.damage else None,
            )
    chains = {name: CheckpointChain.resume(full, deltas[name], config)
              for name, full in fulls.items()}
    if recover is None:
        return chains
    return chains, report
