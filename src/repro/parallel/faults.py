"""Rank-level fault injection for the distributed layer.

This is the communication-path sibling of
:class:`repro.restart.faults.DiskFaultInjector`: where that injector
damages checkpoint *writes* through ``CheckpointFile``'s write hook, a
:class:`RankFaultInjector` damages *messages and processes* through
:class:`~repro.parallel.comm.PipeComm`'s injectable comm hook.  Together
they cover the two halves of the paper's operational fault model: the
disk can tear or corrupt a record mid-write, and a rank can die, hang,
or suffer a flaky interconnect mid-collective.

Fault families (mirroring the disk schedule style -- 1-based operation
counts, each trigger fires at most once):

* ``crash`` -- the process dies instantly (``os._exit``), without
  flushing results or closing connections cleanly.  Peers detect the
  death through pipe EOF or the recv deadline.
* ``hang``  -- the rank sleeps ``hang_seconds`` inside the operation;
  peers' deadlines fire long before it wakes.
* ``drop``  -- one framed message silently never reaches the wire; the
  sender's bounded resend recovers it.
* ``flip``  -- one bit of the framed message is inverted in flight; the
  receiver's CRC check rejects it and a NAK-triggered resend recovers.
* ``error`` -- a transient ``OSError`` (EIO) is raised from the comm
  operation; the exponential-backoff retry layer absorbs it.

Each family can be scheduled either by operation count (``crash_at=(3,)``
fires on this rank's third comm operation) or by pipeline phase
(``crash_in_phase="insitu.sample_gather"`` fires on the first operation
inside that phase; phases are declared by the algorithms through
:meth:`~repro.parallel.comm.Comm.phase`).

:class:`RankFailureError` is what a point-to-point operation raises when
its peer is lost: bounded-wait communication turns what would be an
infinite ``Connection.recv`` block into a loud, attributable failure.
The collectives absorb it for every rank but the root, so survivors
finish with the casualty reported; only the loss of rank 0 reaches the
caller.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass

# Canonical definition lives in the unified hierarchy (repro.errors); the
# historical import path is kept as an alias.
from repro.errors import RankFailureError

__all__ = ["RankFailureError", "CommEvent", "RankFaultInjector", "DROP"]

#: Sentinel returned by a comm hook to drop the outgoing message.
DROP = object()

_FAULT_KINDS = ("crash", "hang", "drop", "flip", "error")


@dataclass(frozen=True)
class CommEvent:
    """One communicator operation, as seen by the injectable comm hook.

    ``op`` is ``"send"`` or ``"recv"``; ``peer`` the remote rank;
    ``phase`` the declared pipeline phase; ``data`` the framed bytes
    about to be transmitted (``None`` for receive-side events).
    Send-side events fire once per transmission, so resends are observed
    (and counted) individually, exactly like retried writes in the disk
    injector.
    """

    op: str
    peer: int
    phase: str
    data: bytes | None = None


class RankFaultInjector:
    """Comm hook that injects rank faults on schedule.

    Comm operations on the host rank are counted (1-based, including
    resends and retries); the ``*_at`` schedules name the counts at which
    a fault fires and the ``*_in_phase`` triggers name a pipeline phase
    whose first operation fires it.  Every trigger fires at most once.

    Pass one injector per faulty rank through ``run_spmd(faults={rank:
    injector})``, or directly as the ``fault_injector`` of a
    :class:`~repro.parallel.comm.PipeComm`.  Instances are picklable
    plain data, so they survive the trip into spawned rank processes.
    """

    def __init__(self, *,
                 crash_at: tuple[int, ...] = (),
                 hang_at: tuple[int, ...] = (),
                 drop_at: tuple[int, ...] = (),
                 flip_at: tuple[int, ...] = (),
                 error_at: tuple[int, ...] = (),
                 crash_in_phase: str | None = None,
                 hang_in_phase: str | None = None,
                 drop_in_phase: str | None = None,
                 flip_in_phase: str | None = None,
                 error_in_phase: str | None = None,
                 hang_seconds: float = 3600.0,
                 flip_bit: int = 0,
                 exit_code: int = 41) -> None:
        for name, at in (("crash_at", crash_at), ("hang_at", hang_at),
                         ("drop_at", drop_at), ("flip_at", flip_at),
                         ("error_at", error_at)):
            if any(n < 1 for n in at):
                raise ValueError(f"{name}: operation counts are 1-based")
        if hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        if not 0 <= flip_bit <= 7:
            raise ValueError("flip_bit must be a bit index (0-7)")
        self.crash_at = frozenset(crash_at)
        self.hang_at = frozenset(hang_at)
        self.drop_at = frozenset(drop_at)
        self.flip_at = frozenset(flip_at)
        self.error_at = frozenset(error_at)
        self.crash_in_phase = crash_in_phase
        self.hang_in_phase = hang_in_phase
        self.drop_in_phase = drop_in_phase
        self.flip_in_phase = flip_in_phase
        self.error_in_phase = error_in_phase
        self.hang_seconds = float(hang_seconds)
        self.flip_bit = int(flip_bit)
        self.exit_code = int(exit_code)
        self.ops_seen = 0
        self._fired: set[tuple[str, object]] = set()

    def _fires(self, kind: str, n: int, event: CommEvent) -> bool:
        key: tuple[str, object] | None = None
        if n in getattr(self, f"{kind}_at"):
            key = (kind, n)
        else:
            phase = getattr(self, f"{kind}_in_phase")
            if phase is not None and event.phase == phase:
                key = (kind, phase)
        if key is not None and key not in self._fired:
            self._fired.add(key)
            return True
        return False

    def apply(self, event: CommEvent) -> bytes | None | object:
        """The injectable comm hook: called once per comm operation.

        Returns ``None`` (proceed unchanged), replacement frame bytes
        (send events only), or :data:`DROP` (send events only); may also
        sleep, raise a transient ``OSError``, or kill the process.
        """
        self.ops_seen += 1
        n = self.ops_seen
        if self._fires("crash", n, event):
            # A real crash: no cleanup, no result, connections die with us.
            os._exit(self.exit_code)
        if self._fires("hang", n, event):
            time.sleep(self.hang_seconds)
            return None
        if self._fires("error", n, event):
            raise OSError(errno.EIO,
                          f"injected transient comm error ({event.op} op {n})")
        if event.data is not None:
            if self._fires("drop", n, event):
                return DROP
            if self._fires("flip", n, event):
                corrupted = bytearray(event.data)
                corrupted[len(corrupted) // 2] ^= 1 << self.flip_bit
                return bytes(corrupted)
        return None
