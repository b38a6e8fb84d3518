"""Fault injection: crash-and-restart runs driven by persisted chains.

Models the paper's operational scenario: a long simulation checkpoints
every interval; the system crashes at scheduled points; each time, the
simulation is rebuilt from scratch and restored from the latest decoded
checkpoint on disk, then continues.  The harness verifies the run reaches
the target iteration and reports how far the crash-recovered trajectory
drifted from a fault-free reference.

Two fault families compose:

* :class:`FaultInjector` crashes the run *between* persists (the seed
  behaviour): everything on disk is intact, recovery is a plain reload.
* :class:`DiskFaultInjector` injects faults *inside* the persistence
  write path, through :class:`~repro.io.container.CheckpointFile`'s
  injectable write hook: a torn write (process dies mid-record, leaving a
  partial frame on disk), a bit flip in flushed bytes, or a transient
  ``OSError``.  Transient errors are absorbed by the retry layer; torn
  writes force recovery through the salvage path
  (``load_chain(..., recover="tail")``), which keeps every
  already-persisted checkpoint and loses at most the one being written.

A third family lives in :mod:`repro.parallel.faults`:
:class:`~repro.parallel.faults.RankFaultInjector` strikes the
*communication* path of distributed encoding (rank crash, hang, message
drop, bit flip, transient I/O error) the same way
:class:`DiskFaultInjector` strikes the persistence path -- same 1-based
fire-once schedules, same injectable-hook design.  The two compose: a
simulation can lose a rank mid-encode, complete the checkpoint degraded,
and then tear the write persisting it.

Persistence is incremental (:meth:`RestartManager.persist_incremental`):
each checkpoint appends O(1) fsynced records per variable instead of
rewriting the whole file, so a run of ``n`` checkpoints costs O(n) record
writes rather than the O(n^2) of repeated full rewrites.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.core.config import NumarckConfig
from repro.errors import SalvageReport
from repro.io.container import load_chain
from repro.restart.manager import RestartManager, _relative_error

__all__ = ["FaultSchedule", "FaultInjector", "DiskFaultInjector",
           "CrashDuringWrite", "FaultRunResult", "run_with_faults"]


class CrashDuringWrite(RuntimeError):
    """Simulated process death in the middle of a checkpoint write.

    Deliberately *not* an ``OSError``: the retry/rollback machinery must
    treat it as a hard crash, leaving whatever partial bytes reached the
    disk exactly where they are (a torn tail for salvage to find).
    """


@dataclass(frozen=True)
class FaultSchedule:
    """Checkpoint indices (1-based intervals) at which the run crashes."""

    crash_at: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.crash_at):
            raise ValueError("crash points must be >= 1")
        if len(set(self.crash_at)) != len(self.crash_at):
            raise ValueError("duplicate crash points")


class FaultInjector:
    """Decides whether a crash fires after a given checkpoint."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._fired: set[int] = set()

    def crashes_after(self, checkpoint_index: int) -> bool:
        """True exactly once per scheduled crash point."""
        if checkpoint_index in self.schedule.crash_at and \
                checkpoint_index not in self._fired:
            self._fired.add(checkpoint_index)
            return True
        return False


class DiskFaultInjector:
    """Write hook that damages checkpoint record writes on schedule.

    Record writes are counted across every file the run touches (1-based,
    including retried writes); the ``*_at`` schedules name the counts at
    which a fault fires, each at most once:

    * ``torn_at`` -- write only ``torn_fraction`` of the record's bytes,
      flush and fsync them (they really reach the disk), then raise
      :class:`CrashDuringWrite`: the process "dies" mid-record.
    * ``flip_at`` -- flip one bit in the record's bytes before writing;
      the damage is silent until a CRC check reads it back.
    * ``error_at`` -- raise a transient ``OSError`` (``EIO``) instead of
      writing; a retry of the same record then succeeds.

    Pass ``hook`` as the ``write_hook`` of
    :class:`~repro.io.container.CheckpointFile` (or through
    :func:`run_with_faults`, which wires it into the persist path).
    """

    def __init__(self, *, torn_at: tuple[int, ...] = (),
                 flip_at: tuple[int, ...] = (),
                 error_at: tuple[int, ...] = (),
                 torn_fraction: float = 0.5,
                 flip_bit: int = 0) -> None:
        if not 0.0 < torn_fraction < 1.0:
            raise ValueError("torn_fraction must be in (0, 1)")
        if not 0 <= flip_bit <= 7:
            raise ValueError("flip_bit must be a bit index (0-7)")
        self.torn_at = frozenset(torn_at)
        self.flip_at = frozenset(flip_at)
        self.error_at = frozenset(error_at)
        self.torn_fraction = torn_fraction
        self.flip_bit = flip_bit
        self.writes_seen = 0
        self._fired: set[tuple[str, int]] = set()

    def _fires(self, kind: str, n: int, schedule: frozenset[int]) -> bool:
        if n in schedule and (kind, n) not in self._fired:
            self._fired.add((kind, n))
            return True
        return False

    def hook(self, fh: BinaryIO, data: bytes) -> None:
        """The injectable write: called with the full framed record."""
        self.writes_seen += 1
        n = self.writes_seen
        if self._fires("error", n, self.error_at):
            raise OSError(errno.EIO, f"injected transient I/O error "
                                     f"(write {n})")
        if self._fires("flip", n, self.flip_at):
            corrupted = bytearray(data)
            corrupted[len(corrupted) // 2] ^= 1 << self.flip_bit
            data = bytes(corrupted)
        if self._fires("torn", n, self.torn_at):
            cut = max(1, int(len(data) * self.torn_fraction))
            fh.write(data[:cut])
            # The partial frame really lands on disk -- that is the torn
            # tail recovery must cope with.
            fh.flush()
            os.fsync(fh.fileno())
            raise CrashDuringWrite(
                f"torn write: {cut}/{len(data)} bytes of record write {n}"
            )
        fh.write(data)


@dataclass
class FaultRunResult:
    """Outcome of a crash-recovery run."""

    completed: bool
    n_crashes: int
    checkpoints_written: int
    final_mean_error: dict[str, float]
    final_max_error: dict[str, float]
    #: crashes that hit *inside* a write and recovered via torn-tail salvage
    n_salvages: int = 0
    #: checkpoints that had to be recomputed because their records were lost
    checkpoints_lost: int = 0
    #: per-file salvage details for every non-clean recovery
    salvage_reports: tuple[SalvageReport, ...] = ()
    #: total records appended across all persists (the O(n) guarantee)
    records_appended: int = 0


def run_with_faults(
    sim_factory,
    variables: tuple[str, ...],
    n_checkpoints: int,
    schedule: FaultSchedule,
    workdir: str | Path,
    config: NumarckConfig | None = None,
    disk_faults: DiskFaultInjector | None = None,
) -> FaultRunResult:
    """Run ``n_checkpoints`` intervals under a crash schedule.

    Each variable's chain is persisted to ``workdir`` after every
    checkpoint by appending only the new records (per-record fsync); a
    crash destroys the in-memory simulation and manager, and recovery
    reloads the chains from disk with torn-tail salvage, truncates them to
    a common depth, decodes the latest state, and restores a fresh
    simulation from it.  With ``disk_faults``, crashes can also fire *in
    the middle of a record write*: the run then resumes from the last
    durable checkpoint, recomputing at most the checkpoint whose write was
    torn.

    Returns the final per-variable error against a fault-free reference
    run of the same factory.
    """
    cfg = config if config is not None else NumarckConfig()
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    def chain_path(v: str) -> Path:
        return workdir / f"{v}.nmk"

    write_hook = disk_faults.hook if disk_faults is not None else None

    def persist(manager: RestartManager) -> int:
        return manager.persist_incremental(chain_path, write_hook=write_hook)

    def recover() -> tuple[RestartManager, dict[str, np.ndarray], int,
                           list[SalvageReport]]:
        chains = {}
        reports: list[SalvageReport] = []
        for v in variables:
            chain, report = load_chain(chain_path(v), cfg, recover="tail")
            chains[v] = chain
            if not report.clean:
                reports.append(report)
        depth = min(len(c) for c in chains.values())
        for c in chains.values():
            c.truncate(depth)
        state = {v: c.reconstruct() for v, c in chains.items()}
        return (RestartManager.from_chains(chains, cfg), state, depth - 1,
                reports)

    # Fault-free reference trajectory.
    ref = sim_factory()
    for _ in range(n_checkpoints):
        ref.advance()
    ref_final = ref.checkpoint()

    injector = FaultInjector(schedule)
    sim = sim_factory()
    manager = RestartManager(variables, cfg)
    manager.record(sim.checkpoint())
    appended = persist(manager)

    done = 0
    crashes = 0
    salvages = 0
    lost = 0
    salvage_reports: list[SalvageReport] = []
    while done < n_checkpoints:
        sim.advance()
        done += 1
        manager.record(sim.checkpoint())
        died_in_write = False
        try:
            appended += persist(manager)
        except CrashDuringWrite:
            died_in_write = True
        if died_in_write or injector.crashes_after(done):
            crashes += 1
            # Crash: lose all in-memory state.
            del sim, manager
            # Recover from disk through the salvage path.
            manager, state, recovered_at, reports = recover()
            if reports:
                salvages += 1
                salvage_reports.extend(reports)
            lost += done - recovered_at
            done = recovered_at
            sim = sim_factory()
            sim.restore(state)

    manager.close_writers()
    final = sim.checkpoint()
    mean_err: dict[str, float] = {}
    max_err: dict[str, float] = {}
    for v in variables:
        mean_err[v], max_err[v] = _relative_error(ref_final[v], final[v])
    return FaultRunResult(
        completed=done == n_checkpoints,
        n_crashes=crashes,
        checkpoints_written=done + 1,
        final_mean_error=mean_err,
        final_max_error=max_err,
        n_salvages=salvages,
        checkpoints_lost=lost,
        salvage_reports=tuple(salvage_reports),
        records_appended=appended,
    )
