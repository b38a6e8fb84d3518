"""Multi-variable checkpoint recording and restart."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.checkpoint import CheckpointChain
from repro.errors import StateError
from repro.core.config import NumarckConfig
from repro.core.varset import VariableSet
from repro.io.container import ChainWriter, WriteHook
from repro.io.durable import retry_io
from repro.simulations.base import Simulation
from repro.telemetry.tracer import get_telemetry

__all__ = ["RestartManager", "RestartExperiment", "RestartRecord"]


class RestartManager(VariableSet):
    """Record a simulation's checkpoints into per-variable NUMARCK chains.

    A thin restart-flavoured view of :class:`~repro.core.varset.VariableSet`:
    ``record`` appends the current simulation state, and
    ``restart_state(i)`` decodes the full multi-variable state at
    checkpoint ``i`` (0 = the initial full checkpoint).  ``save``/``load``
    persist all chains in one container file;
    ``persist_incremental(path_fn)`` instead appends only the records not
    yet on disk -- O(1) per checkpoint -- with per-record ``fsync``,
    through one :class:`~repro.io.container.ChainWriter` per variable.
    """

    def __init__(self, variables: tuple[str, ...],
                 config: NumarckConfig | None = None) -> None:
        super().__init__(variables, config)
        #: per-variable chain-file writers (see ``persist_incremental``).
        self._writers: dict[str, ChainWriter] = {}
        #: records per variable the files share with the chains while no
        #: writer is held (adopted, or committed before ``close_writers``).
        self._committed: dict[str, int] = {}

    @classmethod
    def from_chains(cls, chains: dict[str, CheckpointChain],
                    config: NumarckConfig | None = None) -> "RestartManager":
        """Resume recording on already-built chains (e.g. loaded, and
        possibly truncated, after a crash).

        The adopted chain lengths mark how many on-disk records per
        variable are trusted: a later ``persist_incremental`` cuts each
        file back to that point before appending, so records the restarted
        run re-computes never mix with stale ones.  A file that is missing
        or holds fewer records raises.
        """
        if not chains:
            raise ValueError("need at least one chain to adopt")
        manager = cls(tuple(chains), config)
        manager._chains = dict(chains)
        manager._committed = {v: len(c) for v, c in chains.items()}
        return manager

    def restart_state(self, iteration: int | None = None
                      ) -> dict[str, np.ndarray]:
        """Decode every variable at ``iteration`` (None = latest)."""
        return self.reconstruct(iteration)

    # -- incremental persistence -------------------------------------------

    def persist_incremental(self, path_fn: Callable[[str], str | Path], *,
                            write_hook: WriteHook | None = None,
                            sync: bool = True) -> int:
        """Append every not-yet-persisted record to per-variable files.

        ``path_fn`` maps a variable name to its chain file.  A fresh
        manager's first call creates the files, replacing stale ones; a
        later writer re-opens them, cutting any torn tail and any record
        beyond what the manager committed or :meth:`from_chains` adopted.
        Each new checkpoint then costs one appended, ``fsync``\\ ed record
        per variable.  Transient ``OSError``\\ s are retried with backoff;
        on any other failure the writers are closed, and the next call
        writes only the records still missing.  Returns the number of
        records appended.
        """
        if self._chains is None:
            raise StateError("no checkpoints recorded yet")
        appended = 0
        with get_telemetry().span("restart.persist_incremental",
                                  n_variables=len(self.variables)) as sp:
            try:
                for v in self.variables:
                    chain = self._chains[v]
                    payloads = chain.payloads
                    w = self._writers.get(v)
                    if w is None:
                        w = self._writers[v] = ChainWriter(
                            path_fn(v), self._committed.get(v, 0),
                            write_hook=write_hook, sync=sync)
                    while w.committed < len(chain):
                        retry_io(lambda: w.write_full(chain.full_payload)
                                 if w.committed == 0 else
                                 w.write_delta(payloads[w.committed - 1]))
                        appended += 1
            except BaseException:
                self.close_writers()
                raise
            sp.set(records_appended=appended)
        return appended

    def close_writers(self) -> None:
        """Close the files ``persist_incremental`` holds open; its next
        call re-opens them and appends."""
        writers, self._writers = self._writers, {}
        for v, w in writers.items():
            self._committed[v] = w.committed
            w.close()


@dataclass
class RestartRecord:
    """Per-variable error trajectory of one restart run.

    ``mean_errors[v][t]`` / ``max_errors[v][t]`` are the mean/max relative
    error of variable ``v`` at the ``t``-th checkpoint after restart,
    measured against the fault-free reference trajectory.
    """

    restart_point: int
    mean_errors: dict[str, list[float]] = field(default_factory=dict)
    max_errors: dict[str, list[float]] = field(default_factory=dict)


def _relative_error(ref: np.ndarray, got: np.ndarray) -> tuple[float, float]:
    """Mean and max |got - ref| / |ref| with zero-reference points skipped."""
    r = np.asarray(ref, dtype=np.float64).ravel()
    g = np.asarray(got, dtype=np.float64).ravel()
    nz = r != 0
    if not nz.any():
        return 0.0, 0.0
    err = np.abs((g[nz] - r[nz]) / r[nz])
    return float(err.mean()), float(err.max())


class RestartExperiment:
    """The paper's Fig. 8 harness.

    Given a factory producing *identical* simulations, the experiment:

    1. runs the reference simulation for ``n_record + n_continue``
       checkpoints, recording the first ``n_record + 1`` states into
       compressed chains;
    2. for each requested restart point ``s``, builds a twin simulation,
       restores it from the *reconstructed* checkpoint ``s``, and advances
       it through the remaining checkpoints;
    3. reports mean/max relative error of every tracked variable at each
       post-restart checkpoint against the reference trajectory.
    """

    def __init__(self, sim_factory, variables: tuple[str, ...],
                 config: NumarckConfig | None = None,
                 record_variables: tuple[str, ...] | None = None) -> None:
        self.sim_factory = sim_factory
        #: variables whose restart error is tracked
        self.variables = tuple(variables)
        #: variables recorded into chains (must cover what ``restore`` needs);
        #: defaults to the tracked set.  Tracked-only variables need no
        #: chain: errors are measured against the live simulation output.
        self.record_variables = tuple(record_variables) if record_variables \
            else tuple(variables)
        self.config = config if config is not None else NumarckConfig()

    def run(self, restart_points: tuple[int, ...], n_record: int,
            n_continue: int) -> list[RestartRecord]:
        if min(restart_points) < 0 or max(restart_points) > n_record:
            raise ValueError("restart points must lie within the recorded range")
        # Reference trajectory (also drives the chains).
        ref_sim: Simulation = self.sim_factory()
        manager = RestartManager(self.record_variables, self.config)
        reference: list[dict[str, np.ndarray]] = []
        state = ref_sim.checkpoint()
        manager.record({v: state[v] for v in self.record_variables})
        reference.append(state)
        for i in range(n_record + n_continue):
            ref_sim.advance()
            state = ref_sim.checkpoint()
            if i < n_record:
                manager.record({v: state[v] for v in self.record_variables})
            reference.append(state)

        records: list[RestartRecord] = []
        for s in restart_points:
            twin: Simulation = self.sim_factory()
            twin.restore(manager.restart_state(s))  # type: ignore[attr-defined]
            record = RestartRecord(restart_point=s)
            for v in self.variables:
                record.mean_errors[v] = []
                record.max_errors[v] = []
            for t in range(s + 1, len(reference)):
                twin.advance()
                got = twin.checkpoint()
                for v in self.variables:
                    mean_e, max_e = _relative_error(reference[t][v], got[v])
                    record.mean_errors[v].append(mean_e)
                    record.max_errors[v].append(max_e)
            records.append(record)
        return records
