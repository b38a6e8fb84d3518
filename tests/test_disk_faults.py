"""Fault injection *inside* the persistence write path.

The acceptance scenario for crash-consistent checkpointing: a process that
dies halfway through writing a record must, on restart, recover every
checkpoint that was already durable -- losing at most the one being
written -- and leave files that verify clean afterwards.
"""

import errno

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import CheckpointChain, FormatError, NumarckConfig
from repro.io import CheckpointFile, chain_to_bytes, load_chain
from repro.restart import (
    CrashDuringWrite,
    DiskFaultInjector,
    FaultSchedule,
    RestartManager,
    run_with_faults,
)

VARS = ("a", "b")


class ToySim:
    """Deterministic two-variable simulation: cheap and exactly replayable."""

    def __init__(self):
        self.state = {"a": np.linspace(1.0, 2.0, 150),
                      "b": np.linspace(2.0, 3.0, 150)}

    def advance(self):
        for k in self.state:
            self.state[k] = self.state[k] * 1.001 + 1e-4

    def checkpoint(self):
        return {k: v.copy() for k, v in self.state.items()}

    def restore(self, state):
        self.state = {k: np.asarray(v, dtype=np.float64).copy()
                      for k, v in state.items()}


@pytest.fixture
def cfg():
    return NumarckConfig(error_bound=1e-3)


class TestDiskFaultInjector:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            DiskFaultInjector(torn_fraction=0.0)
        with pytest.raises(ValueError):
            DiskFaultInjector(torn_fraction=1.0)
        with pytest.raises(ValueError):
            DiskFaultInjector(flip_bit=8)

    def test_torn_write_leaves_partial_record(self, tmp_path, rng, cfg):
        chain = CheckpointChain(rng.uniform(1, 2, 200), cfg)
        chain.append(chain.full_checkpoint * 1.001)
        path = tmp_path / "c.nmk"
        disk = DiskFaultInjector(torn_at=(2,), torn_fraction=0.4)
        writer = CheckpointFile.create(path, write_hook=disk.hook, sync=True)
        writer.write_full(chain.full_payload)
        with pytest.raises(CrashDuringWrite):
            writer.write_delta(chain.payloads[0])
        writer.close()
        # Strict read fails on the torn tail; salvage keeps the FULL record.
        with pytest.raises(FormatError):
            load_chain(path)
        loaded, report = load_chain(path, recover="tail")
        assert len(loaded) == 1
        assert report.records_dropped == 1
        np.testing.assert_array_equal(loaded.reconstruct(),
                                      chain.full_checkpoint)

    def test_bit_flip_detected_on_read(self, tmp_path, rng, cfg):
        chain = CheckpointChain(rng.uniform(1, 2, 200), cfg)
        path = tmp_path / "c.nmk"
        disk = DiskFaultInjector(flip_at=(1,))
        with CheckpointFile.create(path, write_hook=disk.hook) as writer:
            writer.write_full(chain.full_payload)
        with pytest.raises(FormatError):
            load_chain(path)

    def test_transient_error_fires_once(self, tmp_path, rng, cfg):
        chain = CheckpointChain(rng.uniform(1, 2, 200), cfg)
        path = tmp_path / "c.nmk"
        disk = DiskFaultInjector(error_at=(1,))
        writer = CheckpointFile.create(path, write_hook=disk.hook, sync=True)
        with pytest.raises(OSError) as excinfo:
            writer.write_full(chain.full_payload)
        assert excinfo.value.errno == errno.EIO
        # The failed write rolled back; the retry succeeds and the file
        # is byte-exact.
        writer.write_full(chain.full_payload)
        writer.close()
        np.testing.assert_array_equal(load_chain(path).reconstruct(),
                                      chain.full_checkpoint)


class TestPersistIncremental:
    def test_appends_match_full_save(self, tmp_path, cfg):
        sim = ToySim()
        mgr = RestartManager(VARS, cfg)
        mgr.record(sim.checkpoint())
        path_fn = lambda v: tmp_path / f"{v}.nmk"  # noqa: E731
        assert mgr.persist_incremental(path_fn) == 2
        for _ in range(3):
            sim.advance()
            mgr.record(sim.checkpoint())
            assert mgr.persist_incremental(path_fn) == 2  # one per variable
        mgr.close_writers()
        for v in VARS:
            loaded = load_chain(path_fn(v), cfg)
            assert len(loaded) == 4
            np.testing.assert_allclose(loaded.reconstruct(),
                                       mgr.chain(v).reconstruct())

    def test_persist_before_record_raises(self, cfg, tmp_path):
        mgr = RestartManager(VARS, cfg)
        with pytest.raises(RuntimeError):
            mgr.persist_incremental(lambda v: tmp_path / f"{v}.nmk")

    def test_fresh_manager_replaces_stale_file(self, tmp_path, cfg):
        path_fn = lambda v: tmp_path / f"{v}.nmk"  # noqa: E731
        sim = ToySim()
        mgr = RestartManager(VARS, cfg)
        mgr.record(sim.checkpoint())
        sim.advance()
        mgr.record(sim.checkpoint())
        mgr.persist_incremental(path_fn)
        mgr.close_writers()
        # A new, unrelated recording into the same paths must not inherit
        # the old records.
        mgr2 = RestartManager(VARS, cfg)
        mgr2.record(ToySim().checkpoint())
        mgr2.persist_incremental(path_fn)
        mgr2.close_writers()
        for v in VARS:
            assert len(load_chain(path_fn(v), cfg)) == 1

    def test_from_chains_resumes_appending(self, tmp_path, cfg):
        path_fn = lambda v: tmp_path / f"{v}.nmk"  # noqa: E731
        sim = ToySim()
        mgr = RestartManager(VARS, cfg)
        mgr.record(sim.checkpoint())
        sim.advance()
        mgr.record(sim.checkpoint())
        mgr.persist_incremental(path_fn)
        mgr.close_writers()
        del mgr  # "crash"

        chains = {v: load_chain(path_fn(v), cfg) for v in VARS}
        resumed = RestartManager.from_chains(chains, cfg)
        assert resumed.n_checkpoints == 2
        sim2 = ToySim()
        sim2.restore(resumed.restart_state())
        sim2.advance()
        resumed.record(sim2.checkpoint())
        assert resumed.persist_incremental(path_fn) == 2
        resumed.close_writers()
        for v in VARS:
            assert len(load_chain(path_fn(v), cfg)) == 3

    def test_from_chains_truncates_untrusted_disk_records(self, tmp_path,
                                                          cfg):
        """Adopting a truncated chain must cut the file back before
        appending, so recomputed records replace stale ones."""
        path_fn = lambda v: tmp_path / f"{v}.nmk"  # noqa: E731
        sim = ToySim()
        mgr = RestartManager(VARS, cfg)
        mgr.record(sim.checkpoint())
        for _ in range(2):
            sim.advance()
            mgr.record(sim.checkpoint())
        mgr.persist_incremental(path_fn)
        mgr.close_writers()

        chains = {v: load_chain(path_fn(v), cfg) for v in VARS}
        for c in chains.values():
            c.truncate(2)  # trust only the first two records
        resumed = RestartManager.from_chains(chains, cfg)
        divergent = {v: chains[v].reconstruct() * 1.01 for v in VARS}
        resumed.record(divergent)
        resumed.persist_incremental(path_fn)
        resumed.close_writers()
        for v in VARS:
            loaded = load_chain(path_fn(v), cfg)
            assert len(loaded) == 3
            np.testing.assert_allclose(loaded.reconstruct(),
                                       resumed.chain(v).reconstruct())

    @staticmethod
    def _failed_fifth_persist(tmp_path, cfg):
        """Four iterations durable, then a persist of the fifth whose
        first write finds the disk full."""
        path_fn = lambda v: tmp_path / f"{v}.nmk"  # noqa: E731
        disk_full = []

        def write(fh, data):
            if disk_full:
                raise OSError(errno.ENOSPC, "No space left on device")
            fh.write(data)

        sim = ToySim()
        mgr = RestartManager(VARS, cfg)
        mgr.record(sim.checkpoint())
        for _ in range(3):
            sim.advance()
            mgr.record(sim.checkpoint())
        assert mgr.persist_incremental(path_fn, write_hook=write) == 2 * 4
        sim.advance()
        mgr.record(sim.checkpoint())
        disk_full.append(True)
        with pytest.raises(OSError):
            mgr.persist_incremental(path_fn, write_hook=write)
        return mgr, path_fn

    def test_retry_after_failure_writes_only_missing(self, tmp_path, cfg):
        mgr, path_fn = self._failed_fifth_persist(tmp_path, cfg)
        disk = DiskFaultInjector()
        assert mgr.persist_incremental(path_fn, write_hook=disk.hook) == 2
        assert disk.writes_seen == 2
        mgr.close_writers()
        for v in VARS:
            assert path_fn(v).read_bytes() == chain_to_bytes(mgr.chain(v))

    def test_crash_during_retry_keeps_durable_iterations(self, tmp_path,
                                                         cfg):
        mgr, path_fn = self._failed_fifth_persist(tmp_path, cfg)
        disk = DiskFaultInjector(torn_at=(2,))
        with pytest.raises(CrashDuringWrite):
            mgr.persist_incremental(path_fn, write_hook=disk.hook)
        for v in VARS:
            loaded, _ = load_chain(path_fn(v), cfg, recover="tail")
            assert len(loaded) >= 4

    def test_from_chains_rejects_empty(self, cfg):
        with pytest.raises(ValueError):
            RestartManager.from_chains({}, cfg)


class TestRunWithDiskFaults:
    def test_torn_write_recovers_via_salvage(self, tmp_path, cfg):
        """The acceptance scenario: a crash *mid-record* loses at most the
        checkpoint being written, and the files verify clean afterwards."""
        # Two variables: writes 1-2 persist checkpoint 0, writes 3-4
        # checkpoint 1, ... write 7 tears variable "a"'s record for
        # checkpoint 3.
        disk = DiskFaultInjector(torn_at=(7,))
        result = run_with_faults(ToySim, VARS, 6, FaultSchedule(crash_at=()),
                                 tmp_path, cfg, disk_faults=disk)
        assert result.completed
        assert result.n_crashes == 1
        assert result.n_salvages == 1
        assert result.checkpoints_lost == 1  # only the torn one
        assert len(result.salvage_reports) >= 1
        assert all(not r.clean for r in result.salvage_reports)
        for v in VARS:
            assert cli_main(["verify", str(tmp_path / f"{v}.nmk")]) == 0
            loaded = load_chain(tmp_path / f"{v}.nmk", cfg)
            assert len(loaded) == 7  # initial + 6 checkpoints
        # The recovered run still lands close to the fault-free reference.
        assert all(e < 0.05 for e in result.final_max_error.values())

    def test_multiple_torn_writes(self, tmp_path, cfg):
        disk = DiskFaultInjector(torn_at=(5, 13), torn_fraction=0.7)
        result = run_with_faults(ToySim, VARS, 5, FaultSchedule(crash_at=()),
                                 tmp_path, cfg, disk_faults=disk)
        assert result.completed
        assert result.n_crashes == 2
        assert result.n_salvages == 2
        for v in VARS:
            assert cli_main(["verify", str(tmp_path / f"{v}.nmk")]) == 0

    def test_transient_errors_absorbed_by_retry(self, tmp_path, cfg):
        disk = DiskFaultInjector(error_at=(2, 6))
        result = run_with_faults(ToySim, VARS, 4, FaultSchedule(crash_at=()),
                                 tmp_path, cfg, disk_faults=disk)
        assert result.completed
        assert result.n_crashes == 0
        assert result.n_salvages == 0
        for v in VARS:
            assert cli_main(["verify", str(tmp_path / f"{v}.nmk")]) == 0

    def test_combined_disk_and_schedule_crashes(self, tmp_path, cfg):
        disk = DiskFaultInjector(torn_at=(9,))
        result = run_with_faults(ToySim, VARS, 6,
                                 FaultSchedule(crash_at=(2,)), tmp_path, cfg,
                                 disk_faults=disk)
        assert result.completed
        assert result.n_crashes == 2
        assert result.n_salvages == 1
        for v in VARS:
            assert cli_main(["verify", str(tmp_path / f"{v}.nmk")]) == 0

    def test_plain_crashes_write_each_record_once(self, tmp_path, cfg):
        """Incremental persistence appends O(1) records per checkpoint:
        a fault-free run of n checkpoints writes exactly (n+1) records per
        variable, not O(n^2)."""
        result = run_with_faults(ToySim, VARS, 8, FaultSchedule(crash_at=()),
                                 tmp_path, cfg)
        assert result.completed
        assert result.records_appended == len(VARS) * 9

    def test_plain_crash_schedule_still_works(self, tmp_path, cfg):
        result = run_with_faults(ToySim, VARS, 6,
                                 FaultSchedule(crash_at=(2, 4)), tmp_path,
                                 cfg)
        assert result.completed
        assert result.n_crashes == 2
        assert result.n_salvages == 0
        assert result.checkpoints_lost == 0
        assert result.checkpoints_written == 7
