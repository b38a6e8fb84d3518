"""Chain writes and downloads behind the compression service.

Each durable chain holds one open append writer, so a compress job must
not re-scan the chain file; and a failed write must leave the in-memory
chain exactly as long as the file, so a retried state is encoded against
the base the file holds.  A download serves the committed container
bytes as stored: never a torn or rolled-back record, never a re-encode.
"""

import errno
import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro import Codec, NumarckConfig
from repro.core import checkpoint
from repro.errors import NumarckError
from repro.io import chain_from_bytes, chain_to_bytes, container, load_chain
from repro.io.container import CheckpointFile
from repro.restart.faults import DiskFaultInjector
from repro.service import ServiceClient, ServiceConfig, ServiceServer
from repro.service.app import CompressionService
from repro.service.chains import Chain
from repro.service.wire import pack_arrays

CFG = {"error_bound": 1e-3, "nbits": 8, "strategy": "equal_width"}


def make_states(seed, n=2000, iterations=3):
    rng = np.random.default_rng(seed)
    states = [rng.uniform(1.0, 2.0, n)]
    for _ in range(iterations):
        states.append(states[-1] * (1.0 + rng.normal(0.0, 2e-3, n)))
    return states


def durable(store, workers=2, cfg=None):
    return ServiceConfig(workers=workers, capacity=8, store_dir=str(store),
                         codec=cfg if cfg is not None
                         else NumarckConfig.from_dict(CFG))


@pytest.fixture
def scans(monkeypatch):
    """Count full walks of a container's records."""
    calls = []
    original = container._iter_frames

    def counting(fh):
        calls.append(fh)
        return original(fh)

    def install():
        monkeypatch.setattr(container, "_iter_frames", counting)
        return calls

    return install


def direct(states, cfg=None):
    """Container bytes of a local ``Codec`` encode of ``states``."""
    cfg = cfg if cfg is not None else NumarckConfig.from_dict(CFG)
    return chain_to_bytes(Codec(config=cfg).compress_chain(states))


def compress_all(svc, chain_id, states):
    for state in states:
        job = svc.submit_compress(chain_id, pack_arrays([state]))
        assert svc.queue.wait(job.id, timeout=30).state == "done"


class TestHeldWriter:
    def test_new_chain_never_scans(self, tmp_path, scans):
        states = make_states(1, n=500, iterations=19)
        with CompressionService(durable(tmp_path / "s", workers=1)) as svc:
            calls = scans()
            compress_all(svc, "c", states)
        assert len(calls) == 0

    def test_recovered_chain_scans_once(self, tmp_path, scans):
        states = make_states(2, n=500, iterations=22)
        with CompressionService(durable(tmp_path / "s", workers=1)) as svc:
            compress_all(svc, "c", states[:3])
        # Recovery at start-up reads the file; count only what the
        # compress jobs do after it.
        with CompressionService(durable(tmp_path / "s", workers=1)) as svc:
            calls = scans()
            compress_all(svc, "c", states[3:])
            assert svc.chain_stats("c")["iterations"] == len(states)
        assert len(calls) == 1


    def test_concurrent_jobs_share_one_writer(self, tmp_path):
        # More workers and clients than cores, with frequent thread
        # switches: every job on the chain goes through the one held
        # writer, so the file must hold exactly the acknowledged states.
        clients, per_client = 6, 5
        store = tmp_path / "s"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceServer(durable(store, workers=4)) as srv:
                def drive(seed):
                    cl = ServiceClient(port=srv.port)
                    for state in make_states(seed, n=500,
                                             iterations=per_client - 1):
                        assert cl.compress("shared", state,
                                           retries=200)["state"] == "done"

                threads = [threading.Thread(target=drive, args=(20 + i,))
                           for i in range(clients)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
                cl = ServiceClient(port=srv.port)
                assert cl.chain_stats("shared")["iterations"] \
                    == clients * per_client
                blob = cl.download_chain("shared")
        finally:
            sys.setswitchinterval(interval)
        assert (store / "shared.nmk").read_bytes() == blob
        assert len(load_chain(store / "shared.nmk")) == clients * per_client


class TestPersistFailure:
    @pytest.mark.parametrize("fail_at", [1, 3], ids=["full", "delta"])
    def test_failed_write_rolls_back(self, tmp_path, monkeypatch, fail_at):
        # One ENOSPC on the ``fail_at``-th record write (1 is the FULL
        # record, 3 the second delta); the client then sends the state
        # again.  File, download and recovered chain must all equal a
        # direct encode of the states that were acknowledged.
        states = make_states(3, iterations=7)
        store = tmp_path / "s"
        writes = []
        original = CheckpointFile._write

        def flaky(self, data):
            writes.append(len(data))
            if len(writes) == fail_at:
                raise OSError(errno.ENOSPC, "No space left on device")
            return original(self, data)

        monkeypatch.setattr(CheckpointFile, "_write", flaky)
        with ServiceServer(durable(store)) as srv:
            cl = ServiceClient(port=srv.port)
            for i, state in enumerate(states):
                if len(writes) + 1 == fail_at:
                    with pytest.raises(NumarckError):
                        cl.compress("flaky", state)
                    assert cl.chain_stats("flaky")["iterations"] == i
                assert cl.compress("flaky", state)["state"] == "done"
            assert len(writes) == len(states) + 1
            blob = cl.download_chain("flaky")

        expected = chain_to_bytes(Codec(config=NumarckConfig.from_dict(CFG))
                                  .compress_chain(states))
        assert (store / "flaky.nmk").read_bytes() == expected
        assert blob == expected
        with ServiceServer(durable(store)) as srv2:
            assert ServiceClient(port=srv2.port).download_chain("flaky") \
                == expected


    @pytest.mark.parametrize("fault", ["torn", "raise"])
    def test_failed_persist_serves_acknowledged_states(
            self, tmp_path, monkeypatch, fault):
        # The fourth record write (the third delta) fails with no OSError
        # to roll back: a torn write that lands half the record and then
        # "crashes", or a plain exception.  The job fails and the chain
        # holds only the acknowledged states, live and after a restart,
        # which then appends on past the torn bytes.
        cfg = NumarckConfig.from_dict({**CFG, "reference": "reconstructed"})
        states = make_states(7, iterations=5)
        store = tmp_path / "s"
        acknowledged, expected = direct(states[:3], cfg), direct(states, cfg)
        disk = DiskFaultInjector(torn_at=(4,) if fault == "torn" else ())
        writes = []

        def faulty(self, data):
            writes.append(len(data))
            if fault == "raise" and len(writes) == 4:
                raise ValueError("injected fault while persisting")
            disk.hook(self._fh, data)

        monkeypatch.setattr(CheckpointFile, "_write", faulty)
        with CompressionService(durable(store, cfg=cfg)) as svc:
            compress_all(svc, "c", states[:3])
            job = svc.submit_compress("c", pack_arrays([states[3]]))
            assert svc.queue.wait(job.id, timeout=30).state == "failed"
            assert svc.chain_stats("c")["iterations"] == 3
            assert svc.chain_container("c") == acknowledged
        if fault == "torn":
            assert (store / "c.nmk").stat().st_size > len(acknowledged)
        with CompressionService(durable(store, cfg=cfg)) as svc:
            assert svc.chain_stats("c")["iterations"] == 3
            assert svc.chain_container("c") == acknowledged
            compress_all(svc, "c", states[3:])
            assert svc.chain_container("c") == expected
        assert (store / "c.nmk").read_bytes() == expected


class _NoTruncate:
    """File proxy whose ``truncate`` fails, like a rollback on a failing
    disk."""

    def __init__(self, fh):
        self._fh = fh

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def truncate(self, size=None):
        raise OSError(errno.EIO, "Input/output error")


def _no_encode(*args, **kwargs):
    raise AssertionError("a download re-encoded its chain")


class TestDownload:
    @pytest.mark.parametrize("stored", [True, False],
                             ids=["durable", "in-memory"])
    def test_download_encodes_nothing(self, tmp_path, monkeypatch, stored):
        states = make_states(9, n=500, iterations=3)
        config = (durable(tmp_path / "s") if stored else
                  ServiceConfig(workers=1, capacity=8,
                                codec=NumarckConfig.from_dict(CFG)))
        expected = direct(states)
        with CompressionService(config) as svc:
            compress_all(svc, "c", states)
            # The chain builds every record payload; nothing else encodes.
            monkeypatch.setattr(checkpoint, "encode_delta_bytes", _no_encode)
            if stored:
                monkeypatch.setattr(container, "_write_chains", _no_encode)
            else:
                # An in-memory download frames the chain's held payloads.
                monkeypatch.setattr(checkpoint, "encode_full_bytes",
                                    _no_encode)
            assert svc.chain_container("c") == expected

    def test_torn_tail_served_as_recovered(self, tmp_path):
        # Closed-loop chains: a restart resumes from the decoded state,
        # which is the state a direct encode continues from too.
        cfg = NumarckConfig.from_dict({**CFG, "reference": "reconstructed"})
        states = make_states(4, iterations=4)
        store = tmp_path / "s"
        with CompressionService(durable(store, cfg=cfg)) as svc:
            compress_all(svc, "torn", states[:-1])
        path = store / "torn.nmk"
        path.write_bytes(path.read_bytes()[:-7])  # tear the last record
        recovered = chain_to_bytes(load_chain(path, cfg, recover="tail")[0])
        assert recovered == direct(states[:-2], cfg)
        with CompressionService(durable(store, cfg=cfg)) as svc:
            # Downloaded before any append: the torn bytes are still on
            # disk, past the committed prefix.
            assert svc.chain_container("torn") == recovered
            compress_all(svc, "torn", states[-2:])
            assert svc.chain_container("torn") == direct(states, cfg)

    @pytest.mark.parametrize("written", ["torn", "whole"])
    def test_failed_rollback_never_served(self, tmp_path, monkeypatch,
                                          written):
        # The third record write (the second delta) puts half or all of
        # its record on disk, then fails, and so does the rollback's
        # truncate: those bytes stay in the file past the acknowledged
        # states.  The next job's writer cuts them before appending.
        states = make_states(5, iterations=4)
        store = tmp_path / "s"
        writes = []
        original = CheckpointFile._write

        def flaky(self, data):
            writes.append(len(data))
            if len(writes) != 3:
                return original(self, data)
            original(self, data if written == "whole"
                     else data[: len(data) // 2])
            self._fh = _NoTruncate(self._fh)
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(CheckpointFile, "_write", flaky)
        with CompressionService(durable(store)) as svc:
            compress_all(svc, "c", states[:2])
            job = svc.submit_compress("c", pack_arrays([states[2]]))
            assert svc.queue.wait(job.id, timeout=30).state == "failed"
            acknowledged = direct(states[:2])
            assert (store / "c.nmk").stat().st_size > len(acknowledged)
            assert svc.chain_container("c") == acknowledged
            compress_all(svc, "c", states[2:3])
            assert svc.chain_container("c") == direct(states[:3])
            compress_all(svc, "c", states[3:])
            assert svc.chain_container("c") == direct(states)
        assert (store / "c.nmk").read_bytes() == direct(states)

    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    def test_in_memory_download_between_appends(self, adaptive):
        cfg = NumarckConfig.from_dict({**CFG, "adaptive": adaptive})
        states = make_states(6, iterations=5)
        config = ServiceConfig(workers=1, capacity=8, codec=cfg)
        with CompressionService(config) as svc:
            for i, state in enumerate(states):
                compress_all(svc, "mem", [state])
                assert svc.chain_container("mem") \
                    == direct(states[: i + 1], cfg)

    def test_downloads_during_appends_are_whole(self, tmp_path):
        # Downloads race appends on one chain, with frequent thread
        # switches: every download must be a whole container of the
        # chain so far, never one ending in a half-written record.
        states = make_states(8, n=500, iterations=29)
        served = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CompressionService(durable(tmp_path / "s")) as svc:
                compress_all(svc, "race", states[:1])

                def download():
                    while len(served) < 200:
                        served.append(svc.chain_container("race"))

                readers = [threading.Thread(target=download)
                           for _ in range(2)]
                for t in readers:
                    t.start()
                compress_all(svc, "race", states[1:])
                for t in readers:
                    t.join(60)
                assert not any(t.is_alive() for t in readers)
                final = svc.chain_container("race")
        finally:
            sys.setswitchinterval(interval)
        assert final == direct(states)
        for blob in served:
            assert final.startswith(blob)
            assert len(chain_from_bytes(blob)) <= len(states)


class TestCutKeepsTableReferences:
    def test_adaptive_chain_after_failed_rollback(self, tmp_path,
                                                  monkeypatch):
        # The second delta's record reaches the disk whole, then its
        # write and rollback fail; the next job's writer cuts the record.  The deltas after the cut still
        # reference the kept table, so the file equals a direct encode.
        cfg = NumarckConfig.from_dict({**CFG, "adaptive": True})
        states = make_states(5, iterations=5)
        store = tmp_path / "s"
        writes = []
        original = CheckpointFile._write

        def flaky(self, data):
            writes.append(len(data))
            if len(writes) != 3:
                return original(self, data)
            original(self, data)
            self._fh = _NoTruncate(self._fh)
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(CheckpointFile, "_write", flaky)
        with CompressionService(durable(store, cfg=cfg)) as svc:
            compress_all(svc, "c", states[:2])
            job = svc.submit_compress("c", pack_arrays([states[2]]))
            assert svc.queue.wait(job.id, timeout=30).state == "failed"
            compress_all(svc, "c", states[2:])
            assert svc.chain_container("c") == direct(states, cfg)
        assert (store / "c.nmk").read_bytes() == direct(states, cfg)


class TestInMemoryChain:
    def test_holds_each_record_once(self):
        # An in-memory chain is its CheckpointChain: the memory its later
        # appends retain is the payloads they add, not a second framed
        # copy of them.
        cfg = NumarckConfig.from_dict({**CFG, "nbits": 10, "adaptive": True})
        states = make_states(4, n=12_960, iterations=20)
        tracemalloc.start()
        try:
            chain = Chain("mem", cfg, None)
            for state in states[:3]:
                chain.append_state(state)
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            held = sum(map(len, chain.chain.payloads))
            for state in states[3:]:
                chain.append_state(state)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        added = sum(map(len, chain.chain.payloads)) - held
        assert len(chain.chain) == len(states)
        assert grown <= 1.15 * added
        assert chain.container_bytes() == direct(states, cfg)
