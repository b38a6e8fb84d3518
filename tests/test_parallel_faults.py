"""Rank-fault chaos tests: deadlock freedom, bounded-wait detection, and
degraded-mode recovery of the distributed encoder.

Mirrors the disk-fault salvage suite of the persistence layer: every fault
family x pipeline phase combination must leave the system either complete
(possibly degraded, with the casualties reported) or loudly failed -- never
deadlocked, and never violating the per-point error bound E on a completed
encode.
"""

import threading
import time
import zlib
from multiprocessing import Pipe, active_children

import numpy as np
import pytest

from repro.core import NumarckConfig, decode_iteration
from repro.parallel import (
    PipeComm,
    RankFailureError,
    RankFaultInjector,
    block_partition,
    parallel_encode,
    run_spmd,
)

E = 1e-3
#: tight per-message deadline so detection latencies stay test-sized.
COMM_TIMEOUT = 1.5
#: generous harness deadline; tests additionally assert tight wall-clock.
RUN_TIMEOUT = 30.0


def _pair(n=6000, seed=0):
    rng = np.random.default_rng(seed)
    prev = rng.uniform(1.0, 2.0, n)
    curr = prev * (1.0 + rng.normal(0.0, 0.003, n))
    return prev, curr


# -- workers (module level: they must survive the trip into rank processes)

def _allreduce_worker(comm):
    try:
        return ("ok", comm.allreduce(comm.rank + 1), comm.lost_ranks)
    except RankFailureError as exc:
        return ("rank-failure", exc.rank)


def _gather_worker(comm):
    gathered = comm.gather(np.arange(3))
    missing = None if gathered is None else [g is None for g in gathered]
    return ("ok", missing, comm.lost_ranks)


def _encode_worker(comm, prev_shards, curr_shards, cfg):
    enc, stats = parallel_encode(comm, prev_shards[comm.rank],
                                 curr_shards[comm.rank], cfg)
    out = decode_iteration(prev_shards[comm.rank], enc)
    rel = np.abs(out / curr_shards[comm.rank] - 1)
    rel[enc.incompressible] = 0
    return {
        "rank": comm.rank,
        "degraded": stats.degraded,
        "lost": stats.lost_ranks,
        "max_err": float(rel.max()),
        "n_points": stats.n_points,
        "n_incompressible": stats.n_incompressible,
        "n_bins": stats.n_bins,
        "comm_lost": comm.lost_ranks,
    }


def _sleepy_worker(comm):
    if comm.rank == 1:
        time.sleep(60.0)
    return comm.rank


def _boom_helper():
    raise ValueError("boom-with-context")


def _boom_worker(comm):
    if comm.rank == 1:
        _boom_helper()
    return comm.rank


class TestInjectorSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            RankFaultInjector(crash_at=(0,))
        with pytest.raises(ValueError):
            RankFaultInjector(hang_seconds=0)
        with pytest.raises(ValueError):
            RankFaultInjector(flip_bit=8)

    def test_fires_once_per_trigger(self):
        from repro.parallel.faults import DROP, CommEvent

        inj = RankFaultInjector(drop_at=(2,), flip_at=(3,))
        ev = lambda: CommEvent("send", 1, "", b"payload-bytes")
        assert inj.apply(ev()) is None          # op 1
        assert inj.apply(ev()) is DROP          # op 2: drop fires
        flipped = inj.apply(ev())               # op 3: flip fires
        assert flipped != b"payload-bytes" and len(flipped) == 13
        assert inj.apply(ev()) is None          # schedules exhausted

    def test_phase_trigger(self):
        from repro.parallel.faults import DROP, CommEvent

        inj = RankFaultInjector(drop_in_phase="fit")
        assert inj.apply(CommEvent("send", 0, "other", b"x" * 8)) is None
        assert inj.apply(CommEvent("send", 0, "fit", b"x" * 8)) is DROP
        assert inj.apply(CommEvent("send", 0, "fit", b"x" * 8)) is None

    def test_recv_events_do_not_consume_data_faults(self):
        from repro.parallel.faults import DROP, CommEvent

        inj = RankFaultInjector(drop_at=(1, 2))
        assert inj.apply(CommEvent("recv", 0, "")) is None
        assert inj.apply(CommEvent("send", 0, "", b"x" * 8)) is DROP


class TestProtocolInProcess:
    """Reliable-delivery protocol over one real pipe pair, no subprocesses."""

    def _linked(self, **kwargs):
        a, b = Pipe(duplex=True)
        return (PipeComm(0, 2, {1: a}, timeout=2.0, **kwargs),
                PipeComm(1, 2, {0: b}, timeout=2.0))

    def _exchange(self, sender, receiver, obj):
        box = []
        t = threading.Thread(target=lambda: box.append(receiver.recv(0)))
        t.start()
        sender.send(obj, 1)
        t.join(5.0)
        assert not t.is_alive()
        return box[0]

    def test_roundtrip(self):
        c0, c1 = self._linked()
        payload = {"a": np.arange(5), "b": "text"}
        out = self._exchange(c0, c1, payload)
        np.testing.assert_array_equal(out["a"], payload["a"])

    def test_flip_recovered_by_nak_resend(self):
        c0, c1 = self._linked(
            fault_injector=RankFaultInjector(flip_at=(1,)))
        assert self._exchange(c0, c1, [1, 2, 3]) == [1, 2, 3]

    def test_drop_recovered_by_ack_timeout_resend(self):
        c0, c1 = self._linked(
            fault_injector=RankFaultInjector(drop_at=(1,)), resend_wait=0.1)
        assert self._exchange(c0, c1, "dropped-once") == "dropped-once"

    def test_transient_error_retried_with_backoff(self):
        c0, c1 = self._linked(
            fault_injector=RankFaultInjector(error_at=(1,)))
        assert self._exchange(c0, c1, 42) == 42

    def test_recv_timeout_raises_rank_failure(self):
        a, b = Pipe(duplex=True)
        comm = PipeComm(0, 2, {1: a}, timeout=0.3)
        t0 = time.monotonic()
        with pytest.raises(RankFailureError) as ei:
            comm.recv(1)
        assert time.monotonic() - t0 < 2.0
        assert ei.value.rank == 1
        assert comm.lost_ranks == (1,)
        # Once lost, every further operation fails fast.
        t0 = time.monotonic()
        with pytest.raises(RankFailureError):
            comm.send("x", 1)
        assert time.monotonic() - t0 < 0.1

    def test_peer_close_detected_as_failure(self):
        a, b = Pipe(duplex=True)
        comm = PipeComm(0, 2, {1: a}, timeout=5.0)
        b.close()
        t0 = time.monotonic()
        with pytest.raises(RankFailureError):
            comm.recv(1)
        assert time.monotonic() - t0 < 1.0  # EOF, not deadline

    def test_phase_label_in_failure(self):
        a, b = Pipe(duplex=True)
        comm = PipeComm(0, 2, {1: a}, timeout=0.2)
        with comm.phase("unit.phase"):
            with pytest.raises(RankFailureError, match="unit.phase"):
                comm.recv(1)

    def test_message_sent_before_close_is_delivered(self):
        """The peer wrote its last frame and exited: the frame is still
        delivered, and only the next recv, which finds nothing left,
        turns the closed link into a loss."""
        from repro.parallel.comm import _DATA, _FRAME, _dumps

        a, b = Pipe(duplex=True)
        payload = _dumps("last words")
        b.send_bytes(_FRAME.pack(_DATA, 1, zlib.crc32(payload)) + payload)
        b.close()
        comm = PipeComm(0, 2, {1: a}, timeout=5.0)
        assert comm.recv(1) == "last words"
        assert comm.lost_ranks == ()
        with pytest.raises(RankFailureError):
            comm.recv(1)
        assert comm.lost_ranks == (1,)

    def test_peer_that_left_while_not_awaited_is_not_lost(self):
        """Rank 1 sends and closes its link while rank 0 waits on rank 2:
        rank 1 has departed, not failed, until rank 0 needs it again."""
        a01, b01 = Pipe(duplex=True)
        a02, b02 = Pipe(duplex=True)
        c0 = PipeComm(0, 3, {1: a01, 2: a02}, timeout=5.0)
        c1 = PipeComm(1, 3, {0: b01}, timeout=5.0)
        c2 = PipeComm(2, 3, {0: b02}, timeout=5.0)

        def rank1():
            c1.send("from 1", 0)
            b01.close()

        def rank2():
            t1.join(5.0)
            time.sleep(0.3)  # rank 0 reads rank 1's EOF in the meantime
            c2.send("from 2", 0)

        t1 = threading.Thread(target=rank1)
        t2 = threading.Thread(target=rank2)
        t1.start()
        t2.start()
        assert c0.recv(2) == "from 2"
        t2.join(5.0)
        assert not t1.is_alive() and not t2.is_alive()
        assert c0.lost_ranks == ()
        assert c0.recv(1) == "from 1"
        with pytest.raises(RankFailureError):
            c0.recv(1)
        assert c0.lost_ranks == (1,)


class TestDeadlockFreedom:
    """Killing a rank mid-collective never deadlocks: every survivor
    completes well inside the configured timeout, with the casualty
    reported in its lost ranks."""

    @pytest.mark.parametrize("nprocs", [2, 3, 4])
    def test_crash_mid_allreduce(self, nprocs):
        t0 = time.monotonic()
        outcomes = run_spmd(
            _allreduce_worker, nprocs, strict=False,
            comm_timeout=COMM_TIMEOUT, timeout=RUN_TIMEOUT,
            faults={1: RankFaultInjector(crash_at=(1,))})
        elapsed = time.monotonic() - t0
        assert elapsed < 3 * COMM_TIMEOUT + 5.0
        assert not outcomes[1].ok
        total = sum(r + 1 for r in range(nprocs) if r != 1)
        for o in outcomes:
            if o.rank != 1:
                assert o.ok and o.value == ("ok", total, (1,))

    def test_crash_mid_gather(self):
        t0 = time.monotonic()
        outcomes = run_spmd(
            _gather_worker, 3, strict=False,
            comm_timeout=COMM_TIMEOUT, timeout=RUN_TIMEOUT,
            faults={1: RankFaultInjector(crash_at=(1,))})
        assert time.monotonic() - t0 < 3 * COMM_TIMEOUT + 5.0
        assert not outcomes[1].ok
        # Rank 0 holds None for rank 1 alone; rank 2 only sent.
        assert outcomes[0].value == ("ok", [False, True, False], (1,))
        assert outcomes[2].value == ("ok", None, ())

    def test_hang_detected_by_deadline(self):
        t0 = time.monotonic()
        outcomes = run_spmd(
            _allreduce_worker, 3, strict=False,
            comm_timeout=1.0, timeout=RUN_TIMEOUT,
            faults={1: RankFaultInjector(hang_at=(1,), hang_seconds=3.0)})
        assert time.monotonic() - t0 < 10.0
        survivors = [o for o in outcomes if o.rank != 1]
        assert all(o.ok and o.value == ("ok", 1 + 3, (1,)) for o in survivors)


class TestRecoverableFaults:
    """Drop / bit-flip / transient-error faults are absorbed by the
    resend/retry layer: the collective completes with correct values."""

    @pytest.mark.parametrize("fault", [
        dict(drop_at=(1,)),
        dict(flip_at=(1,)),
        dict(flip_at=(2,), flip_bit=5),
        dict(error_at=(1,)),
        dict(error_at=(2,)),
    ])
    def test_allreduce_correct(self, fault):
        results = run_spmd(
            _allreduce_worker, 3, comm_timeout=4.0, timeout=RUN_TIMEOUT,
            faults={1: RankFaultInjector(**fault)})
        assert results == [("ok", 6, ())] * 3


FAULT_FAMILIES = {
    "crash": lambda phase: RankFaultInjector(crash_in_phase=phase),
    "hang": lambda phase: RankFaultInjector(hang_in_phase=phase,
                                            hang_seconds=4.0),
    "drop": lambda phase: RankFaultInjector(drop_in_phase=phase),
    "flip": lambda phase: RankFaultInjector(flip_in_phase=phase),
    "transient": lambda phase: RankFaultInjector(error_in_phase=phase),
}
LOSSY = ("crash", "hang")


class TestChaosMatrix:
    """fault family x pipeline phase x rank count: every completed encode
    honors E; lossy faults complete degraded with the casualty reported."""

    @pytest.mark.parametrize("fault", sorted(FAULT_FAMILIES))
    @pytest.mark.parametrize("phase", ["insitu.sample_gather", "insitu.stats"])
    @pytest.mark.parametrize("nprocs", [3])
    def test_matrix(self, fault, phase, nprocs):
        prev, curr = _pair()
        cfg = NumarckConfig(error_bound=E, nbits=8)
        ps = block_partition(prev, nprocs)
        cs = block_partition(curr, nprocs)
        outcomes = run_spmd(
            _encode_worker, nprocs, ps, cs, cfg, strict=False,
            comm_timeout=COMM_TIMEOUT, timeout=RUN_TIMEOUT,
            faults={1: FAULT_FAMILIES[fault](phase)})

        if fault in LOSSY:
            survivors = [o for o in outcomes if o.rank != 1]
            # The faulty rank either died (crash) or erred/overslept (hang);
            # either way it must not have silently produced a clean result.
            assert all(o.ok for o in survivors)
            expected_pts = sum(ps[r].size for r in range(nprocs) if r != 1)
            for o in survivors:
                r = o.value
                assert r["degraded"] and r["lost"] == (1,)
                assert r["n_points"] == expected_pts
                assert r["max_err"] < 1.2 * E
            # Survivors agree on the global statistics.
            stats = {(o.value["n_points"], o.value["n_incompressible"],
                      o.value["n_bins"], o.value["lost"])
                     for o in survivors}
            assert len(stats) == 1
        else:
            assert all(o.ok for o in outcomes)
            for o in outcomes:
                r = o.value
                assert not r["degraded"] and r["lost"] == ()
                assert r["n_points"] == prev.size
                assert r["max_err"] < 1.2 * E

    def test_fault_free_encodes_never_degraded(self):
        """A rank that contributed its points and exited is not lost: its
        pipe's EOF may reach the root before the last broadcast ends."""
        prev, curr = _pair()
        cfg = NumarckConfig(error_bound=E, nbits=8)
        ps, cs = block_partition(prev, 3), block_partition(curr, 3)
        degraded = 0
        for _ in range(50):
            outcomes = run_spmd(
                _encode_worker, 3, ps, cs, cfg, strict=False,
                comm_timeout=COMM_TIMEOUT, timeout=RUN_TIMEOUT)
            assert all(o.ok for o in outcomes)
            assert all(o.value["comm_lost"] == () for o in outcomes)
            degraded += any(o.value["degraded"] for o in outcomes)
        assert degraded == 0

    def test_two_ranks_lose_the_only_peer(self):
        """nprocs=2 with the non-root rank lost: root completes alone."""
        prev, curr = _pair(3000)
        cfg = NumarckConfig(error_bound=E, nbits=8)
        ps, cs = block_partition(prev, 2), block_partition(curr, 2)
        outcomes = run_spmd(
            _encode_worker, 2, ps, cs, cfg, strict=False,
            comm_timeout=COMM_TIMEOUT, timeout=RUN_TIMEOUT,
            faults={1: RankFaultInjector(crash_in_phase="insitu.sample_gather")})
        assert not outcomes[1].ok
        r = outcomes[0].value
        assert r["degraded"] and r["lost"] == (1,)
        assert r["n_points"] == ps[0].size
        assert r["max_err"] < 1.2 * E

    def test_clustering_with_refine_survives_crash(self):
        """Degraded mode also covers the distributed Lloyd refinement."""
        prev, curr = _pair()
        cfg = NumarckConfig(error_bound=E, nbits=8, strategy="clustering")
        ps, cs = block_partition(prev, 3), block_partition(curr, 3)
        outcomes = run_spmd(
            _encode_worker, 3, ps, cs, cfg, strict=False,
            comm_timeout=COMM_TIMEOUT, timeout=RUN_TIMEOUT,
            faults={1: RankFaultInjector(crash_in_phase="insitu.refine")})
        survivors = [o for o in outcomes if o.rank != 1]
        assert all(o.ok for o in survivors)
        for o in survivors:
            assert o.value["degraded"] and o.value["lost"] == (1,)
            assert o.value["max_err"] < 1.2 * E

    def test_root_loss_is_loud(self):
        """Losing rank 0 (the recovery coordinator) fails loudly."""
        prev, curr = _pair(3000)
        cfg = NumarckConfig(error_bound=E, nbits=8)
        ps, cs = block_partition(prev, 3), block_partition(curr, 3)
        outcomes = run_spmd(
            _encode_worker, 3, ps, cs, cfg, strict=False,
            comm_timeout=COMM_TIMEOUT, timeout=RUN_TIMEOUT,
            faults={0: RankFaultInjector(crash_in_phase="insitu.fit_bcast")})
        assert not outcomes[0].ok
        for o in outcomes[1:]:
            assert (not o.ok) and "RankFailureError" in (o.error or "")


class TestHarnessHygiene:
    def test_timeout_terminates_and_reaps_children(self):
        """Ranks that miss the deadline are killed, not leaked."""
        t0 = time.monotonic()
        outcomes = run_spmd(_sleepy_worker, 3, strict=False,
                            comm_timeout=1.0, timeout=2.0)
        elapsed = time.monotonic() - t0
        assert elapsed < 8.0
        assert outcomes[1].timed_out and not outcomes[1].ok
        assert active_children() == []  # no live children, no zombies

    def test_strict_timeout_raises_and_reaps(self):
        with pytest.raises(RuntimeError, match="no result within"):
            run_spmd(_sleepy_worker, 2, comm_timeout=1.0, timeout=1.5)
        assert active_children() == []

    def test_traceback_propagated(self):
        """Failures carry the rank's full traceback, not just the repr."""
        with pytest.raises(RuntimeError) as ei:
            run_spmd(_boom_worker, 2, timeout=RUN_TIMEOUT)
        msg = str(ei.value)
        assert "rank 1: ValueError: boom-with-context" in msg
        assert "Traceback (most recent call last)" in msg
        assert "_boom_helper" in msg

    def test_outcome_traceback_nonstrict(self):
        outcomes = run_spmd(_boom_worker, 2, strict=False, timeout=RUN_TIMEOUT)
        assert outcomes[0].ok and outcomes[0].value == 0
        assert "boom-with-context" in outcomes[1].error
        assert "_boom_helper" in outcomes[1].traceback

    def test_single_proc_nonstrict(self):
        outcomes = run_spmd(lambda comm: comm.size, 1, strict=False)
        assert outcomes[0].ok and outcomes[0].value == 1

