"""Unit tests for the service job queue: lifecycle, backpressure,
cancellation, crash isolation and telemetry-fed progress."""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.errors import (
    JobCancelledError,
    JobNotFoundError,
    QueueFullError,
    ServiceUnavailableError,
    StateError,
)
from repro import Codec
from repro.io import chain_to_bytes
from repro.service.app import CompressionService, ServiceConfig
from repro.service.jobs import JobQueue
from repro.service.wire import unpack_arrays
from repro.telemetry.tracer import Telemetry, get_telemetry, use


@pytest.fixture
def queue():
    q = JobQueue(capacity=8, workers=2).start()
    yield q
    q.close()


class TestLifecycle:
    def test_done_job(self, queue):
        job = queue.submit("t", lambda: b"payload")
        queue.wait(job.id, timeout=10)
        assert job.state == "done"
        assert queue.result(job.id) == b"payload"
        assert job.started_at is not None and job.finished_at is not None

    def test_result_before_done_is_conflict(self, queue):
        queue.pause()
        job = queue.submit("t", lambda: b"x")
        with pytest.raises(StateError):
            queue.result(job.id)
        queue.resume()
        queue.wait(job.id, timeout=10)

    def test_unknown_job(self, queue):
        with pytest.raises(JobNotFoundError):
            queue.get("job-999")

    def test_submit_after_close(self):
        q = JobQueue(capacity=2, workers=1).start()
        q.close()
        with pytest.raises(ServiceUnavailableError):
            q.submit("t", lambda: b"")

    def test_close_drains_accepted_jobs(self):
        q = JobQueue(capacity=16, workers=2).start()
        jobs = [q.submit("t", lambda i=i: f"r{i}".encode())
                for i in range(10)]
        q.close()  # must not drop any accepted job
        assert all(j.state == "done" for j in jobs)

    def test_validation(self):
        with pytest.raises(ValueError):
            JobQueue(capacity=0)
        with pytest.raises(ValueError):
            JobQueue(workers=0)


class TestBackpressure:
    def test_full_queue_raises_and_drains(self, queue):
        queue.pause()
        accepted = [queue.submit("t", lambda: b"ok") for _ in range(8)]
        with pytest.raises(QueueFullError) as exc_info:
            queue.submit("t", lambda: b"overflow")
        assert exc_info.value.retry_after > 0
        assert queue.stats()["accepting"] is False
        queue.resume()
        for job in accepted:
            queue.wait(job.id, timeout=10)
            assert queue.result(job.id) == b"ok"
        # Capacity frees up once the accepted jobs drained.
        late = queue.submit("t", lambda: b"late")
        queue.wait(late.id, timeout=10)
        assert late.state == "done"


class TestCancellation:
    def test_cancel_queued(self, queue):
        queue.pause()
        job = queue.submit("t", lambda: b"never")
        queue.cancel(job.id)
        assert job.state == "cancelled"
        with pytest.raises(JobCancelledError):
            queue.result(job.id)
        queue.resume()
        # The worker discards the cancelled job; the queue stays healthy.
        ok = queue.submit("t", lambda: b"ok")
        queue.wait(ok.id, timeout=10)
        assert ok.result == b"ok"

    def test_cancel_running_is_conflict(self, queue):
        release = threading.Event()
        started = threading.Event()

        def body():
            started.set()
            release.wait(10)
            return b"done"

        job = queue.submit("t", body)
        assert started.wait(10)
        with pytest.raises(StateError):
            queue.cancel(job.id)
        release.set()
        queue.wait(job.id, timeout=10)
        assert job.state == "done"

    def test_cancel_finished_is_conflict(self, queue):
        job = queue.submit("t", lambda: b"x")
        queue.wait(job.id, timeout=10)
        with pytest.raises(StateError):
            queue.cancel(job.id)


class TestCrashIsolation:
    def test_failing_job_marks_failed(self, queue):
        def boom():
            raise RuntimeError("worker exploded")

        job = queue.submit("t", boom)
        queue.wait(job.id, timeout=10)
        assert job.state == "failed"
        with pytest.raises(RuntimeError, match="worker exploded"):
            queue.result(job.id)

    def test_pool_survives_crashes(self, queue):
        def boom():
            raise ValueError("bad input")

        for _ in range(6):
            job = queue.submit("t", boom)
            queue.wait(job.id, timeout=10)
            assert job.state == "failed"
        survivor = queue.submit("t", lambda: b"alive")
        queue.wait(survivor.id, timeout=10)
        assert survivor.result == b"alive"
        stats = queue.stats()
        assert stats["failed"] == 6 and stats["done"] == 1


class TestProgress:
    def test_spans_feed_progress(self, queue):
        def traced():
            with get_telemetry().span("stage.one", bytes_in=100):
                pass
            with get_telemetry().span("stage.two", bytes_out=40):
                pass
            return b"ok"

        job = queue.submit("t", traced)
        queue.wait(job.id, timeout=10)
        assert job.progress["spans"] >= 2
        assert job.progress["bytes_in"] >= 100
        assert job.progress["bytes_out"] >= 40
        assert job.progress["last_stage"] == "stage.two"

    def test_progress_isolated_per_job(self, queue):
        def traced(tag):
            with get_telemetry().span(f"stage.{tag}"):
                time.sleep(0.01)
            return tag.encode()

        jobs = [queue.submit("t", lambda t=f"j{i}": traced(t))
                for i in range(6)]
        for job in jobs:
            queue.wait(job.id, timeout=10)
        for i, job in enumerate(jobs):
            assert job.progress["last_stage"] == f"stage.j{i}"

    def test_ambient_telemetry_restored_after_close(self):
        before = get_telemetry()
        q = JobQueue(capacity=2, workers=1).start()
        assert get_telemetry() is before
        q.close()
        assert get_telemetry() is before

    def test_status_dict_shape(self, queue):
        job = queue.submit("t", lambda: b"x", chain_id="c1")
        queue.wait(job.id, timeout=10)
        doc = job.to_dict()
        assert doc["id"] == job.id
        assert doc["state"] == "done"
        assert doc["chain"] == "c1"
        assert doc["result_bytes"] == 1
        assert isinstance(doc["progress"], dict)


def _traced_job() -> bytes:
    with get_telemetry().span("stage.job", bytes_in=8):
        pass
    return b"ok"


class _ListSink:
    def __init__(self):
        self.records = []

    def write(self, record):
        self.records.append(record)

    def flush(self):
        pass

    def close(self):
        pass


class TestAmbientScope:
    """A running queue changes no other thread's ambient telemetry."""

    def test_overlapping_queues_first_closed_first(self):
        a = JobQueue(capacity=2, workers=1).start()
        b = JobQueue(capacity=2, workers=1).start()
        try:
            a.close()
            job = b.submit("t", _traced_job)
            b.wait(job.id, timeout=10)
            assert job.progress["spans"] == 1
            assert job.progress["last_stage"] == "stage.job"
        finally:
            b.close()

    @pytest.mark.parametrize("first", ["older", "newer"])
    def test_starter_telemetry_unchanged_in_any_close_order(self, first):
        before = get_telemetry()
        older = JobQueue(capacity=2, workers=1).start()
        newer = JobQueue(capacity=2, workers=1).start()
        assert get_telemetry() is before
        for q in ((older, newer) if first == "older" else (newer, older)):
            q.close()
            assert get_telemetry() is before

    def test_embedder_scope_keeps_its_own_spans(self):
        tel = Telemetry()
        with use(tel):
            q = JobQueue(capacity=2, workers=1).start()
            try:
                with get_telemetry().span("embedder.work"):
                    job = q.submit("t", _traced_job)
                    q.wait(job.id, timeout=10)
            finally:
                q.close()
        # The job's span went to the queue, not the embedder's collector.
        assert [s.name for s in tel.spans] == ["embedder.work"]
        assert job.progress["spans"] == 1

    def test_queue_started_under_use_tees_job_spans(self):
        # The ``repro --trace FILE serve`` shape: the queue starts inside
        # a scoped telemetry with a sink and tees every job span into it.
        sink = _ListSink()
        with use(Telemetry(sink=sink, keep_spans=False)):
            q = JobQueue(capacity=2, workers=1).start()
            try:
                job = q.submit("t", _traced_job)
                q.wait(job.id, timeout=10)
            finally:
                q.close()
        spans = [r for r in sink.records if r["type"] == "span"]
        assert [r["name"] for r in spans] == ["stage.job"]
        assert job.progress["spans"] == 1


class TestMemory:
    def test_finished_job_drops_its_input(self):
        # A finished job keeps its result, not the closure that pinned
        # its input: here a decompress job's upload body.
        rng = np.random.default_rng(7)
        states = [rng.uniform(1.0, 2.0, 1000)]
        states.append(states[0] * (1.0 + rng.normal(0.0, 1e-3, 1000)))
        blob = chain_to_bytes(Codec().compress_chain(states))
        with CompressionService(ServiceConfig(workers=1)) as svc:
            body = memoryview(blob)
            pinned = weakref.ref(body)
            job = svc.submit_decompress(body)
            del body
            assert svc.queue.wait(job.id, timeout=30).state == "done"
            gc.collect()
            assert pinned() is None
            assert job.fn is None
            assert len(unpack_arrays(svc.job_result(job.id))) == 2

    def test_cancelled_job_drops_its_input(self, queue):
        queue.pause()
        job = queue.submit("t", lambda: b"x")
        queue.cancel(job.id)
        queue.resume()
        assert job.fn is None
