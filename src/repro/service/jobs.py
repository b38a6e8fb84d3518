"""Bounded job queue and worker pool for the compression service.

Jobs move through ``queued -> running -> done | failed | cancelled``.
The queue is *bounded*: once ``capacity`` jobs are waiting, further
submits raise :class:`~repro.errors.QueueFullError` (the HTTP layer turns
that into ``429`` + ``Retry-After``) instead of buffering unboundedly --
backpressure is the contract, and a job that *was* accepted is never
dropped: workers drain the queue until :meth:`JobQueue.close`.

Progress comes from telemetry, not ad-hoc callbacks.  Each worker thread
traces through the queue's own :class:`~repro.telemetry.tracer.Telemetry`
(scoped to it with :func:`~repro.telemetry.tracer.use`) and holds its
running job in a ``contextvars`` variable, so the queue's sink folds each
finished span into that job's ``progress`` dict (span count, bytes in/out,
last stage name).  Every span is also teed to the sink of the telemetry
ambient where :meth:`JobQueue.start` was called, so ``NUMARCK_TRACE`` or
``repro --trace`` keeps working while a server is up; no other thread's
telemetry changes.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from contextvars import ContextVar
from typing import Any, Callable

from repro.errors import (
    JobCancelledError,
    JobNotFoundError,
    QueueFullError,
    ServiceUnavailableError,
    StateError,
)
from repro.telemetry.tracer import Telemetry, get_telemetry, use

__all__ = ["Job", "JobQueue"]

#: terminal job states.
FINISHED = frozenset({"done", "failed", "cancelled"})


class Job:
    """One unit of service work and its observable lifecycle."""

    def __init__(self, job_id: str, kind: str,
                 fn: Callable[[], bytes], *,
                 chain_id: str | None = None) -> None:
        self.id = job_id
        self.kind = kind
        self.chain_id = chain_id
        self.fn: Callable[[], bytes] | None = fn
        self.state = "queued"
        self.progress: dict[str, Any] = {"spans": 0, "bytes_in": 0,
                                         "bytes_out": 0, "last_stage": None}
        self.result: bytes | None = None
        self.error: BaseException | None = None
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.finished = threading.Event()

    def to_dict(self) -> dict[str, Any]:
        """Status JSON for the HTTP surface."""
        out: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "progress": dict(self.progress),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.chain_id is not None:
            out["chain"] = self.chain_id
        if self.result is not None:
            out["result_bytes"] = len(self.result)
        if self.error is not None:
            out["error"] = {"type": type(self.error).__name__,
                            "message": str(self.error)}
        return out


#: the job running in this worker context; read by :class:`_ProgressSink`.
_current_job: ContextVar[Job | None] = ContextVar("job", default=None)


class _ProgressSink:
    """Span sink that folds each record into the progress of the job
    running in the emitting context, then tees it downstream."""

    def __init__(self, downstream=None) -> None:
        self._downstream = downstream

    def write(self, record: dict) -> None:
        job = _current_job.get()
        if job is not None and record.get("type") == "span":
            prog = job.progress
            prog["spans"] += 1
            attrs = record.get("attrs", {})
            for key in ("bytes_in", "bytes_out"):
                amount = attrs.get(key)
                if isinstance(amount, (int, float)):
                    prog[key] += int(amount)
            prog["last_stage"] = record.get("name")
            prog["updated_at"] = time.time()
        if self._downstream is not None:
            self._downstream.write(record)

    def flush(self) -> None:
        if self._downstream is not None:
            self._downstream.flush()

    def close(self) -> None:
        # The downstream sink belongs to the starter's telemetry (e.g. the
        # NUMARCK_TRACE exit-flushed file); flush but never close it.
        self.flush()


class JobQueue:
    """Bounded FIFO of :class:`Job` executed by a small worker pool.

    Parameters
    ----------
    capacity:
        Maximum number of *queued* (not yet running) jobs; submits beyond
        it raise :class:`~repro.errors.QueueFullError`.
    workers:
        Worker-thread count.  A job that raises is marked ``failed`` and
        its worker keeps serving -- a crashing job must not shrink the
        pool.
    retry_after:
        Advisory client back-off (seconds) carried on the 429.
    """

    def __init__(self, capacity: int = 32, workers: int = 2, *,
                 retry_after: float = 0.05) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.capacity = capacity
        self.retry_after = retry_after
        self._queue: queue.Queue[Job | None] = queue.Queue()
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._queued = 0
        self._running = 0
        self._done = 0
        self._failed = 0
        self._cancelled = 0
        self._unpaused = threading.Event()
        self._unpaused.set()
        self._open = False
        self._tel: Telemetry | None = None
        self._threads = [
            threading.Thread(target=self._worker, name=f"numarck-worker-{i}",
                             daemon=True)
            for i in range(workers)
        ]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "JobQueue":
        """Start the workers, teeing job spans into the sink of the
        telemetry ambient here; nothing is installed process-wide."""
        sink = _ProgressSink(getattr(get_telemetry(), "sink", None))
        self._tel = Telemetry(sink=sink, keep_spans=False)
        self._open = True
        for t in self._threads:
            t.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Drain accepted jobs, stop workers, and close the queue's
        telemetry (its metrics snapshot goes to the tee)."""
        if not self._open:
            return
        self._open = False
        self._unpaused.set()
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout=timeout)
        if self._tel is not None:
            self._tel.close()
            self._tel = None

    def pause(self) -> None:
        """Stop workers from picking up further jobs (tests use this to
        fill the queue deterministically); running jobs finish."""
        self._unpaused.clear()

    def resume(self) -> None:
        self._unpaused.set()

    # -- submission and lookup ---------------------------------------------

    def submit(self, kind: str, fn: Callable[[], bytes], *,
               chain_id: str | None = None) -> Job:
        """Queue a job or raise :class:`~repro.errors.QueueFullError`."""
        with self._lock:
            if not self._open:
                raise ServiceUnavailableError("job queue is shut down")
            if self._queued >= self.capacity:
                raise QueueFullError(
                    f"job queue full ({self.capacity} queued)",
                    retry_after=self.retry_after,
                )
            job = Job(f"job-{next(self._ids)}", kind, fn, chain_id=chain_id)
            self._jobs[job.id] = job
            self._queued += 1
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Job:
        """Cancel a *queued* job; the worker discards it on dequeue.

        Running jobs are not interruptible (the encoder has no safe
        preemption point) and finished jobs are immutable -- both raise
        :class:`~repro.errors.StateError` (HTTP 409).
        """
        job = self.get(job_id)
        with self._lock:
            if job.state != "queued":
                raise StateError(
                    f"cannot cancel job {job_id!r} in state {job.state!r}"
                )
            job.state = "cancelled"
            job.fn = None
            job.error = JobCancelledError(f"job {job_id!r} was cancelled")
            job.finished_at = time.time()
            self._queued -= 1
            self._cancelled += 1
        job.finished.set()
        return job

    def result(self, job_id: str) -> bytes:
        """Result bytes of a finished job; re-raises its error otherwise."""
        job = self.get(job_id)
        if job.state in ("queued", "running"):
            raise StateError(
                f"job {job_id!r} is {job.state}; result not ready"
            )
        if job.error is not None:
            raise job.error
        assert job.result is not None
        return job.result

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        job = self.get(job_id)
        if not job.finished.wait(timeout):
            raise StateError(f"timed out waiting for job {job_id!r}")
        return job

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "workers": len(self._threads),
                "queued": self._queued,
                "running": self._running,
                "done": self._done,
                "failed": self._failed,
                "cancelled": self._cancelled,
                "accepting": self._open and self._queued < self.capacity,
            }

    # -- worker loop -------------------------------------------------------

    def _worker(self) -> None:
        with use(self._tel):
            while True:
                job = self._queue.get()
                if job is None:
                    return
                # The pause gate sits *after* dequeue: idle workers block
                # in get(), so gating only before it would let them start
                # jobs submitted while paused.  A held job still counts as
                # queued (and stays cancellable) until the gate opens.
                self._unpaused.wait()
                with self._lock:
                    if job.state != "queued":  # cancelled while waiting
                        continue
                    job.state = "running"
                    job.started_at = time.time()
                    self._queued -= 1
                    self._running += 1
                token = _current_job.set(job)
                try:
                    job.result = job.fn()
                except BaseException as exc:  # noqa: BLE001 - job isolation
                    job.error = exc
                    with self._lock:
                        job.state = "failed"
                        self._running -= 1
                        self._failed += 1
                else:
                    with self._lock:
                        job.state = "done"
                        self._running -= 1
                        self._done += 1
                finally:
                    _current_job.reset(token)
                    # The closure pins the job's input; keep only the result.
                    job.fn = None
                    job.finished_at = time.time()
                    job.finished.set()
