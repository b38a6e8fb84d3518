"""Span-based tracing for the compression pipeline.

A *span* is one timed stage -- ``encode``, ``strategy.clustering.fit``,
``io.write_record`` -- with wall and CPU time, arbitrary key/value
attributes (bytes in/out, point counts, sweep counts) and a parent link,
so a trace is a tree per top-level operation.  Spans nest through an
ordinary ``with`` block::

    tel = Telemetry()
    with tel.span("encode", n_points=n) as sp:
        with tel.span("encode.fit"):
            ...
        sp.set(bytes_out=payload_size)

The library's hot paths trace through the *ambient* telemetry object
(:func:`get_telemetry`), which defaults to a shared :class:`NullTelemetry`
whose ``span()`` returns one preallocated no-op context manager -- the
disabled path costs a dict build for the call-site attributes and nothing
else, keeping untraced throughput within noise of uninstrumented code.

:func:`use` scopes a :class:`Telemetry` to the calling thread (or task);
blocks nest, and threads started inside one do not see it.  Elsewhere the
ambient object is the process default, set by :func:`set_telemetry` or by
pointing the ``NUMARCK_TRACE`` environment variable at a file: every
finished span is then appended to that JSONL file (see
:mod:`repro.telemetry.sink`), flushed at interpreter exit, so existing
scripts gain traces without a single code change.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from repro.telemetry.metrics import MetricsRegistry, NullMetricsRegistry

__all__ = [
    "Span",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "use",
]


class Span:
    """One timed pipeline stage; a reentrant-unsafe context manager.

    Attributes are free-form; byte counts use the conventional keys
    ``bytes_in`` / ``bytes_out`` so :mod:`repro.telemetry.report` can
    aggregate throughput without knowing every stage.  ``cpu_s`` is the
    CPU time of the span's own thread, so a server's spans do not count
    their neighbours' work.
    """

    __slots__ = ("name", "span_id", "parent_id", "depth", "attrs",
                 "t_start", "wall_s", "cpu_s", "_cpu_start", "_tel",
                 "_mem_start", "_mem_peak")

    def __init__(self, tel: "Telemetry", name: str, span_id: int,
                 parent_id: int | None, depth: int,
                 attrs: dict[str, Any]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.attrs = attrs
        self._tel = tel
        self.t_start = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._cpu_start = 0.0
        self._mem_start = 0
        self._mem_peak = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def add(self, key: str, amount: float) -> None:
        """Accumulate a numeric attribute (missing keys start at 0)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def __enter__(self) -> "Span":
        self._tel._push(self)
        if self._tel._memory:
            # Sample memory before the clocks start so the gauge overhead
            # never pollutes the span's own timing.
            current, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            self._mem_start = current
            self._mem_peak = current
        self.t_start = time.perf_counter()
        self._cpu_start = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self.t_start
        self.cpu_s = time.thread_time() - self._cpu_start
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if self._tel._memory:
            self._record_memory()
        self._tel._pop(self)
        return None

    def _record_memory(self) -> None:
        """Attach the peak-memory gauge; propagate the peak to the parent.

        ``tracemalloc``'s peak is process-global and we reset it on every
        span entry, so each span only sees the peak since its *youngest
        descendant* entered.  Finished children therefore report their
        observed peak up the open-span stack, and every span's final peak
        is the max over its own segments and all child peaks.
        """
        _, peak = tracemalloc.get_traced_memory()
        peak = max(peak, self._mem_peak)
        self.attrs["mem_py_peak_kb"] = round(
            max(peak - self._mem_start, 0) / 1024, 3)
        tracemalloc.reset_peak()
        stack = self._tel._stack()
        if len(stack) >= 2 and stack[-1] is self:
            parent = stack[-2]
            parent._mem_peak = max(parent._mem_peak, peak)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (one JSONL trace line)."""
        return {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "t_start": self.t_start,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, wall={self.wall_s:.6f}s, "
                f"attrs={self.attrs})")


class _NullSpan:
    """Shared, allocation-free stand-in used when tracing is disabled."""

    __slots__ = ()
    name = ""
    wall_s = 0.0
    cpu_s = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def add(self, key: str, amount: float) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Disabled telemetry: every operation is a no-op.

    A single module-level instance (:data:`NULL_TELEMETRY`) is the ambient
    default, so instrumented code never branches on "is tracing on" -- it
    always opens a span and the null implementation throws the work away.
    """

    enabled = False

    def __init__(self) -> None:
        self.metrics = NullMetricsRegistry()
        self.spans: tuple[Span, ...] = ()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class Telemetry:
    """In-memory span collector with an optional streaming sink.

    Parameters
    ----------
    sink:
        Object with ``write(record: dict)`` / ``flush()`` / ``close()``
        (e.g. :class:`repro.telemetry.sink.JsonlSink`).  Every finished
        span is forwarded to it in completion order; ``close()`` also
        writes one final metrics-snapshot record.
    keep_spans:
        Retain finished spans in :attr:`spans` (default).  Long-running
        producers that only stream to a sink can turn this off to bound
        memory.
    memory:
        Attach a peak-memory gauge to every span: ``mem_py_peak_kb``,
        the peak python-heap growth inside the span, via ``tracemalloc``.
        Starts ``tracemalloc`` if it is not already tracing (and stops it
        again on :meth:`close`).  Tracing allocations slows allocation-heavy
        code noticeably, so timing-sensitive runs should measure time
        and memory in separate passes (``repro.bench`` does).
    """

    enabled = True

    def __init__(self, sink=None, *, keep_spans: bool = True,
                 memory: bool = False) -> None:
        self.metrics = MetricsRegistry()
        self.spans: list[Span] = []
        self._sink = sink
        self._keep_spans = keep_spans
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._memory = bool(memory)
        self._started_tracemalloc = False
        if self._memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    # -- span lifecycle ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> Span:
        """Create a span; it starts timing on ``__enter__``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, name, span_id,
                    parent.span_id if parent else None,
                    len(stack), attrs)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - misnested exit
            stack.remove(span)
        with self._lock:
            if self._keep_spans:
                self.spans.append(span)
            if self._sink is not None:
                self._sink.write(span.to_dict())

    @property
    def sink(self):
        """The streaming sink (or ``None``).  Exposed so wrappers -- e.g.
        the service job queue's progress sink -- can tee into an existing
        sink without owning its lifecycle."""
        return self._sink

    # -- export ------------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """Finished spans plus the metrics snapshot, as trace dicts."""
        with self._lock:
            out = [s.to_dict() for s in self.spans]
        snapshot = self.metrics.snapshot()
        if any(snapshot.values()):
            out.append({"type": "metrics", **snapshot})
        return out

    def export(self, path) -> int:
        """Write every finished span (and metrics) to a JSONL file.

        Returns the number of records written.  Unlike a streaming sink
        this rewrites ``path`` from scratch, which is what tests and
        one-shot benchmark scripts want.
        """
        from repro.telemetry.sink import JsonlSink

        records = self.records()
        sink = JsonlSink(path, append=False)
        try:
            for rec in records:
                sink.write(rec)
        finally:
            sink.close()
        return len(records)

    def flush(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        if self._sink is not None:
            snapshot = self.metrics.snapshot()
            if any(snapshot.values()):
                self._sink.write({"type": "metrics", **snapshot})
            self._sink.close()
            self._sink = None
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False


#: process-wide disabled default; see :func:`get_telemetry`.
NULL_TELEMETRY = NullTelemetry()

_default: Telemetry | NullTelemetry = NULL_TELEMETRY
_scoped: ContextVar[Telemetry | NullTelemetry | None] = ContextVar(
    "numarck_telemetry", default=None)


def get_telemetry() -> Telemetry | NullTelemetry:
    """The ambient telemetry object instrumented code traces through: the
    one :func:`use` scoped to this context, else the process default."""
    tel = _scoped.get()
    return _default if tel is None else tel


def set_telemetry(tel: Telemetry | NullTelemetry | None
                  ) -> Telemetry | NullTelemetry:
    """Install ``tel`` as the process default; returns the previous one.

    ``None`` restores the disabled default.  :func:`use` blocks override it.
    """
    global _default
    previous = _default
    _default = tel if tel is not None else NULL_TELEMETRY
    return previous


@contextmanager
def use(tel: Telemetry | NullTelemetry) -> Iterator[Telemetry | NullTelemetry]:
    """Make ``tel`` ambient for this thread (or task) until the block
    exits; blocks nest, each exit restoring what its entry found."""
    token = _scoped.set(tel)
    try:
        yield tel
    finally:
        _scoped.reset(token)
