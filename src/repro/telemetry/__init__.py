"""Observability for the compression pipeline: spans, metrics, traces.

NUMARCK's headline results are *timing* results -- the paper (and its
parallel follow-up) break compression cost into change-ratio computation,
clustering, encoding and I/O.  This package instruments those stages:

* **Spans** (:mod:`repro.telemetry.tracer`): nested, attributed timers
  around every hot path -- ``codec.compress`` > ``encode`` >
  ``encode.fit`` > ``kmeans.lloyd``, plus bit packing, container writes
  and incremental persistence.
* **Metrics** (:mod:`repro.telemetry.metrics`): counters, gauges and
  fixed-bucket histograms -- bytes written, ``fsync`` count, records
  salvaged, Lloyd sweeps to convergence, incompressible fraction.
  Fault-tolerant communication adds ``comm.rank_failures``,
  ``comm.transient_retries``, ``comm.resends``, ``comm.crc_errors``,
  ``insitu.degraded_encodes`` and the
  ``comm.failure_detect_s`` detection-latency histogram, plus
  zero-duration ``comm.rank_failure`` spans marking each first
  detection.
* **Trace export** (:mod:`repro.telemetry.sink`): append-only JSONL with
  torn-tail-tolerant reading, mirroring the checkpoint store's
  crash-consistency discipline.
* **Reports** (:mod:`repro.telemetry.report`): paper-style stage
  breakdown tables from a trace (also behind ``repro stats <trace>``).

The ambient default is a no-op tracer, so untraced runs pay nothing
measurable.  Enable tracing explicitly::

    from repro.telemetry import Telemetry, use

    tel = Telemetry()
    with use(tel):
        compressor.compress(prev, curr)
    tel.export("trace.jsonl")

or process-wide, without touching code, via the environment::

    NUMARCK_TRACE=trace.jsonl python examples/quickstart.py
    python -m repro stats trace.jsonl
"""

from __future__ import annotations

import atexit
import os

from repro.telemetry.accounting import (
    FRAME_OVERHEAD,
    delta_payload_nbytes,
    full_payload_nbytes,
    raw_nbytes,
    record_nbytes,
)
from repro.telemetry.analysis import (
    SpanNode,
    critical_path,
    diff_table,
    diff_traces,
    folded_stacks,
    self_time_ranking,
    span_tree,
    stage_rollup,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.telemetry.report import (
    metrics_table,
    stage_summary,
    stage_table,
    trace_totals,
)
from repro.telemetry.sink import JsonlSink, read_spans, read_trace
from repro.telemetry.tracer import (
    NULL_TELEMETRY,
    NullTelemetry,
    Span,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "Span",
    "get_telemetry",
    "set_telemetry",
    "use",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "DEFAULT_BUCKETS",
    "JsonlSink",
    "read_trace",
    "read_spans",
    "stage_summary",
    "stage_table",
    "metrics_table",
    "trace_totals",
    "SpanNode",
    "span_tree",
    "stage_rollup",
    "critical_path",
    "folded_stacks",
    "self_time_ranking",
    "diff_traces",
    "diff_table",
    "delta_payload_nbytes",
    "full_payload_nbytes",
    "record_nbytes",
    "raw_nbytes",
    "FRAME_OVERHEAD",
]

#: environment variable that enables process-wide tracing to a JSONL file.
TRACE_ENV_VAR = "NUMARCK_TRACE"

#: set to a truthy value alongside :data:`TRACE_ENV_VAR` to also attach
#: per-span peak-memory gauges (``tracemalloc`` heap + RSS high-water).
TRACE_MEMORY_ENV_VAR = "NUMARCK_TRACE_MEMORY"


def _activate_from_env() -> None:
    path = os.environ.get(TRACE_ENV_VAR)
    if not path:
        return
    memory = os.environ.get(TRACE_MEMORY_ENV_VAR, "").lower() in (
        "1", "true", "yes", "on")
    tel = Telemetry(sink=JsonlSink(path), keep_spans=False, memory=memory)
    set_telemetry(tel)
    atexit.register(tel.close)


_activate_from_env()
