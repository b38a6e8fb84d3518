"""The layers the traced run wraps, and the per-layer metrics.

Layers are repro modules.  Each is measured by wrapping its public
functions and methods with :class:`spans.SpanRecorder`:

* ``install_library`` -- core, kmeans, bitpack and io, in every system
  child (the server includes them);
* ``install_server`` -- adds http, wire, jobs and chains in the server;
* ``install_client`` -- ``ServiceClient`` and its wire framing in
  ``run.py``, the client side.

Every ``*_s`` metric is a self time summed over the run: the wrapped
calls' wall time minus the wrapped calls made inside them.  Self times
come from :func:`repro.telemetry.analysis.stage_rollup`.
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Sequence

import numpy as np

from repro.telemetry.analysis import stage_rollup

from spans import SpanRecorder

__all__ = ["install_library", "install_server", "install_client",
           "layer_metrics"]


def _job_id(args, kwargs, result) -> dict:
    return {"job": result["id"]}


def install_library(rec: SpanRecorder) -> None:
    import repro  # noqa: F401 - loads every module that holds a target
    import repro.io
    from repro.bitpack import pack_bits, unpack_bits
    from repro.codec import Codec
    from repro.core.change import change_ratios
    from repro.core.decoder import decode_iteration
    from repro.core.encoder import encode_pair
    from repro.core.metrics import iteration_stats
    from repro.core.strategies.base import BinModel
    from repro.core.strategies.clustering import ClusteringStrategy
    from repro.core.strategies.equal_width import EqualWidthStrategy
    from repro.core.strategies.log_scale import LogScaleStrategy
    from repro.core.streaming import decode_stream
    from repro.io.container import CheckpointFile
    from repro.kmeans import kmeans1d

    rec.patch_function(encode_pair, "core.encode_pair",
                       lambda a, k, r: {"model_reused": r[1].model_reused})
    rec.patch_function(change_ratios, "core.change_ratios")
    rec.patch_method(BinModel, "assign", "core.assign")
    for strategy in (ClusteringStrategy, EqualWidthStrategy, LogScaleStrategy):
        rec.patch_method(strategy, "fit", "core.fit")
    rec.patch_function(iteration_stats, "core.iteration_stats")
    rec.patch_function(decode_iteration, "core.decode_iteration")
    rec.patch_method(Codec, "compress_stream_arrays", "core.stream_encode")
    rec.patch_function(decode_stream, "core.stream_decode", iterator=True)
    rec.patch_function(kmeans1d, "kmeans.fit",
                       lambda a, k, r: {"sweeps": r.n_iter})
    rec.patch_function(pack_bits, "bitpack.pack",
                       lambda a, k, r: {"values": int(np.size(a[0]))})
    rec.patch_function(unpack_bits, "bitpack.unpack",
                       lambda a, k, r: {"values": int(r.size)})
    rec.patch_method(CheckpointFile, "append", "io.append_open")
    rec.replace(os, "fsync", rec.wrap("io.fsync", os.fsync))
    rec.patch_function(repro.io.encode_delta_bytes, "io.encode_delta")
    rec.patch_function(repro.io.decode_delta_bytes, "io.decode_delta")
    rec.patch_function(repro.io.chain_to_bytes, "io.chain_to_bytes")
    rec.patch_function(repro.io.chain_from_bytes, "io.chain_from_bytes",
                       lambda a, k, r: {"deltas": len(r) - 1})
    rec.patch_function(repro.io.load_chain, "io.load_chain")
    rec.patch_function(repro.io.streamed_to_bytes, "io.streamed_to_bytes")


def install_server(rec: SpanRecorder) -> None:
    import repro.service  # before install_library: its modules hold targets
    install_library(rec)
    from repro.service import wire
    from repro.service.chains import Chain
    from repro.service.http import _Handler
    from repro.service.jobs import JobQueue

    rec.patch_method(
        _Handler, "handle_one_request", "http.request",
        # A keep-alive handler's last call only reads the client's EOF.
        lambda a, k, r: {"request": bool(getattr(a[0], "raw_requestline",
                                                 b""))})
    rec.patch_function(wire.read_chunked, "wire.read_chunked")
    rec.patch_function(wire.unpack_arrays, "wire.unpack_arrays")
    rec.patch_function(wire.pack_arrays, "wire.pack_arrays")
    rec.patch_method(Chain, "append_state", "chains.append_state")
    rec.patch_method(Chain, "container_bytes", "chains.container_bytes")

    submit = JobQueue.submit

    def traced_submit(queue, kind, fn, **kwargs):
        # The job's work runs on a worker thread; a ``jobs.run`` root span
        # there carries the job id that ties it to the submitting request.
        attrs: dict[str, Any] = {"kind": kind}

        def run():
            with rec.span("jobs.run", attrs):
                return fn()

        job = submit(queue, kind, run, **kwargs)
        attrs["job"] = job.id
        return job

    rec.replace(JobQueue, "submit",
                rec.wrap("jobs.submit", traced_submit,
                         lambda a, k, r: {"job": r.id}))


def install_client(rec: SpanRecorder) -> None:
    from repro.service import wire
    from repro.service.client import ServiceClient

    rec.patch_method(ServiceClient, "compress", "client.compress", _job_id)
    rec.patch_method(ServiceClient, "decompress", "client.decompress")
    rec.patch_method(ServiceClient, "submit_compress", "client.submit",
                     _job_id)
    rec.patch_method(ServiceClient, "submit_decompress", "client.submit",
                     _job_id)
    rec.patch_method(ServiceClient, "status", "client.poll")
    rec.patch_method(ServiceClient, "result", "client.fetch")
    rec.patch_method(ServiceClient, "download_chain", "client.fetch")
    rec.patch_function(wire.pack_arrays, "wire.pack_arrays")
    rec.patch_function(wire.unpack_arrays, "wire.unpack_arrays")


# -- per-layer metrics ------------------------------------------------------

#: metric -> stage whose summed self time it reports.
_SELF_TIMES = {
    "client.submit_s": "client.submit",
    "client.fetch_s": "client.fetch",
    "http.self_s": "http.request",
    "wire.read_chunked_s": "wire.read_chunked",
    "wire.unpack_arrays_s": "wire.unpack_arrays",
    "wire.pack_arrays_s": "wire.pack_arrays",
    "chains.append_state_s": "chains.append_state",
    "chains.container_bytes_s": "chains.container_bytes",
    "core.encode_pair_s": "core.encode_pair",
    "core.change_ratios_s": "core.change_ratios",
    "core.assign_s": "core.assign",
    "core.fit_s": "core.fit",
    "core.iteration_stats_s": "core.iteration_stats",
    "core.decode_iteration_s": "core.decode_iteration",
    "core.stream_encode_s": "core.stream_encode",
    "core.stream_decode_s": "core.stream_decode",
    "kmeans.fit_s": "kmeans.fit",
    "bitpack.pack_s": "bitpack.pack",
    "bitpack.unpack_s": "bitpack.unpack",
    "io.append_open_s": "io.append_open",
    "io.fsync_s": "io.fsync",
    "io.encode_delta_s": "io.encode_delta",
    "io.decode_delta_s": "io.decode_delta",
    "io.chain_to_bytes_s": "io.chain_to_bytes",
    "io.chain_from_bytes_s": "io.chain_from_bytes",
    "io.load_chain_s": "io.load_chain",
    "io.streamed_to_bytes_s": "io.streamed_to_bytes",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(traces: Mapping[str, Sequence[Mapping[str, Any]]],
                  system: str, jobs: Sequence[Sequence],
                  cpu_s: float, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``traces`` maps a process name to its span records, ``system`` names
    the system child among them, ``jobs`` holds the server's
    ``(kind, state, created_at, started_at, finished_at)`` per job.
    """
    stages: dict[str, dict[str, float]] = {}
    spans = []
    for records in traces.values():
        spans += [r for r in records if r.get("type") == "span"]
        for name, agg in stage_rollup(records).items():
            total = stages.setdefault(name, {"calls": 0, "self_s": 0.0})
            total["calls"] += agg["calls"]
            total["self_s"] += agg["self_s"]

    def calls(stage: str) -> int:
        return int(stages.get(stage, {}).get("calls", 0))

    def attr_sum(stage: str, key: str) -> float:
        return float(sum((s.get("attrs") or {}).get(key, 0)
                         for s in spans if s["name"] == stage))

    def count(stage: str, key: str, value: Any) -> int:
        return sum(1 for s in spans if s["name"] == stage
                   and (s.get("attrs") or {}).get(key) == value)

    out = {metric: stages.get(stage, {}).get("self_s", 0.0)
           for metric, stage in _SELF_TIMES.items()}

    finished = [j for j in jobs if j[3] is not None and j[4] is not None]
    waits = [(j[3] - j[2]) * 1e3 for j in finished]
    runs = [(j[4] - j[3]) * 1e3 for j in finished]
    out.update({
        "client.polls_per_job": _ratio(calls("client.poll"),
                                       calls("client.submit")),
        "client.retries_429": count("client.submit", "error",
                                    "QueueFullError"),
        "http.requests": count("http.request", "request", True),
        "jobs.queue_wait_ms_p50": _pct(waits, 50),
        "jobs.queue_wait_ms_p95": _pct(waits, 95),
        "jobs.run_ms_p50": _pct(runs, 50),
        "jobs.run_ms_p95": _pct(runs, 95),
        "jobs.failed": sum(1 for j in jobs if j[1] in ("failed",
                                                        "cancelled")),
        "chains.reuse_hit_ratio": _ratio(
            count("core.encode_pair", "model_reused", True),
            calls("core.encode_pair")),
        "core.decodes_per_delta": _ratio(
            calls("core.decode_iteration"),
            attr_sum("io.chain_from_bytes", "deltas")),
        "kmeans.fits": calls("kmeans.fit"),
        "kmeans.sweeps_per_fit": _ratio(attr_sum("kmeans.fit", "sweeps"),
                                        calls("kmeans.fit")),
        "bitpack.values": attr_sum("bitpack.pack", "values")
                          + attr_sum("bitpack.unpack", "values"),
        "io.fsync_calls": calls("io.fsync"),
        "system.cpu_s": cpu_s,
        # Self times partition a trace, so their sum is the root wall time.
        "system.span_s": sum(float(r["wall_s"]) for r in traces[system]
                             if r.get("type") == "span"
                             and r.get("parent") is None),
        "trace_overhead_pct": overhead_pct,
    })
    return out
