"""A system child of the end-to-end benchmark: the service or the library.

``run.py`` starts one fresh child per set-up, so that
set-up time, peak RSS and CPU time belong to one workload::

    python child.py server WORKLOAD --store DIR [--trace FILE]
    python child.py library WORKLOAD --inputs NPZ --seconds S [--trace FILE]

The two talk in lines over stdin/stdout.  The server prints ``port N`` once
it listens, after recovering its store; it answers ``rss`` with its
resource use so far, and on ``stop`` it shuts down and prints a JSON
report.  The library child prints ``ready`` once repro is imported and
the ``Codec`` is built; on ``go`` it runs the workload, checks the
outputs and prints a JSON report; any other line ends it.

With ``--trace`` the child wraps its layers (see ``layers.py``) before it
builds the system, and writes its spans to FILE when it is done.  Repro
functions are called through their modules (``repro.io.chain_to_bytes``)
so that the wrappers see the calls.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Callable

import numpy as np

import repro.io
from repro import Codec
from repro.core.checkpoint import CheckpointChain

from checks import bound_violations, delta_bytes, delta_failures
from inputs import CONFIGS, STREAM_CHUNK

#: a library workload's output check, run once its wrappers are removed.
#: The workload returns it with its report, whose resource use is taken
#: right after the timed loop, before the report's own bookkeeping.
Check = Callable[[], list[str]]


def _usage() -> dict:
    """Peak RSS and CPU time of this process so far.

    The peak is the kernel's high-water mark of this process's own memory
    (``VmHWM``).  ``ru_maxrss`` would not do: a child starts with the
    ``ru_maxrss`` of the parent it was forked from, here ``run.py``.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_kb = float(usage.ru_maxrss)
    try:
        with open("/proc/self/status") as fh:
            peak_kb = next(float(line.split()[1]) for line in fh
                           if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass  # no procfs: fall back to ru_maxrss
    return {"rss_mb": peak_kb / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def _recorder(trace: str | None, installer: str):
    """A recorder with ``layers.<installer>`` applied, when tracing."""
    if trace is None:
        return None
    import layers
    from spans import SpanRecorder

    rec = SpanRecorder()
    getattr(layers, installer)(rec)
    return rec


def serve(args: argparse.Namespace) -> None:
    from repro.service import ServiceConfig, ServiceServer

    rec = _recorder(args.trace, "install_server")
    server = ServiceServer(ServiceConfig(workers=2, store_dir=args.store,
                                         codec=CONFIGS[args.workload]))
    server.start()
    print(f"port {server.port}", flush=True)
    for line in sys.stdin:
        if line.strip() != "rss":
            break
        print(json.dumps(_usage()), flush=True)
    jobs = [(j.kind, j.state, j.created_at, j.started_at, j.finished_at)
            for j in server.service.queue.jobs()]
    server.close()
    report = {"jobs": jobs, **_usage()}
    if rec is not None:
        rec.uninstall()
        rec.export(args.trace)
    print(json.dumps(report), flush=True)


def encode_paper(codec: Codec, data, seconds: float) -> tuple[dict, Check]:
    """Paper Algorithm 1 over the Table I variables.  A pass builds one
    ``CheckpointChain`` per variable, appending the variables in lock step,
    and serialises each with ``chain_to_bytes``.  The run ends at the
    deadline, but never before the first pass is complete: the compression
    ratio comes from complete passes only, so it depends on the seed alone,
    not on how fast the machine is."""
    stacks = {var: data[var] for var in data.files}
    depth = min(len(s) for s in stacks.values())
    latencies, nbytes = [], 0
    # container -> (variable, states); complete passes repeat their bytes.
    blobs: dict[bytes, tuple[str, int]] = {}
    start = time.perf_counter()
    deadline = start + seconds
    complete = False
    while not (complete and time.perf_counter() >= deadline):
        chains = {var: CheckpointChain(s[0], codec.config)
                  for var, s in stacks.items()}
        for t in range(1, depth):
            for var, chain in chains.items():
                t0 = time.perf_counter()
                chain.append(stacks[var][t])
                latencies.append(time.perf_counter() - t0)
                nbytes += stacks[var][t].nbytes
            if complete and time.perf_counter() >= deadline:
                break
        else:
            complete = True
        for var, chain in chains.items():
            blobs.setdefault(repro.io.chain_to_bytes(chain), (var, len(chain)))
    wall = time.perf_counter() - start
    usage = _usage()

    def check() -> list[str]:
        failures = []
        for blob, (var, n) in blobs.items():
            failures += delta_failures(f"{var}[:{n}]", blob, stacks[var][:n],
                                       codec.config.error_bound)
        return failures

    full = [(var, blob) for blob, (var, n) in blobs.items() if n == depth]
    return {
        "ops": len(latencies), "wall_s": wall, "bytes": nbytes,
        "latencies_s": latencies,
        "raw_bytes": sum((depth - 1) * stacks[var][0].nbytes
                         for var, _ in full),
        "container_bytes": sum(delta_bytes(blob, stacks[var][0])
                               for var, blob in full),
        **usage,
    }, check


def encode_stream(codec: Codec, data, seconds: float) -> tuple[dict, Check]:
    """Chunked two-pass encode of a float32 pair, serialised, parsed back
    and decoded in full: one round trip per operation."""
    prev, curr = data["prev"], data["curr"]
    prev_chunks = np.array_split(prev.ravel(), -(-prev.size // STREAM_CHUNK))
    latencies, failures = [], []
    first = decoded = None
    start = time.perf_counter()
    while not latencies or time.perf_counter() < start + seconds:
        t0 = time.perf_counter()
        blob = repro.io.streamed_to_bytes(
            codec.compress_stream_arrays(prev, curr))
        decoded = np.concatenate(list(codec.decompress_stream(
            iter(prev_chunks), repro.io.streamed_from_bytes(blob))))
        latencies.append(time.perf_counter() - t0)
        if first is None:
            first = blob
        elif blob != first:
            failures.append(f"round trip {len(latencies)}: container differs "
                            f"from the first round trip's")
    wall = time.perf_counter() - start
    usage = _usage()

    def check() -> list[str]:
        bad = bound_violations(prev, curr, decoded, codec.config.error_bound)
        return failures + ([f"{bad} decoded points break "
                            f"E={codec.config.error_bound}"] if bad else [])

    return {
        "ops": len(latencies), "wall_s": wall,
        "bytes": len(latencies) * curr.nbytes, "latencies_s": latencies,
        "raw_bytes": curr.nbytes, "container_bytes": len(first), **usage,
    }, check


LIBRARY_WORKLOADS = {"encode_paper": encode_paper,
                     "encode_stream": encode_stream}


def library(args: argparse.Namespace) -> None:
    rec = _recorder(args.trace, "install_library")
    codec = Codec(config=CONFIGS[args.workload], chunk_size=STREAM_CHUNK)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return
    data = np.load(args.inputs)
    report, check = LIBRARY_WORKLOADS[args.workload](codec, data,
                                                     args.seconds)
    if rec is not None:
        rec.uninstall()
        rec.export(args.trace)
    report["failures"] = check()
    print(json.dumps(report), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("server")
    p.add_argument("workload", choices=["ingest", "restore"])
    p.add_argument("--store", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=serve)
    p = sub.add_parser("library")
    p.add_argument("workload", choices=sorted(LIBRARY_WORKLOADS))
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace")
    p.set_defaults(func=library)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
