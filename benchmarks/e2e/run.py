#!/usr/bin/env python3
"""End-to-end benchmark of the NUMARCK checkpoint compressor.

    python3 benchmarks/e2e/run.py --seed S [--workload W]... [--seconds N]
                                  [--trace 0|1] [--trace-dir DIR] [--out FILE]

Four workloads (see README.md for why each exists):

* ``ingest``        -- durable service writes: 2 closed-loop clients push
                       CMIP ``rlus`` states into 24 adaptive chains;
* ``restore``       -- service reads: download + decompress of 8 stored chains;
* ``encode_paper``  -- paper Algorithm 1 in the library, Table I variables;
* ``encode_stream`` -- chunked float32 encode/decode round trips, 4.1 M points.

Every input comes from ``--seed``.  Each workload runs its system -- the
HTTP server or the library -- in fresh child processes: the median of
several start-ups is ``setup_s``, and the last child takes the load for
``--seconds``.  All load comes from this process, with at most 2 client
threads.  The outputs are checked after the timed operations; any failed
check makes the exit code 1.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the workload
runs untraced, traced (every layer wrapped) and untraced again, and the
metrics are the per-layer metrics; span files land in ``--trace-dir`` as
``<workload>.<process>.jsonl`` and ``python -m repro stats FILE`` reads them.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

# The benchmark measures the repro sources of the checkout it lives in,
# never an installed copy.
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"{__file__}: no repro sources under {SRC}")
sys.path.insert(0, str(SRC))
os.environ.pop("NUMARCK_TRACE", None)

import numpy as np  # noqa: E402

from repro import Codec  # noqa: E402
from repro.bench import env_fingerprint  # noqa: E402
from repro.errors import NumarckError  # noqa: E402
from repro.io import chain_from_bytes, chain_to_bytes, save_chain  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.telemetry import read_trace  # noqa: E402

import inputs  # noqa: E402
from checks import delta_bytes, ingest_failures, restore_failures  # noqa: E402
from layers import install_client, layer_metrics  # noqa: E402
from spans import SpanRecorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: start-ups per run; ``setup_s`` is their median.
SETUPS = 9
CLIENTS = 2
#: limit on any single wait for a child (set-up, report, shutdown).
CHILD_TIMEOUT = 120.0
#: what a failed or refused client operation raises.
OP_ERRORS = (NumarckError, OSError, http.client.HTTPException)
#: timed operations after which the server's peak RSS is read: 10-15% of
#: what a 20-second run completes on a 2-CPU machine.
INGEST_RSS_AFTER = 300
RESTORE_RSS_AFTER = 80


# -- system children -----------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Child:
    """A ``child.py`` process driven by lines over its stdin/stdout."""

    def __init__(self, *args: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=_child_env(), cwd=ROOT)
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def expect(self, timeout: float = CHILD_TIMEOUT) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"system child silent for {timeout:.0f} s") \
                from None
        if line is None:
            raise RuntimeError(
                f"system child exited with code {self.proc.wait()}")
        return line

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Wait for the child to exit (killing it after a grace period)."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=CHILD_TIMEOUT)

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None and exc[0] is not None:
            self.proc.kill()
        self.close()


def _report(child: Child, timeout: float = CHILD_TIMEOUT) -> dict:
    report = json.loads(child.expect(timeout))
    child.close()
    return report


def _start(args: list[str], ready: Callable[[Child], object],
           setups: int) -> tuple[Child, object, list[float]]:
    """Start ``setups`` children one after another, timing each from spawn
    to ``ready``; all but the last are terminated again (they hold no
    state: the service store is still empty or only read)."""
    times = []
    for i in range(setups):
        t0 = time.perf_counter()
        child = Child(*args)
        try:
            handle = ready(child)
        except BaseException:
            child.proc.kill()
            child.close()
            raise
        times.append(time.perf_counter() - t0)
        if i == setups - 1:
            return child, handle, times
        child.proc.terminate()
        child.close()
    raise ValueError("setups must be >= 1")


def _server_ready(child: Child) -> ServiceClient:
    client = ServiceClient(port=int(child.expect().split()[1]))
    client.health()
    return client


def _library_ready(child: Child) -> None:
    line = child.expect()
    if line != "ready":
        raise RuntimeError(f"library child said {line!r}")


# -- closed-loop load ----------------------------------------------------------

@dataclass
class Run:
    """What one measured run of a workload produced."""

    setup_s: list[float]
    wall_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    #: raw state bytes moved by the timed operations.
    bytes: int
    #: raw bytes of the delta states in the output containers, and the
    #: bytes of their delta records.
    raw_bytes: int
    container_bytes: int
    #: peak RSS of the system child (for the server, see :func:`_load`).
    rss_mb: float
    cpu_s: float
    failures: list[str]
    jobs: list = field(default_factory=list)


#: one client operation: returns the raw bytes it moved and an optional
#: check to run outside the timer.
Op = Callable[[], tuple[int, Callable[[], list[str]] | None]]


def closed_loop(ops: list[Op], seconds: float, warmup: int = 0,
                probe: tuple[int, Callable[[], None]] | None = None) -> dict:
    """Run each client's operations back to back, one thread per client,
    for ``seconds``.  Each client first runs ``warmup`` untimed operations,
    and the clock starts when all are done.  An operation that raises
    counts as failed and is left out of the latencies.  ``probe = (n, fn)``
    calls ``fn`` once, right after the n-th timed operation succeeds."""
    results = [{"lat": [], "failed": 0, "bytes": 0, "failures": []}
               for _ in ops]
    window: list[float] = []
    done = itertools.count(1)

    def open_window() -> None:
        window.append(time.perf_counter())

    ready = threading.Barrier(len(ops), action=open_window)
    errors: list[BaseException] = []

    def client(op: Op, out: dict) -> None:
        try:
            for _ in range(warmup):
                try:
                    op()
                except OP_ERRORS:
                    out["failed"] += 1
            ready.wait()
            while time.perf_counter() < window[0] + seconds:
                t0 = time.perf_counter()
                try:
                    nbytes, check = op()
                except OP_ERRORS:
                    out["failed"] += 1
                    continue
                out["lat"].append(time.perf_counter() - t0)
                out["bytes"] += nbytes
                if check is not None:
                    out["failures"] += check()
                if probe is not None and next(done) == probe[0]:
                    probe[1]()
        except BaseException as exc:  # re-raised below, after the join
            errors.append(exc)
            ready.abort()

    threads = [threading.Thread(target=client, args=pair)
               for pair in zip(ops, results)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    wall = time.perf_counter() - window[0]
    lat = [x for r in results for x in r["lat"]]
    failed = sum(r["failed"] for r in results)
    return {"wall_s": wall, "lat": lat, "failed": failed,
            "attempted": len(lat) + failed,
            "bytes": sum(r["bytes"] for r in results),
            "failures": [f for r in results for f in r["failures"]]}


def _load(child: Child, ops: list[Op], seconds: float,
          trace_file: Path | None, rss_after: int, warmup: int = 0) -> dict:
    """The closed loop against a server child, with the client layers
    wrapped when tracing.  The result's ``rss_mb`` is the server's peak RSS
    when the ``rss_after``-th timed operation completes (None if fewer do):
    a finished job keeps its input and result, so the peak at the end of
    a fixed-time run would grow with throughput."""
    rss: list[float] = []

    def probe() -> None:
        child.send("rss")
        rss.append(json.loads(child.expect())["rss_mb"])

    rec = None
    if trace_file is not None:
        rec = SpanRecorder()
        install_client(rec)
    try:
        load = closed_loop(ops, seconds, warmup, (rss_after, probe))
    finally:
        if rec is not None:
            rec.uninstall()
            rec.export(trace_file)
    load["rss_mb"] = rss[0] if rss else None
    return load


def _trace_file(trace_dir: Path | None, workload: str,
                process: str) -> Path | None:
    return None if trace_dir is None else \
        trace_dir / f"{workload}.{process}.jsonl"


def _server(workload: str, store: Path, setups: int,
            trace_dir: Path | None) -> tuple[Child, ServiceClient, list[float]]:
    args = ["server", workload, "--store", str(store)]
    trace = _trace_file(trace_dir, workload, "server")
    if trace is not None:
        args += ["--trace", str(trace)]
    return _start(args, _server_ready, setups)


# -- workloads -----------------------------------------------------------------

def ingest(trajectories: list[inputs.Trajectory], seconds: float,
           work: Path, setups: int, trace_dir: Path | None) -> Run:
    config = inputs.CONFIGS["ingest"]
    chains = {f"ingest-{c}": t for c, t in enumerate(trajectories)}
    acked = dict.fromkeys(chains, 0)
    child, client, setup = _server("ingest", work / "store", setups,
                                   trace_dir)
    with child:
        for chain_id in chains:
            client.create_chain(chain_id, config.to_dict())

        def make_op(chain_ids: list[str]) -> Op:
            # Each client owns its chains and sends their states in order;
            # a state that failed is sent again.
            states = {c: iter(chains[c]) for c in chain_ids}
            pending: dict[str, np.ndarray] = {}
            turn = itertools.count()

            def op():
                chain_id = chain_ids[next(turn) % len(chain_ids)]
                state = pending.pop(chain_id, None)
                if state is None:
                    state = next(states[chain_id])
                try:
                    client.compress(chain_id, state)
                except OP_ERRORS:
                    pending[chain_id] = state
                    raise
                acked[chain_id] += 1
                return state.nbytes, None

            return op

        # Untimed warm-up: each chain's full checkpoint and first delta,
        # which fits the chain's first bin model (a one-off ~200 ms job).
        ids = list(chains)
        load = _load(child, [make_op(ids[k::CLIENTS]) for k in range(CLIENTS)],
                     seconds, _trace_file(trace_dir, "ingest", "client"),
                     rss_after=INGEST_RSS_AFTER,
                     warmup=2 * len(ids) // CLIENTS)
        downloaded = {c: client.download_chain(c) for c in ids}
        child.send("stop")
        report = _report(child)

    # The service holds every state as the flat array the client sent.
    failures = load["failures"] + ingest_failures(
        downloaded, lambda c: [s.ravel() for s in chains[c].states(acked[c])],
        config)
    base = trajectories[0].base.ravel()
    return Run(
        setup_s=setup, wall_s=load["wall_s"], latencies_s=load["lat"],
        attempted=load["attempted"], failed=load["failed"],
        bytes=load["bytes"],
        raw_bytes=sum(n - 1 for n in acked.values()) * base.nbytes,
        container_bytes=sum(delta_bytes(blob, base)
                            for blob in downloaded.values()),
        rss_mb=load["rss_mb"] or report["rss_mb"], cpu_s=report["cpu_s"],
        failures=failures, jobs=report["jobs"])


def restore(chains: dict[str, list[np.ndarray]], seconds: float, work: Path,
            setups: int, trace_dir: Path | None) -> Run:
    config = inputs.CONFIGS["restore"]
    store = work / "store"
    store.mkdir()
    stored, reference = {}, {}
    # The service holds and returns flat arrays; store the chains that way.
    chains = {c: [s.ravel() for s in states] for c, states in chains.items()}
    for chain_id, states in chains.items():
        chain = Codec(config=config).compress_chain(states)
        save_chain(store / f"{chain_id}.nmk", chain)
        stored[chain_id] = chain_to_bytes(chain)
        reference[chain_id] = list(chain_from_bytes(stored[chain_id])
                                   .iter_states())
    ids = list(chains)
    state_bytes = sum(a.nbytes for a in chains[ids[0]])

    child, client, setup = _server("restore", store, setups, trace_dir)
    with child:
        def make_op(chain_ids: list[str]) -> Op:
            turn = itertools.count()

            def op():
                chain_id = chain_ids[next(turn) % len(chain_ids)]
                blob = client.download_chain(chain_id)
                decoded = client.decompress(blob)
                return state_bytes, lambda: restore_failures(
                    chain_id, blob, decoded, stored[chain_id],
                    reference[chain_id])

            return op

        # Untimed warm-up: one restore of each chain, so that the first
        # slow requests of a fresh server and client stay out of the timing.
        load = _load(child, [make_op(ids[k::CLIENTS]) for k in range(CLIENTS)],
                     seconds, _trace_file(trace_dir, "restore", "client"),
                     rss_after=RESTORE_RSS_AFTER,
                     warmup=len(ids) // CLIENTS)
        child.send("stop")
        report = _report(child)
    return Run(
        setup_s=setup, wall_s=load["wall_s"], latencies_s=load["lat"],
        attempted=load["attempted"], failed=load["failed"],
        bytes=load["bytes"],
        raw_bytes=sum((len(s) - 1) * s[0].nbytes for s in chains.values()),
        container_bytes=sum(delta_bytes(stored[c], chains[c][0])
                            for c in ids),
        rss_mb=load["rss_mb"] or report["rss_mb"], cpu_s=report["cpu_s"],
        failures=load["failures"], jobs=report["jobs"])


def library(workload: str, npz: Path, seconds: float, setups: int,
            trace_dir: Path | None) -> Run:
    args = ["library", workload, "--inputs", str(npz),
            "--seconds", repr(seconds)]
    trace = _trace_file(trace_dir, workload, "library")
    if trace is not None:
        args += ["--trace", str(trace)]
    child, _, setup = _start(args, _library_ready, setups)
    with child:
        child.send("go")
        report = _report(child, seconds + CHILD_TIMEOUT)
    return Run(
        setup_s=setup, wall_s=report["wall_s"],
        latencies_s=report["latencies_s"], attempted=report["ops"], failed=0,
        bytes=report["bytes"], raw_bytes=report["raw_bytes"],
        container_bytes=report["container_bytes"], rss_mb=report["rss_mb"],
        cpu_s=report["cpu_s"], failures=report["failures"])


def prepare(workload: str, seed: int, work: Path):
    """The workload's inputs, generated once per invocation."""
    if workload == "ingest":
        return inputs.ingest_trajectories(seed)
    if workload == "restore":
        return inputs.restore_chains(seed)
    if workload == "encode_paper":
        data = inputs.paper_states(seed)
    else:
        data = dict(zip(("prev", "curr"), inputs.stream_pair(seed)))
    npz = work / "inputs.npz"
    np.savez(npz, **data)
    return npz


def measure(workload: str, data, seconds: float, work: Path,
            setups: int = SETUPS, trace_dir: Path | None = None) -> Run:
    """One measured run on inputs from :func:`prepare`."""
    work.mkdir(parents=True)
    if workload == "ingest":
        return ingest(data, seconds, work, setups, trace_dir)
    if workload == "restore":
        return restore(data, seconds, work, setups, trace_dir)
    return library(workload, data, seconds, setups, trace_dir)


# -- metrics -------------------------------------------------------------------

def throughput(run: Run) -> float:
    return run.bytes / 1e6 / run.wall_s


def end_to_end(run: Run) -> dict[str, float]:
    p50, p95 = np.percentile(np.asarray(run.latencies_s) * 1e3, [50, 95])
    return {
        "setup_s": statistics.median(run.setup_s),
        "throughput_mb_s": throughput(run),
        "latency_p50_ms": float(p50),
        "latency_p95_ms": float(p95),
        "compression_ratio": run.raw_bytes / run.container_bytes,
        "peak_rss_mb": run.rss_mb,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 trace_dir: Path, work: Path, setups: int = SETUPS) -> dict:
    """One workload, as the JSON result the benchmark prints for it."""
    work.mkdir(parents=True)
    data = prepare(workload, seed, work)
    if not trace:
        runs = [measure(workload, data, seconds, work / "run", setups)]
        values = end_to_end(runs[0])
        names = SPEC["end_to_end"]
    else:
        trace_dir.mkdir(parents=True, exist_ok=True)
        for stale in trace_dir.glob(f"{workload}.*.jsonl"):
            stale.unlink()
        # Untraced runs on both sides of the traced one, so that a steady
        # drift of the machine's speed cancels out of the overhead.
        runs = [measure(workload, data, seconds, work / "before", 1),
                measure(workload, data, seconds, work / "traced", 1,
                        trace_dir),
                measure(workload, data, seconds, work / "after", 1)]
        traced = runs[1]
        untraced = (throughput(runs[0]) + throughput(runs[2])) / 2
        traces = {f.name.split(".")[1]: read_trace(f)
                  for f in sorted(trace_dir.glob(f"{workload}.*.jsonl"))}
        values = layer_metrics(
            traces, "library" if "library" in traces else "server",
            traced.jobs, traced.cpu_s,
            100.0 * (1.0 - throughput(traced) / untraced))
        names = SPEC["per_layer"]
    failures = [f for r in runs for f in r.failures]
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
        "samples": len(runs[0].latencies_s),
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the NUMARCK reproduction.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured time per run (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", type=Path,
                        default=ROOT / ".bench_trace",
                        help="where --trace 1 writes span files "
                             "(default: %(default)s)")
    parser.add_argument("--out", type=Path,
                        help="also write the results, with the environment, "
                             "to this JSON file")
    args = parser.parse_args(argv)
    workloads = args.workload or WORKLOADS

    scratch = ROOT / ".bench_run"
    work = scratch / str(os.getpid())
    results = {}
    try:
        for workload in workloads:
            results[workload] = result = run_workload(
                workload, args.seed, args.seconds, bool(args.trace),
                args.trace_dir, work / workload)
            for name, metric in result["metrics"].items():
                print(f"{workload:14s} {name:26s} "
                      f"{metric['value']:14.6g} {metric['unit']}")
            print(f"{workload:14s} {'ops':26s} {result['attempted']:14d} "
                  f"({result['failed']} failed, "
                  f"{result['samples']} timed in the first run)")
            for failure in result["failures"]:
                print(f"{workload:14s} CHECK FAILED: {failure}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    if args.out is not None:
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "env": env_fingerprint(), "workloads": results}, indent=1) + "\n")
    single = len(results) == 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(name if single else f"{w}.{name}"): metric
                    for w, r in results.items()
                    for name, metric in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
