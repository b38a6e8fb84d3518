"""Scenario execution: repeats, robust statistics, result documents.

The runner executes one scenario N times under a fresh
:class:`~repro.telemetry.Telemetry` per repeat, records the total wall
time and the per-stage *self* times of every run, and reduces them to
median/MAD -- the robust pair a noisy shared machine calls for (one
preempted run shifts a mean by its full excess but barely moves a
median).  Memory is measured in a separate single pass with
``Telemetry(memory=True)`` so ``tracemalloc`` overhead never pollutes the
timing samples.  Every document embeds an environment fingerprint, is
validated against :mod:`repro.bench.schema`, and is written as
``BENCH_<scenario>.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.bench.scenarios import Scenario, get_scenario, scenario_names
from repro.bench.schema import SCHEMA_VERSION, validate_bench
from repro.telemetry import Telemetry, use
from repro.telemetry.analysis import stage_rollup

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None

__all__ = ["env_fingerprint", "robust_stats", "run_scenario", "run_suite",
           "write_bench", "bench_path", "DEFAULT_REPEATS"]

#: timing repeats per scenario unless overridden.
DEFAULT_REPEATS = 5


def _rss_peak_kb() -> float | None:
    """Process high-water RSS in KiB (``None`` where unsupported)."""
    if resource is None:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak /= 1024
    return float(peak)


def env_fingerprint() -> dict[str, Any]:
    """Where this result came from: interpreter, platform, numpy, CPUs."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def robust_stats(runs: Sequence[float]) -> dict[str, Any]:
    """``{"median", "mad", "runs"}`` for one sample set.

    MAD is the raw median absolute deviation (unscaled); comparators
    apply the 1.4826 normal-consistency factor themselves.
    """
    values = [float(v) for v in runs]
    med = statistics.median(values)
    mad = statistics.median(abs(v - med) for v in values)
    return {"median": med, "mad": mad, "runs": values}


def _timed_run(work) -> tuple[float, dict[str, Any], dict[str, Any]]:
    """One repeat: (total wall seconds, per-stage rollup, work attrs)."""
    tel = Telemetry()
    t0 = time.perf_counter()
    with use(tel):
        attrs = work() or {}
    wall = time.perf_counter() - t0
    rollup = stage_rollup([s.to_dict() for s in tel.spans])
    return wall, rollup, attrs


def _memory_run(work) -> dict[str, Any]:
    """One memory-gauged pass: per-stage python-heap peaks + RSS peak."""
    tel = Telemetry(memory=True)
    try:
        with use(tel):
            work()
        rollup = stage_rollup([s.to_dict() for s in tel.spans])
    finally:
        tel.close()
    stages = {
        name: {"mem_py_peak_kb": agg["mem_py_peak_kb"]}
        for name, agg in sorted(rollup.items())
        if "mem_py_peak_kb" in agg
    }
    out: dict[str, Any] = {"stages": stages}
    rss = _rss_peak_kb()
    if rss is not None:
        out["rss_peak_kb"] = rss
    return out


def run_scenario(scenario: Scenario | str, *, quick: bool = False,
                 repeats: int = DEFAULT_REPEATS,
                 memory: bool = True,
                 workdir: str | Path | None = None) -> dict[str, Any]:
    """Execute one scenario and return its validated result document."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="numarck_bench_")
        workdir = tmp.name
    try:
        work = scenario.build(quick, Path(workdir))
        work()  # warm-up: imports, allocator pools, CPU caches

        walls: list[float] = []
        stage_runs: dict[str, dict[str, list[float]]] = {}
        stage_calls: dict[str, int] = {}
        attrs: dict[str, Any] = {}
        for _ in range(repeats):
            wall, rollup, attrs = _timed_run(work)
            walls.append(wall)
            for name, agg in rollup.items():
                per = stage_runs.setdefault(name, {"self_s": [], "wall_s": []})
                per["self_s"].append(agg["self_s"])
                per["wall_s"].append(agg["wall_s"])
                stage_calls[name] = agg["calls"]

        doc: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "scenario": scenario.name,
            "description": scenario.description,
            "mode": "quick" if quick else "full",
            "repeats": repeats,
            "created_unix": time.time(),
            "env": env_fingerprint(),
            "attrs": attrs,
            "total": {"wall_s": robust_stats(walls)},
            "stages": {
                name: {
                    "calls": stage_calls[name],
                    "self_s": robust_stats(per["self_s"]),
                    "wall_s": robust_stats(per["wall_s"]),
                }
                for name, per in sorted(stage_runs.items())
            },
        }
        if memory:
            doc["memory"] = _memory_run(work)
    finally:
        if tmp is not None:
            tmp.cleanup()

    validate_bench(doc)
    return doc


def bench_path(out_dir: str | Path, scenario_name: str) -> Path:
    return Path(out_dir) / f"BENCH_{scenario_name}.json"


def write_bench(doc: dict[str, Any], out_dir: str | Path) -> Path:
    """Validate and write one result as ``BENCH_<scenario>.json``."""
    validate_bench(doc)
    path = bench_path(out_dir, doc["scenario"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def run_suite(names: Sequence[str] | None = None, *, quick: bool = False,
              repeats: int = DEFAULT_REPEATS, memory: bool = True,
              out_dir: str | Path | None = None,
              progress=None) -> list[dict[str, Any]]:
    """Run several scenarios (default: all), optionally writing documents.

    ``progress`` is an optional ``callable(doc)`` invoked after each
    scenario -- the CLI uses it to print one summary line per result.
    """
    docs = []
    for name in (names if names else scenario_names()):
        doc = run_scenario(name, quick=quick, repeats=repeats, memory=memory)
        if out_dir is not None:
            write_bench(doc, out_dir)
        if progress is not None:
            progress(doc)
        docs.append(doc)
    return docs
