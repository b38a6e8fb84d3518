"""Generate docs/API.md from package docstrings.

Walks the public surface (everything re-exported through each package's
``__all__``), collects signatures and docstring summaries, and writes a
single markdown reference.  Run from the repo root::

    python tools/gen_api_docs.py

The generated file is committed; CI-style checking is provided by
``tests/test_api_docs.py``, which regenerates and diffs it so the
reference can never drift from the code.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

PACKAGES = [
    "repro",
    # errors must precede everything that re-exports its classes.
    "repro.errors",
    "repro.core",
    "repro.core.strategies",
    "repro.kmeans",
    "repro.bitpack",
    "repro.io",
    "repro.baselines",
    "repro.simulations",
    "repro.simulations.flash",
    "repro.simulations.cmip",
    "repro.parallel",
    "repro.restart",
    "repro.analysis",
    "repro.resilience",
    # analysis must precede telemetry: telemetry re-exports its names,
    # and the walk skips re-exports whose home was already documented.
    "repro.telemetry.analysis",
    "repro.telemetry",
    "repro.bench",
    "repro.service",
]


def _summary(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return first


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _describe(name: str, obj) -> list[str]:
    lines: list[str] = []
    if inspect.isclass(obj):
        lines.append(f"#### class `{name}{_signature(obj)}`")
        lines.append("")
        lines.append(_summary(obj))
        methods = []
        for mname, member in sorted(vars(obj).items()):
            if mname.startswith("_"):
                continue
            if callable(member) or isinstance(member, property):
                target = member.fget if isinstance(member, property) else member
                if target is None:
                    continue
                kind = "property " if isinstance(member, property) else ""
                sig = "" if isinstance(member, property) else _signature(member)
                methods.append(f"- {kind}`{mname}{sig}` — {_summary(target)}")
        if methods:
            lines.append("")
            lines.extend(methods)
    elif callable(obj):
        lines.append(f"#### `{name}{_signature(obj)}`")
        lines.append("")
        lines.append(_summary(obj))
    else:
        lines.append(f"#### `{name}`")
        lines.append("")
        lines.append(f"constant of type `{type(obj).__name__}`")
    lines.append("")
    return lines


DURABILITY_NOTES = """\
## Durability & crash consistency

The checkpoint store is crash-consistent by construction:

* **Atomic whole-file saves.** `save_chain` / `save_chains` /
  `save_streamed` (all through `CheckpointFile.save`, with no
  non-atomic variant) write into a temporary file in the target directory,
  flush, `fsync`, then `os.replace` over the target and `fsync` the
  directory (`repro.io.durable.atomic_write`). A crash at any instant
  leaves either the complete old file or the complete new file.
  Transient `OSError`s are retried with bounded exponential backoff
  (`repro.io.durable.retry_io`).
* **Append-mode persistence.** `CheckpointFile.append(path)` validates
  the header, scans to the last CRC-valid record, truncates any torn
  tail, and appends new records with a per-record `fsync`.
  `repro.io.container.ChainWriter` holds one such writer per chain file
  and cuts the file back to the records its chains share whenever it
  re-opens it; the service's durable chains, `repro append` and
  `RestartManager.persist_incremental(path_fn)` all append through it, so
  each checkpoint costs O(1) appended records per variable instead of a
  full rewrite, a crash can only damage the record being written, and a
  retry after a failed persist writes only the records still missing.
* **Torn-write salvage.** `CheckpointFile.records(strict=False)` stops
  at a torn tail instead of raising; `load_chain(path, recover="tail")`
  and `load_chains(path, recover="tail")` return the longest valid
  prefix plus a `SalvageReport` (records kept/dropped, bytes truncated,
  reason). Corruption *before* the last record still raises
  `FormatError` — the delta chain beyond it cannot be trusted — and a
  file with no salvageable prefix raises `SalvageError`.
* **Fault injection.** `repro.restart.DiskFaultInjector` plugs into
  `CheckpointFile`'s write hook to tear a write mid-record, flip bits in
  flushed bytes, or raise transient `OSError`s; `run_with_faults`
  accepts it via `disk_faults=` and recovers such crashes through the
  salvage path.
* **Tooling.** `repro verify <file>` walks any checkpoint file and
  reports per-record CRC status (exit 1 on damage); `repro repair
  <file>` writes a backup, then truncates the file to its last valid
  record.
"""


OBSERVABILITY_NOTES = """\
## Observability

Every stage of the pipeline is instrumented through `repro.telemetry`:

* **Spans.** Hot paths open nested, attributed spans —
  `codec.compress` → `encode` → `encode.fit` →
  `strategy.clustering.fit` → `kmeans.lloyd`, plus `bitpack.pack`,
  `io.write_record`, `io.save_chain` / `io.save_chains` / `io.load_chain`,
  `io.save_streamed` and `restart.persist_incremental` — each carrying
  wall/CPU time and byte counts (`bytes_in` / `bytes_out`).
* **Metrics.** Counters (`io.bytes_written`, `io.fsync`,
  `io.records_salvaged`, `bitpack.bytes_packed`,
  `kmeans.converged_runs`), and histograms (`kmeans.sweeps`,
  `encode.incompressible_fraction`).
* **Zero cost when off.** The ambient default is a shared no-op
  telemetry object; untraced runs stay within noise of uninstrumented
  code (enforced by `benchmarks/test_throughput.py`).
* **Enabling.** Scoped to the calling thread:
  `with telemetry.use(Telemetry()) as tel: ...; tel.export("trace.jsonl")`.
  Process-wide with no code changes:
  `NUMARCK_TRACE=trace.jsonl python your_script.py`.
* **Trace format.** Append-only JSONL (one span per line plus a final
  metrics snapshot), written with the same retry/torn-tail discipline
  as the checkpoint store; `read_trace` drops a torn final line.
* **Reporting.** `repro stats trace.jsonl` renders the paper-style
  stage-breakdown table (calls, wall/self/CPU ms, share, MB in/out)
  and a metrics table; the same tables are available programmatically
  via `repro.telemetry.stage_table` / `metrics_table`. Exact on-disk
  byte accounting (`delta_payload_nbytes` et al.) backs the size
  figures in `repro inspect`.
* **Trace analytics.** `repro.telemetry.analysis` reconstructs the
  span forest from any trace (`span_tree` — order-tolerant, crash
  orphans surface as roots), extracts the heaviest chain
  (`critical_path`), emits flamegraph-ready folded stacks
  (`folded_stacks`), and diffs two traces (`diff_traces` /
  `diff_table`, also `repro stats --diff A B`): self times partition a
  trace, so per-stage deltas sum exactly to the end-to-end delta.
* **Memory gauges.** `Telemetry(memory=True)` (or
  `NUMARCK_TRACE_MEMORY=1`) attaches `mem_py_peak_kb` (tracemalloc
  peak, propagated through nested spans) to every span; the process RSS
  high-water mark is not a span's, so only `repro bench` records it, once
  per scenario.
"""


PERFORMANCE_NOTES = """\
## Performance tracking

`repro.bench` turns the telemetry into regression gating:

* **Scenarios.** Named, seeded end-to-end workloads
  (`repro.bench.scenarios`): CMIP compression under each strategy,
  FLASH chain compression, chain persistence, bit-packing and k-means
  in isolation — each in a `--quick` and a full size.
* **Runner.** `repro bench run` executes each scenario N times under
  tracing (median + MAD per stage; a separate pass collects memory so
  tracemalloc never pollutes the timings) and writes schema-validated
  `BENCH_<scenario>.json` files stamped with an environment
  fingerprint.
* **Comparator.** `repro bench compare BASELINE CURRENT` gates the
  total wall time and every stage's self time with a noise threshold
  `max(k·1.4826·(MAD_base+MAD_cur), rel_floor·median, abs_floor)`;
  regressions exit 1, improvements are reported but never fail. A
  baseline stage missing from the current run is a regression.
* **Baseline.** `benchmarks/baselines/` commits a quick-suite
  baseline; CI's `bench-quick` job (manual + nightly) re-runs the
  suite and gates against it.
"""


def generate() -> str:
    out: list[str] = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "",
        DURABILITY_NOTES,
        OBSERVABILITY_NOTES,
        PERFORMANCE_NOTES,
    ]
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(f"## `{pkg_name}`")
        out.append("")
        out.append(_summary(pkg))
        out.append("")
        exported = getattr(pkg, "__all__", [])
        for name in exported:
            if name.startswith("__"):
                continue
            obj = getattr(pkg, name)
            # Skip names whose home package appears later in the walk.
            home = getattr(obj, "__module__", pkg_name) or pkg_name
            if home != pkg_name and home in PACKAGES and \
                    PACKAGES.index(home) < PACKAGES.index(pkg_name):
                continue
            out.extend(_describe(name, obj))
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def main() -> None:
    target = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text(generate())
    print(f"wrote {target} ({len(target.read_text().splitlines())} lines)")


if __name__ == "__main__":
    main()
