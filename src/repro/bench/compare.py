"""Regression gating: compare a benchmark run against a baseline.

Naive percent-delta gates misfire in both directions: a 3 % threshold
flags pure noise on a jittery stage and waves through a real 3 ms
regression on a quiet one.  The comparator instead derives a per-metric
noise threshold from the *measured* dispersion of both samples::

    threshold = max(k * 1.4826 * (mad_base + mad_cur),   # scaled MADs
                    rel_floor * median_base,             # scheduler jitter
                    abs_floor)                           # clock resolution

and flags a regression only when ``median_cur - median_base`` exceeds it.
1.4826 rescales a MAD to a normal-equivalent sigma, so ``k`` reads as "k
sigmas of combined noise".  Improvements (negative deltas beyond the
threshold) are reported too, but never fail the gate.  A stage present in
the baseline but missing from the current run always regresses: it is
gated as an infinite current time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.bench.schema import validate_bench

__all__ = ["Thresholds", "Delta", "Comparison", "compare_docs",
           "compare_dirs", "load_bench", "comparison_table"]

#: MAD-to-sigma consistency factor for normally distributed noise.
MAD_SCALE = 1.4826


@dataclass(frozen=True)
class Thresholds:
    """Noise-gate parameters (see module docstring for the formula)."""

    k: float = 4.0          # sigmas of combined noise
    rel_floor: float = 0.25  # fraction of the baseline median
    abs_floor: float = 5e-4  # seconds

    def threshold_s(self, base_median: float, base_mad: float,
                    cur_mad: float) -> float:
        return max(self.k * MAD_SCALE * (base_mad + cur_mad),
                   self.rel_floor * base_median,
                   self.abs_floor)


@dataclass(frozen=True)
class Delta:
    """One gated metric: a scenario total or a per-stage self time."""

    scenario: str
    metric: str           # "total" or "stage:<name>"
    base_median: float
    cur_median: float
    threshold_s: float

    @property
    def delta_s(self) -> float:
        return self.cur_median - self.base_median

    @property
    def regressed(self) -> bool:
        return self.delta_s > self.threshold_s

    @property
    def improved(self) -> bool:
        return -self.delta_s > self.threshold_s


@dataclass
class Comparison:
    """All deltas for one baseline/current pair, plus bookkeeping."""

    deltas: list[Delta] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[Delta]:
        return [d for d in self.deltas if d.improved]

    def merge(self, other: "Comparison") -> None:
        self.deltas.extend(other.deltas)
        self.notes.extend(other.notes)


def _stats(block: Mapping[str, Any]) -> tuple[float, float]:
    return float(block["median"]), float(block["mad"])


def compare_docs(base: Mapping[str, Any], cur: Mapping[str, Any],
                 thresholds: Thresholds | None = None) -> Comparison:
    """Gate one current document against its baseline.

    Compares the scenario total and every stage's self time.  A stage
    that vanished from the current run is a regression (its current time
    is infinite): a renamed or dropped span must not silently pass, and a
    deliberate rename is a rebaseline, which replaces the baseline file.
    A stage new in the current run has no baseline and is only noted.
    """
    th = thresholds if thresholds is not None else Thresholds()
    validate_bench(base)
    validate_bench(cur)
    if base["scenario"] != cur["scenario"]:
        raise ValueError(f"scenario mismatch: baseline {base['scenario']!r} "
                         f"vs current {cur['scenario']!r}")
    out = Comparison()
    name = cur["scenario"]
    if base["mode"] != cur["mode"]:
        out.notes.append(f"{name}: mode mismatch (baseline {base['mode']}, "
                         f"current {cur['mode']}); deltas are not comparable")
    for key in ("platform", "machine", "python", "numpy"):
        if base["env"].get(key) != cur["env"].get(key):
            out.notes.append(
                f"{name}: env.{key} differs (baseline "
                f"{base['env'].get(key)!r}, current {cur['env'].get(key)!r})")

    b_med, b_mad = _stats(base["total"]["wall_s"])
    c_med, c_mad = _stats(cur["total"]["wall_s"])
    out.deltas.append(Delta(name, "total", b_med, c_med,
                            th.threshold_s(b_med, b_mad, c_mad)))

    base_stages = base["stages"]
    cur_stages = cur["stages"]
    for stage in sorted(set(base_stages) | set(cur_stages)):
        if stage not in cur_stages:
            out.notes.append(f"{name}: stage {stage!r} vanished from current")
            b_med, b_mad = _stats(base_stages[stage]["self_s"])
            out.deltas.append(Delta(name, f"stage:{stage}", b_med, math.inf,
                                    th.threshold_s(b_med, b_mad, 0.0)))
            continue
        if stage not in base_stages:
            out.notes.append(f"{name}: stage {stage!r} is new (no baseline)")
            continue
        b_med, b_mad = _stats(base_stages[stage]["self_s"])
        c_med, c_mad = _stats(cur_stages[stage]["self_s"])
        out.deltas.append(Delta(name, f"stage:{stage}", b_med, c_med,
                                th.threshold_s(b_med, b_mad, c_mad)))
    return out


def load_bench(path: str | Path) -> dict[str, Any]:
    """Read and schema-validate one ``BENCH_*.json`` document."""
    doc = json.loads(Path(path).read_text())
    validate_bench(doc)
    return doc


def _collect(path: Path) -> dict[str, Path]:
    """Map scenario name -> document path for a file or directory."""
    if path.is_dir():
        files = sorted(path.glob("BENCH_*.json"))
    else:
        files = [path]
    out = {}
    for f in files:
        out[load_bench(f)["scenario"]] = f
    return out


def compare_dirs(base: str | Path, cur: str | Path,
                 thresholds: Thresholds | None = None) -> Comparison:
    """Compare every scenario present in both trees (files or dirs)."""
    base_docs = _collect(Path(base))
    cur_docs = _collect(Path(cur))
    out = Comparison()
    for name in sorted(set(base_docs) | set(cur_docs)):
        if name not in cur_docs:
            out.notes.append(f"{name}: present in baseline only")
            continue
        if name not in base_docs:
            out.notes.append(f"{name}: present in current only (no baseline)")
            continue
        out.merge(compare_docs(load_bench(base_docs[name]),
                               load_bench(cur_docs[name]), thresholds))
    if not out.deltas:
        raise ValueError(f"no common scenarios between {base} and {cur}")
    return out


def comparison_table(comparison: Comparison, *, top: int | None = None,
                     title: str | None = "benchmark comparison") -> str:
    """Render a comparison, regressions first, by descending |delta|."""
    from repro.analysis.report import format_table

    deltas = sorted(comparison.deltas,
                    key=lambda d: (not d.regressed, -abs(d.delta_s)))
    if top is not None:
        deltas = deltas[:top]
    rows = []
    for d in deltas:
        verdict = ("REGRESSED" if d.regressed
                   else "improved" if d.improved else "ok")
        rows.append([
            d.scenario, d.metric,
            f"{d.base_median * 1e3:.2f}",
            f"{d.cur_median * 1e3:.2f}",
            f"{d.delta_s * 1e3:+.2f}",
            f"{d.threshold_s * 1e3:.2f}",
            verdict,
        ])
    return format_table(
        ["scenario", "metric", "base ms", "cur ms", "delta ms",
         "gate ms", "verdict"],
        rows, title=title,
    )
