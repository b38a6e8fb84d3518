"""Diagnostics: entropy, change-distribution statistics, report tables.

Supports the paper's motivating analysis (Section II-A: snapshots are
high-entropy, changes are concentrated) and its future-work direction
(tracking how the change distribution evolves to detect anomalies):

* :mod:`repro.analysis.entropy` -- byte- and word-level Shannon entropy of
  float arrays, quantifying why lossless compression fails on snapshots.
* :mod:`repro.analysis.distribution` -- change-ratio histograms, summary
  statistics, and distribution-drift measures between iterations
  (Jensen-Shannon divergence over shared binnings).
* :mod:`repro.analysis.report` -- fixed-width text tables and series used
  by every benchmark to print paper-shaped output.
"""

from repro.analysis.adaptive import CadenceController, CadenceDecision
from repro.analysis.distribution import (
    ChangeSummary,
    change_histogram,
    distribution_drift,
    summarize_changes,
)
from repro.analysis.entropy import byte_entropy, word_entropy
from repro.analysis.report import format_series, format_table
from repro.analysis.sketch import RatioSketch
from repro.analysis.tradeoff import TradeoffPoint, pareto_frontier, sweep

__all__ = [
    "byte_entropy",
    "word_entropy",
    "ChangeSummary",
    "summarize_changes",
    "change_histogram",
    "distribution_drift",
    "format_table",
    "format_series",
    "CadenceController",
    "CadenceDecision",
    "RatioSketch",
    "TradeoffPoint",
    "sweep",
    "pareto_frontier",
]
