"""Rate-distortion sweeps: compression ratio vs accuracy across (E, B).

Figs 6 and 7 of the paper are one-dimensional slices of the same surface:
how the compression ratio and the realised error trade off as the
tolerance ``E`` and the index width ``B`` vary.  :func:`sweep` computes
the whole grid for an iteration pair and :func:`pareto_frontier` extracts
the configurations no other configuration dominates -- the curve a user
actually chooses from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import NumarckConfig
from repro.core.encoder import encode_pair
from repro.core.metrics import compression_stats

__all__ = ["TradeoffPoint", "sweep", "pareto_frontier"]


@dataclass(frozen=True)
class TradeoffPoint:
    """One (E, B) configuration's measured outcome."""

    error_bound: float
    nbits: int
    ratio: float
    mean_error: float
    max_error: float
    incompressible_ratio: float

    def dominates(self, other: "TradeoffPoint") -> bool:
        """Better-or-equal on both axes, strictly better on one."""
        ge = (self.ratio >= other.ratio
              and self.mean_error <= other.mean_error)
        gt = (self.ratio > other.ratio
              or self.mean_error < other.mean_error)
        return ge and gt


def sweep(prev: np.ndarray, curr: np.ndarray,
          error_bounds: Sequence[float] = (5e-4, 1e-3, 2e-3, 5e-3),
          nbits: Sequence[int] = (6, 8, 10),
          strategy: str = "clustering") -> list[TradeoffPoint]:
    """Measure every (E, B) combination on one iteration pair."""
    if not error_bounds or not nbits:
        raise ValueError("need at least one error bound and one bit width")
    points: list[TradeoffPoint] = []
    for e in error_bounds:
        for b in nbits:
            cfg = NumarckConfig(error_bound=e, nbits=b, strategy=strategy)
            enc, report = encode_pair(prev, curr, cfg)
            stats = compression_stats(enc, report.mean_error,
                                      report.max_error)
            points.append(TradeoffPoint(
                error_bound=e,
                nbits=b,
                ratio=stats.ratio_paper,
                mean_error=stats.mean_error,
                max_error=stats.max_error,
                incompressible_ratio=stats.incompressible_ratio,
            ))
    return points


def pareto_frontier(points: Sequence[TradeoffPoint]) -> list[TradeoffPoint]:
    """Non-dominated subset, sorted by ascending mean error.

    A point survives unless some other point compresses at least as much
    *and* errs at most as much (with one strict).
    """
    if not points:
        raise ValueError("no points to filter")
    survivors = [
        p for p in points
        if not any(q.dominates(p) for q in points if q is not p)
    ]
    return sorted(survivors, key=lambda p: (p.mean_error, -p.ratio))
