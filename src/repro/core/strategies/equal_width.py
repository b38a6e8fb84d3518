"""Equal-width binning (paper Section II-C1).

Partition ``[min, max]`` of the candidate ratios into ``k`` equal-width
bins; each ratio is approximated by its bin center.  As the paper notes,
coverage is bounded: the bound is met for every point only when the bin
width ``W <= 2E``, i.e. when the ratio range is at most ``2 E k``.  Wider
ranges push edge-of-bin points past the tolerance and the encoder stores
them exactly, which is why this strategy has the worst incompressible
ratio on wide or irregular distributions.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies.base import ApproximationStrategy, BinModel
from repro.telemetry.tracer import get_telemetry

__all__ = ["EqualWidthStrategy"]


class EqualWidthStrategy(ApproximationStrategy):
    """``k`` equal-width bins over the ratio range, centers as representatives."""

    name = "equal_width"

    def fit(self, ratios: np.ndarray, k: int, error_bound: float, *,
            warm_start: np.ndarray | None = None) -> BinModel:
        arr = self._validate(ratios, k, error_bound)
        with get_telemetry().span("strategy.equal_width.fit",
                                  n_ratios=arr.size, k=k,
                                  bytes_in=arr.nbytes) as sp:
            lo = float(arr.min())
            hi = float(arr.max())
            if lo == hi:
                sp.set(n_bins=1)
                return BinModel(np.array([lo]))
            edges = np.linspace(lo, hi, num=k + 1)
            centers = 0.5 * (edges[:-1] + edges[1:])
            # Drop empty bins: they would waste table entries and nearest-
            # representative assignment is unchanged for occupied regions only
            # when representatives are exactly the occupied-bin centers.
            idx = np.clip(((arr - lo) / (hi - lo) * k).astype(np.int64), 0, k - 1)
            occupied = np.flatnonzero(np.bincount(idx, minlength=k))
            sp.set(n_bins=int(occupied.size))
            return BinModel(centers[occupied])
