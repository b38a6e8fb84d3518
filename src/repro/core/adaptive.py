"""Adaptive bin-model reuse across chain iterations (the encode hot path).

Profiling shows per-iteration NUMARCK cost is dominated by re-learning the
change-ratio distribution every timestep.  But consecutive timesteps of a
stationary simulation produce near-identical ratio distributions, so the
follow-up parallel NUMARCK work (Yuan, Hendrix, Son et al.) reuses cluster
centers across timesteps.  :class:`AdaptiveEncoder` implements that idea
with a hard safety net:

1. each timestep, the cached :class:`~repro.core.strategies.base.BinModel`
   is *validated* against the new candidates -- one vectorised assign plus
   bound check, work the encoder performs anyway;
2. if the incompressible fraction has not drifted more than
   ``config.drift_threshold`` above the fraction observed when the model
   was last fitted, the fit stage is skipped (a *reuse hit*) and the
   validation labels double as the encode assignment;
3. on drift the model is refitted, warm-starting Lloyd from the cached
   centers, and the baseline resets.

The per-point guarantee is untouched in both paths: reuse only steers bin
placement, and every point is still error-checked exhaustively against E.
The observable effect of a worse-placed table is a slightly higher
incompressible fraction -- which is exactly the quantity the drift gate
watches.

Telemetry: counters ``adaptive.reuse_hits`` / ``adaptive.refits``, gauge
``adaptive.drift``, and an ``adaptive.validate`` span inside each encode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import NumarckConfig
from repro.core.encoder import EncodedIteration, EncodeReport, encode_pair
from repro.core.strategies.base import BinModel

__all__ = ["AdaptiveEncoder", "ReuseStats"]


@dataclass
class ReuseStats:
    """Running reuse counters of one :class:`AdaptiveEncoder`."""

    encodes: int = 0
    reuse_hits: int = 0
    refits: int = 0
    #: drift observed at each encode that had a cached model to validate.
    drift_history: list[float] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.reuse_hits / self.encodes if self.encodes else 0.0


class AdaptiveEncoder:
    """Stateful encoder that caches the fitted bin model across iterations.

    Typical use::

        enc = AdaptiveEncoder(NumarckConfig(adaptive=True))
        for prev, curr in pairs(simulation):
            iteration = enc.encode(prev, curr)   # EncodedIteration

    The first encode always fits; later encodes reuse the cached table
    until the drift trigger fires.  ``iteration.model_reused`` records the
    decision per iteration, which :mod:`repro.io` uses to store repeated
    tables once per chain.
    """

    def __init__(self, config: NumarckConfig | None = None) -> None:
        self.config = config if config is not None else NumarckConfig()
        self._model: BinModel | None = None
        self._baseline = 0.0
        self.stats = ReuseStats()
        self.last_report: EncodeReport | None = None

    @property
    def cached_model(self) -> BinModel | None:
        """The bin model the next encode will validate (None before the
        first fit)."""
        return self._model

    def reset(self) -> None:
        """Drop the cached model; the next encode fits from cold."""
        self._model = None
        self._baseline = 0.0

    def seed(self, model: BinModel, baseline: float = 0.0) -> None:
        """Prime the cache with a known-good model (e.g. the last delta's
        table when resuming a chain loaded from disk).  ``baseline`` is
        the fail fraction to measure drift against; 0 is conservative --
        any observed failure counts as drift."""
        self._model = model
        self._baseline = float(baseline)

    def encode(self, prev: np.ndarray, curr: np.ndarray) -> EncodedIteration:
        """Encode one iteration, reusing the cached model when it still
        covers the new ratio distribution."""
        enc, report = encode_pair(
            prev, curr, self.config,
            model_hint=self._model,
            hint_baseline=self._baseline,
            hint_drift=self.config.drift_threshold,
        )
        self.last_report = report
        self.stats.encodes += 1
        if report.model_reused:
            self.stats.reuse_hits += 1
        if report.refitted:
            self.stats.refits += 1
        if self._model is not None:
            self.stats.drift_history.append(report.drift)
        if report.n_candidates and not report.model_reused:
            # A fresh fit (cold or refit): cache its table and anchor the
            # drift baseline at the fail fraction it achieved.  Reuse hits
            # deliberately do NOT move the baseline -- updating it every
            # hit would let slow drift ratchet past the trigger unnoticed.
            if enc.representatives.size:
                self._model = BinModel(enc.representatives)
                self._baseline = report.fit_fail_fraction
            else:
                self.reset()
        return enc
