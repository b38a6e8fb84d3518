"""Encode one iteration into the NUMARCK representation.

Per-point layout (paper Algorithm 1 plus the layout decision documented in
DESIGN.md):

* index ``0`` -- change ratio below tolerance (``|ratio| < E``): decode as
  "carry the previous value" (approximated ratio 0);
* index ``1 .. 2**B - 1`` -- bin id; decode ratio = table[index - 1];
* incompressible points -- flagged in a 1-bit-per-point bitmap; their raw
  values are stored densely in flat (C-order) index order, and
  their B-bit index is set to 0 and ignored on decode.  Exact values are
  held as float64 in memory and stored at the source precision
  (``value_bits``: 32 for float32 input, else 64).

A point is incompressible when (a) the change ratio is undefined
(``prev == 0`` or non-finite data), or (b) its assigned bin representative
misses the true ratio by ``>= E``.  Consequently every decoded point
satisfies the hard guarantee ``|decoded_ratio - true_ratio| < E`` or is
bit-exact.

**One kernel.** :func:`encode_block` is the only code that turns change
ratios and a bin table into indices, bitmap and exact values.  The pair
encoder (:func:`encode_pair`), the chunked encoder
(:mod:`repro.core.streaming`) and the SPMD encoder
(:func:`repro.parallel.parallel_encode`) are drivers around it that differ
only in how they obtain the table: a fit, a validated hint, a reservoir
sample, or a root fit plus broadcast.

**Model reuse** (the adaptive engine's hot path): :func:`encode_pair`
accepts a ``model_hint`` -- a previously fitted
:class:`~repro.core.strategies.base.BinModel`.  The hint is *validated* by
one kernel run against it; when the incompressible fraction has not
drifted past ``hint_drift`` over ``hint_baseline``, the fit stage is
skipped entirely and that run is the encode -- reuse costs nothing beyond
the assign every encode performs anyway.  On drift the
model is refitted (warm-starting from the cached centers when the
strategy supports it).  Either way the per-point exactness check runs in
full, so E holds identically in both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.change import change_ratios
from repro.core.config import NumarckConfig
from repro.core.strategies.base import ApproximationStrategy, BinModel
from repro.telemetry.accounting import delta_payload_nbytes
from repro.telemetry.tracer import get_telemetry

__all__ = ["EncodedIteration", "EncodeReport", "EncodedBlock", "encode_block",
           "candidate_index", "encode_pair"]


@dataclass(frozen=True)
class EncodedIteration:
    """Compressed form of one checkpoint iteration.

    Attributes
    ----------
    shape:
        Original array shape.
    nbits:
        Index width ``B``.
    representatives:
        Sorted table of at most ``2**B - 1`` representative ratios
        (possibly empty when every point was unchanged or exact).
    indices:
        Flat uint32 array of per-point indices (0 = below tolerance or
        incompressible; ``j >= 1`` = ``representatives[j - 1]``).
    incompressible:
        Flat boolean mask of exactly stored points.
    exact_values:
        Raw values of the incompressible points (as float64), in flat
        order.
    error_bound / strategy:
        The configuration the iteration was encoded with, kept for
        self-description and format headers.
    """

    shape: tuple[int, ...]
    nbits: int
    representatives: np.ndarray
    indices: np.ndarray
    incompressible: np.ndarray
    exact_values: np.ndarray
    error_bound: float
    strategy: str
    zero_reserved: bool = True
    #: bits per raw value of the *source* data (64 for float64 checkpoints,
    #: 32 for float32 -- affects Eq.-3 accounting and how exact values are
    #: serialised; in memory they are always held as float64).
    value_bits: int = 64
    #: True when this iteration reused the previous iteration's bin table
    #: instead of fitting a fresh one (adaptive reuse hit).  The container
    #: format stores such tables once per run of reuse hits.
    model_reused: bool = False

    @property
    def n_points(self) -> int:
        return int(self.indices.size)

    @property
    def n_incompressible(self) -> int:
        return int(self.exact_values.size)

    @property
    def incompressible_ratio(self) -> float:
        """The paper's gamma: fraction of points stored exactly."""
        return self.n_incompressible / self.n_points if self.n_points else 0.0

    def decoded_ratios(self) -> np.ndarray:
        """Approximated change ratio per point (flat; 0 where incompressible)."""
        if self.representatives.size == 0:
            return np.zeros(self.n_points, dtype=np.float64)
        if self.zero_reserved:
            table = np.concatenate([[0.0], self.representatives])
        else:
            table = self.representatives
        ratios = table[self.indices]
        ratios[self.incompressible] = 0.0
        return ratios


@dataclass(frozen=True)
class EncodeReport:
    """What the model-reuse gate decided for one encode.

    Attributes
    ----------
    model_reused:
        True when the hinted table was validated and reused (fit skipped).
    refitted:
        True when a hint was provided but drifted past the trigger, so a
        fresh model was fitted.
    drift:
        Observed drift of the hinted table: the candidate fail fraction
        under the hint minus ``hint_baseline``, floored at 0.  Zero when
        no hint was given.
    fit_fail_fraction:
        Candidate fail fraction under the *final* table -- the baseline a
        stateful caller should carry to the next iteration.
    n_candidates:
        Number of compressible candidates this encode considered.
    mean_error / max_error:
        Mean and maximum ``|decoded ratio - true ratio|`` over all points
        (exact points count 0), as :func:`repro.core.metrics.error_rates`
        reports them.
    """

    model_reused: bool = False
    refitted: bool = False
    drift: float = 0.0
    fit_fail_fraction: float = 0.0
    n_candidates: int = 0
    mean_error: float = 0.0
    max_error: float = 0.0


def _fit_model(candidates: np.ndarray, config: NumarckConfig,
               warm_start: np.ndarray | None = None) -> BinModel:
    strategy = ApproximationStrategy.from_config(config)
    return strategy.fit(candidates, config.n_bins, config.error_bound,
                        warm_start=warm_start)


def candidate_index(ratios: np.ndarray, forced: np.ndarray,
                    config: NumarckConfig) -> np.ndarray:
    """Flat positions of the points that need a bin: defined ratios with
    ``|ratio| >= E``, or every defined ratio when no zero index is
    reserved (the ablation layout, whose table carries a near-zero bin).

    :func:`~repro.core.change.change_ratios` stores 0.0 as the ratio of
    every forced point, and ``E > 0``, so ``|ratio| >= E`` alone already
    leaves the forced points out.
    """
    if config.reserve_zero_bin:
        return np.flatnonzero(np.abs(ratios) >= config.error_bound)
    return np.flatnonzero(~forced)


@dataclass(frozen=True)
class EncodedBlock:
    """One flat block encoded by :func:`encode_block`.

    ``indices``, ``incompressible`` and ``exact_values`` are the per-point
    layout of :class:`EncodedIteration`; ``n_fail`` counts the candidates
    the table missed by ``>= E`` (stored exactly instead).  The remaining
    fields keep what :meth:`error_rates` needs.
    """

    representatives: np.ndarray
    indices: np.ndarray
    incompressible: np.ndarray
    exact_values: np.ndarray
    value_bits: int
    n_fail: int
    ratios: np.ndarray = field(repr=False)
    cand_idx: np.ndarray = field(repr=False)
    cand_err: np.ndarray | None = field(repr=False)

    @property
    def n_candidates(self) -> int:
        return int(self.cand_idx.size)

    @property
    def fail_fraction(self) -> float:
        """Share of the candidates the table missed (0 without candidates)."""
        return self.n_fail / self.n_candidates if self.n_candidates else 0.0

    def error_rates(self) -> tuple[float, float]:
        """Mean and max ``|decoded ratio - true ratio|`` over the block;
        bit-identical to :func:`repro.core.metrics.error_rates` on the
        decoded iteration, without recomputing any ratio."""
        if self.ratios.size == 0:
            return 0.0, 0.0
        err = np.abs(self.ratios)
        if self.cand_err is not None:
            err[self.cand_idx] = self.cand_err
        err[self.incompressible] = 0.0
        return float(err.mean()), float(err.max())

    def as_iteration(self, shape: tuple[int, ...], config: NumarckConfig, *,
                     model_reused: bool = False) -> EncodedIteration:
        return EncodedIteration(
            shape=tuple(shape),
            nbits=config.nbits,
            representatives=self.representatives,
            indices=self.indices,
            incompressible=self.incompressible,
            exact_values=self.exact_values,
            error_bound=config.error_bound,
            strategy=config.strategy,
            zero_reserved=config.reserve_zero_bin,
            value_bits=self.value_bits,
            model_reused=model_reused,
        )


def encode_block(ratios: np.ndarray, forced: np.ndarray, values: np.ndarray,
                 table: BinModel | None, config: NumarckConfig,
                 cand_idx: np.ndarray | None = None) -> EncodedBlock:
    """Paper Algorithm 1's per-point encode of one flat block.

    ``ratios`` and ``forced`` are the block's flat change ratios and
    forced-exact mask, ``values`` its current values (any shape; their
    dtype sets ``value_bits``).  Every candidate is assigned its nearest
    bin of ``table`` and kept only if ``|approx - ratio| < E``; the rest,
    the forced points, and every candidate when ``table`` is ``None``, are
    stored exactly.  ``cand_idx`` may pass a precomputed
    :func:`candidate_index`.
    """
    if cand_idx is None:
        cand_idx = candidate_index(ratios, forced, config)
    if table is not None and table.n_bins > config.n_bins:
        raise AssertionError(
            "strategy produced more representatives than the index width allows"
        )
    indices = np.zeros(ratios.size, dtype=np.uint32)
    incompressible = forced.copy()
    cand_err = None
    n_fail = int(cand_idx.size)
    if table is None:
        incompressible[cand_idx] = True
    elif cand_idx.size:
        cand = ratios[cand_idx]
        labels = table.assign(cand)
        cand_err = np.abs(table.representatives[labels] - cand)
        fail = cand_err >= config.error_bound
        n_fail = int(np.count_nonzero(fail))
        if config.reserve_zero_bin:
            labels += 1
        if n_fail:
            ok = ~fail
            indices[cand_idx[ok]] = labels[ok]
            incompressible[cand_idx[fail]] = True
        else:
            indices[cand_idx] = labels
    values = np.asarray(values)
    return EncodedBlock(
        representatives=(table.representatives if table is not None
                         else np.empty(0, dtype=np.float64)),
        indices=indices,
        incompressible=incompressible,
        exact_values=values.ravel()[incompressible].astype(np.float64),
        value_bits=32 if values.dtype == np.float32 else 64,
        n_fail=n_fail,
        ratios=ratios,
        cand_idx=cand_idx,
        cand_err=cand_err,
    )


def encode_pair(
    prev: np.ndarray,
    curr: np.ndarray,
    config: NumarckConfig | None = None,
    *,
    model_hint: BinModel | None = None,
    hint_baseline: float = 0.0,
    hint_drift: float | None = None,
) -> tuple[EncodedIteration, EncodeReport]:
    """Compress iteration ``curr`` against ``prev``; return the encoding
    plus an :class:`EncodeReport` describing the model-reuse decision.

    Parameters
    ----------
    prev:
        The reference iterate.  Under the paper's open-loop scheme this is
        the *original* previous iteration; callers running closed-loop pass
        the previously *decoded* state (see
        :class:`~repro.core.checkpoint.CheckpointChain`).
    curr:
        The iterate to compress.
    config:
        Compression parameters; defaults to ``NumarckConfig()``.
    model_hint:
        A previously fitted bin table to try first.  With ``hint_drift``
        set, the hint is validated and dropped on drift; with
        ``hint_drift=None`` it is used unconditionally (the distributed
        encoder's broadcast-table path).
    hint_baseline:
        Candidate fail fraction when the hint was last accepted; drift is
        measured relative to this.
    hint_drift:
        Maximum tolerated drift before a refit (absolute increase of the
        fail fraction).  ``None`` disables the gate.  On refit the
        strategy warm-starts from the hint's representatives.
    """
    cfg = config if config is not None else NumarckConfig()
    curr = np.asarray(curr)
    tel = get_telemetry()
    with tel.span("encode", n_points=int(curr.size), strategy=cfg.strategy,
                  bytes_in=int(curr.nbytes)) as tspan:
        with tel.span("encode.change_ratios"):
            change = change_ratios(prev, curr)
        ratios = change.ratios.ravel()
        forced = change.forced_exact.ravel()
        cand_idx = candidate_index(ratios, forced, cfg)
        n_cand = int(cand_idx.size)
        reused = refitted = False
        drift = 0.0
        if model_hint is not None:
            # Validate the cached table with one kernel run; on a reuse
            # hit that run is the encode, so validation costs nothing extra.
            with tel.span("adaptive.validate", n_candidates=n_cand) as vspan:
                block = encode_block(ratios, forced, curr, model_hint, cfg,
                                     cand_idx)
                drift = max(0.0, block.fail_fraction - hint_baseline)
                reused = hint_drift is None or drift <= hint_drift
                vspan.set(drift=drift, reused=reused)
            tel.metrics.gauge("adaptive.drift").set(drift)
            if reused:
                tel.metrics.counter("adaptive.reuse_hits").inc()
        if not reused:
            model = None
            if n_cand:
                with tel.span("encode.fit", n_candidates=n_cand):
                    ws = (model_hint.representatives
                          if model_hint is not None else None)
                    model = _fit_model(ratios[cand_idx], cfg, warm_start=ws)
                if model_hint is not None:
                    refitted = True
                    tel.metrics.counter("adaptive.refits").inc()
            with tel.span("encode.assign", n_candidates=n_cand):
                block = encode_block(ratios, forced, curr, model, cfg,
                                     cand_idx)
        enc = block.as_iteration(curr.shape, cfg, model_reused=reused)
        tspan.set(bytes_out=delta_payload_nbytes(enc),
                  gamma=enc.incompressible_ratio,
                  n_bins=int(enc.representatives.size),
                  model_reused=reused)
    tel.metrics.histogram(
        "encode.incompressible_fraction",
        buckets=(0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0),
    ).observe(enc.incompressible_ratio)
    mean_error, max_error = block.error_rates()
    report = EncodeReport(
        model_reused=reused,
        refitted=refitted,
        drift=drift,
        fit_fail_fraction=block.fail_fraction,
        n_candidates=n_cand,
        mean_error=mean_error,
        max_error=max_error,
    )
    return enc, report
