"""In-situ distributed encoding (the paper's deployment mode).

NUMARCK runs *inside* the simulation: every MPI rank owns a shard of the
mesh and compresses it in place, with one communication-light model fit
shared across ranks (paper: "minimal data movement (mostly in place)").

:func:`parallel_encode` implements that pattern over the
:class:`~repro.parallel.Comm` protocol:

1. each rank computes change ratios for its shard locally;
2. rank 0 gathers a *bounded* sample of compressible candidates (default
   32k values per rank -- constant communication volume regardless of
   shard size), fits the configured strategy, and broadcasts the bin
   table;
3. optionally (``refine=True``, clustering only) the broadcast centroids
   are refined with distributed Lloyd iterations
   (:func:`~repro.kmeans.parallel_kmeans1d`), whose allreduce traffic is
   O(k) per iteration;
4. every rank runs the one encode kernel
   (:func:`~repro.core.encoder.encode_block`) on its own points against
   the shared table and builds its local
   :class:`~repro.core.encoder.EncodedIteration`.

The per-point guarantee is exactly the serial one: sharing the table only
affects bin placement, never the exactness check.

**Degraded-mode recovery:** a checkpoint must still be produced when a
peer rank dies or hangs mid-collective, and every collective absorbs
such a loss.  Rank 0 fits the model from the samples of the *surviving*
ranks and piggybacks the lost-rank set on its broadcasts, so all
survivors agree on the membership and finish with identical statistics.
Crucially the per-point error bound is unaffected:
the shared table only steers bin placement, and every surviving rank
still error-checks its own points exhaustively.  The result's
:class:`GlobalStats` then reports ``degraded=True`` with the
``lost_ranks``, and global counts cover survivors only.  Loss of rank 0
itself (the recovery coordinator) is always a loud
:class:`~repro.parallel.faults.RankFailureError`.

Failure detection is timeout-based and therefore *unreliable* in the
theoretical sense: a live rank that stays silent past the communicator
``timeout`` (say, a compute phase longer than it) is suspected falsely.
A falsely-suspected rank that later needs data from the survivors fails
loudly (it is skipped, times out, and raises).  Size the ``timeout``
above the longest compute phase to make false positives rare.
``lost_ranks`` are the ranks missing from the global totals, read from
a membership vector in the final allreduce, so a rank that contributed
and then exited is never reported lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.parallel.comm import Comm, SerialComm
from repro.telemetry.tracer import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import NumarckConfig
    from repro.core.encoder import EncodedIteration

# repro.core imports repro.kmeans, whose distributed driver imports
# repro.parallel (this package); importing repro.core at module scope here
# would close that cycle.  The core/kmeans symbols are therefore imported
# lazily inside the functions.

__all__ = ["parallel_encode", "GlobalStats"]


@dataclass(frozen=True)
class GlobalStats:
    """Aggregate compression statistics across all *surviving* ranks."""

    n_points: int
    n_incompressible: int
    n_bins: int
    #: True when at least one rank was lost and the encode completed from
    #: the survivors; global counts then cover survivors only.
    degraded: bool = False
    #: ranks lost during this encode (empty on a clean run).
    lost_ranks: tuple[int, ...] = ()
    #: True when the shared bin table came from ``model_hint`` (reuse hit):
    #: the sample gather, root fit, table broadcast and Lloyd refinement
    #: were all skipped -- communication drops to one O(1) allreduce.
    model_reused: bool = False

    @property
    def incompressible_ratio(self) -> float:
        return self.n_incompressible / self.n_points if self.n_points else 0.0


def parallel_encode(
    comm: Comm | None,
    local_prev: np.ndarray,
    local_curr: np.ndarray,
    config: NumarckConfig | None = None,
    sample_per_rank: int = 32_768,
    refine: bool = True,
    fit_mode: str = "sample",
    model_hint=None,
    hint_baseline: float = 0.0,
    hint_drift: float | None = None,
) -> tuple[EncodedIteration, GlobalStats]:
    """SPMD encode of one iteration; call on every rank with its shard.

    Returns this rank's encoded shard plus the *global* statistics
    (identical on every rank).  With ``SerialComm`` the result matches the
    serial encoder up to sampling of the model fit; with a hint reused
    unconditionally (``hint_drift=None``) it is identical to
    :func:`~repro.core.encoder.encode_pair` with the same hint.

    ``fit_mode`` selects how the shared bin table is learned:

    * ``"sample"`` -- gather a bounded candidate sample to rank 0, fit the
      configured strategy there, broadcast the table (default; any
      strategy).
    * ``"sketch"`` -- every rank builds a
      :class:`~repro.analysis.sketch.RatioSketch` of its candidates; one
      O(bins) allreduce merges them and every rank fits the identical
      weighted-k-means model locally.  Communication is constant in both
      data size and rank count; only meaningful for ``"clustering"``.

    Lost peers are survived: the model is fitted from the surviving
    ranks' data and the returned stats carry ``degraded=True`` plus the
    ``lost_ranks``.  The per-point error bound E still holds on every
    surviving rank.

    ``model_hint`` (a :class:`~repro.core.strategies.base.BinModel` every
    rank already holds, e.g. from the previous timestep's encode) enables
    the adaptive reuse path: each rank encodes its shard against the hinted
    table (on a reuse hit that run is the encode), one O(1) allreduce
    agrees on the *global* fail
    fraction, and if it has not drifted more than ``hint_drift`` above
    ``hint_baseline`` the whole fit pipeline -- sample gather, root fit,
    table broadcast, Lloyd refinement -- is skipped (``hint_drift=None``
    reuses unconditionally).  The decision is collective, so every rank
    takes the same branch.  On drift, the normal fit runs and warm-starts
    from the hinted centers.  The per-point bound E is unaffected either
    way.
    """
    from repro.core.change import change_ratios
    from repro.core.config import NumarckConfig
    from repro.core.encoder import _fit_model, candidate_index, encode_block
    from repro.core.strategies.base import BinModel, bounded_sample
    from repro.kmeans import parallel_kmeans1d

    comm = comm if comm is not None else SerialComm()
    cfg = config if config is not None else NumarckConfig()
    prev = np.asarray(local_prev)
    curr = np.asarray(local_curr)
    if prev.shape != curr.shape:
        raise ValueError(f"shard shape mismatch: {prev.shape} vs {curr.shape}")

    if fit_mode not in ("sample", "sketch"):
        raise ValueError(f"unknown fit_mode {fit_mode!r}")

    tel = get_telemetry()
    with tel.span("insitu.parallel_encode", rank=comm.rank, size=comm.size,
                  n_local=int(curr.size)) as tspan:
        change = change_ratios(prev, curr)
        ratios = change.ratios.ravel()
        forced = change.forced_exact.ravel()
        cand_idx = candidate_index(ratios, forced, cfg)
        cand = ratios[cand_idx]

        reused = False
        if model_hint is not None:
            # -- adaptive reuse: collective drift check, O(1) traffic -----
            block = encode_block(ratios, forced, curr, model_hint, cfg,
                                 cand_idx)
            with comm.phase("insitu.hint_validate"):
                totals = comm.allreduce(
                    np.array([cand.size, block.n_fail], dtype=np.int64))
            n_cand_global = int(totals[0])
            fail_frac = int(totals[1]) / n_cand_global if n_cand_global else 0.0
            drift = max(0.0, fail_frac - hint_baseline)
            tel.metrics.gauge("adaptive.drift").set(drift)
            if hint_drift is None or drift <= hint_drift:
                reused = True
                reps = model_hint.representatives
                tel.metrics.counter("adaptive.reuse_hits").inc()
            else:
                tel.metrics.counter("adaptive.refits").inc()

        if reused:
            pass  # every rank already holds the shared table
        elif fit_mode == "sketch":
            # -- mergeable-sketch fit: O(bins) allreduce, local deterministic fit
            from repro.analysis.sketch import RatioSketch

            sketch = RatioSketch(cfg.error_bound).add(cand)
            with comm.phase("insitu.sketch_allreduce"):
                sketch.counts = comm.allreduce(sketch.counts)
            if sketch.total:
                reps = sketch.fit_model(cfg.n_bins,
                                        max_iter=cfg.kmeans_max_iter).representatives
            else:
                reps = np.empty(0)
        else:
            # -- bounded-sample gather and root-side model fit ---------------
            sample = bounded_sample(cand, sample_per_rank,
                                    cfg.seed + comm.rank)
            with comm.phase("insitu.sample_gather"):
                gathered = comm.gather(sample)
            if comm.rank == 0:
                live = [g for g in (gathered or [])
                        if g is not None and g.size]
                all_samples = np.concatenate(live) if live else np.empty(0)
                if all_samples.size:
                    ws = (model_hint.representatives
                          if model_hint is not None else None)
                    model = _fit_model(all_samples, cfg, warm_start=ws)
                    reps = model.representatives
                else:
                    reps = np.empty(0)
                payload = (reps, comm.lost_ranks)
            else:
                payload = None
            with comm.phase("insitu.fit_bcast"):
                payload = comm.bcast(payload)
            reps, lost_at_fit = payload
            # Survivors adopt the root's view of the membership so later
            # collectives skip the casualties without re-detecting them.
            comm.note_lost(lost_at_fit)

        # -- optional distributed Lloyd refinement (paper's parallel k-means)
        if refine and not reused and cfg.strategy == "clustering" and reps.size > 1:
            with comm.phase("insitu.refine"):
                refined = parallel_kmeans1d(comm, cand, reps,
                                            max_iter=cfg.kmeans_max_iter)
                candidate = np.unique(refined.centroids)
                # Safeguard as in the serial strategy: keep the refinement
                # only if it does not cover fewer local+global points than
                # the root fit.
                def global_fails(table: np.ndarray) -> int:
                    m = BinModel(table)
                    local = int(np.count_nonzero(
                        np.abs(m.approximate(cand) - cand) >= cfg.error_bound
                    )) if cand.size else 0
                    return comm.allreduce(local)

                if global_fails(candidate) <= global_fails(reps):
                    reps = candidate

        # -- exhaustive local assignment and exactness check ----------------
        if not reused:
            table = BinModel(reps) if reps.size else None
            block = encode_block(ratios, forced, curr, table, cfg, cand_idx)
        encoded = block.as_iteration(curr.shape, cfg, model_reused=reused)
        # [n_points, n_incompressible, one-hot(rank)]: the membership
        # entries that sum to 0 name the ranks missing from the totals.
        local = np.zeros(2 + comm.size, dtype=np.int64)
        local[:2] = encoded.n_points, encoded.n_incompressible
        local[2 + comm.rank] = 1
        with comm.phase("insitu.stats"):
            totals = comm.allreduce(local)
        lost = [int(r) for r in np.flatnonzero(totals[2:] == 0)]
        stats = GlobalStats(
            n_points=int(totals[0]),
            n_incompressible=int(totals[1]),
            n_bins=int(np.asarray(reps).size),
            degraded=bool(lost),
            lost_ranks=tuple(lost),
            model_reused=reused,
        )
        tspan.set(degraded=stats.degraded, n_lost=len(lost),
                  n_bins=stats.n_bins, model_reused=reused)
        if stats.degraded:
            tel.metrics.counter("insitu.degraded_encodes").inc()
    return encoded, stats
