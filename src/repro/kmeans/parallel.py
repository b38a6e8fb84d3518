"""Data-parallel k-means over a :class:`repro.parallel.Comm`.

This mirrors the MPI formulation in the parallel k-means package the paper
cites: every rank holds a shard of the data, assignment is purely local,
and the centroid update allreduces per-cluster (sum, count) pairs so all
ranks step to identical centroids each iteration.  Each rank sorts its
shard once per fit (O(n log n)) and runs the same sorted-moments kernel
as :func:`repro.kmeans.kmeans1d`, so a sweep costs O(k log n + n) local
work plus one allreduce of k (sum, count) pairs.  With ``SerialComm`` the
result is bit-identical to :func:`repro.kmeans.kmeans1d` on the
concatenated data, which the test suite verifies.
"""

from __future__ import annotations

import numpy as np

from repro.kmeans.lloyd import KMeansResult, _SortedMoments, assign1d
from repro.parallel.comm import Comm, SerialComm
from repro.telemetry.tracer import get_telemetry

__all__ = ["parallel_kmeans1d"]


def parallel_kmeans1d(
    comm: Comm | None,
    local_data: np.ndarray,
    centroids: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-10,
) -> KMeansResult:
    """Distributed Lloyd's algorithm on scalar data.

    Parameters
    ----------
    comm:
        Communicator; every rank must call with its own shard.  ``None``
        means :class:`SerialComm`.
    local_data:
        This rank's shard (1-D float array; may be empty on some ranks as
        long as the global data set is non-empty).
    centroids:
        Initial centroids; must be identical on all ranks (typically rank 0
        computes them from a sample and broadcasts).

    Every allreduce absorbs the loss of a peer rank: when a peer is lost
    mid-iteration its moments simply stop contributing, the survivors
    keep stepping to identical centroids, and the per-point guarantee
    downstream is untouched (the centroids only steer bin placement).
    Loss of rank 0 raises :class:`~repro.parallel.faults.RankFailureError`.

    Returns
    -------
    KMeansResult
        ``labels`` are for the *local* shard; ``centroids``, ``inertia``
        and convergence flags are global and identical on every surviving
        rank.
    """
    comm = comm if comm is not None else SerialComm()
    arr = np.asarray(local_data, dtype=np.float64).ravel()
    cent = np.sort(np.asarray(centroids, dtype=np.float64).ravel())
    k = cent.size
    if k < 1:
        raise ValueError("need at least one centroid")
    n_global = comm.allreduce(arr.size)
    if n_global == 0:
        raise ValueError("global data set is empty")

    tel = get_telemetry()
    with tel.span("kmeans.parallel", n_points=int(n_global), k=k,
                  n_local=arr.size) as tspan:
        # Global data span for the relative movement tolerance.
        local_lo = float(arr.min()) if arr.size else np.inf
        local_hi = float(arr.max()) if arr.size else -np.inf
        lo = comm.allreduce(local_lo, op=min)
        hi = comm.allreduce(local_hi, op=max)
        span = hi - lo
        move_tol = tol * (span if span > 0 else 1.0)

        # Like kmeans1d, the global per-sweep inertia falls out of the
        # allreduced moments: sumsq - 2 c.S + n.c^2.  Reducing the moments
        # *after* assignment (and reusing them for the next update) keeps
        # it at one allreduce per sweep.
        local_sumsq = float(np.sum(arr * arr)) if arr.size else 0.0
        sumsq = comm.allreduce(local_sumsq)
        moments = _SortedMoments(arr)

        def local_sums(cent: np.ndarray) -> np.ndarray:
            counts, sums = moments(cent)
            return np.column_stack((sums, counts))

        sums = comm.allreduce(local_sums(cent))
        history: list[float] = []
        n_iter = 0
        converged = False
        for n_iter in range(1, max_iter + 1):
            new = cent.copy()
            nonempty = sums[:, 1] > 0
            new[nonempty] = sums[nonempty, 0] / sums[nonempty, 1]
            new = np.sort(new)
            move = float(np.max(np.abs(new - cent)))
            cent = new
            sums = comm.allreduce(local_sums(cent))
            history.append(max(
                sumsq - 2.0 * float(cent @ sums[:, 0])
                + float(sums[:, 1] @ (cent * cent)),
                0.0,
            ))
            if move <= move_tol:
                converged = True
                break
        labels = assign1d(arr, cent)
        local_inertia = float(np.sum((arr - cent[labels]) ** 2)) if arr.size else 0.0
        inertia = comm.allreduce(local_inertia)
        tspan.set(n_iter=n_iter, converged=converged, inertia=inertia)
    tel.metrics.histogram("kmeans.sweeps",
                          buckets=(1, 2, 4, 8, 16, 32, 64)).observe(n_iter)
    return KMeansResult(cent, labels, inertia, n_iter, converged,
                        inertia_history=tuple(history))
