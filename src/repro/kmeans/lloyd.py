"""Lloyd's algorithm, specialised for 1-D data plus a general n-D fallback.

The 1-D specialisation matters: NUMARCK clusters *scalar* change ratios
with k up to 2^B - 1 (255 or 511), and the O(n k) distance matrix of the
textbook formulation would dominate compression time.  For sorted
centroids, the nearest centroid of a scalar x is found by binary search
against the midpoints between adjacent centroids (:func:`assign1d`,
O(n log k); the encoder's per-point assignment).

Lloyd goes further: in 1-D every cluster is a contiguous run of the
*sorted* data, so :func:`kmeans1d` sorts the points once per fit
(O(n log n)) and each sweep only locates the k - 1 cluster boundaries
by binary search of the midpoints in the sorted data and sums the
segments between them -- O(k log n + n) per sweep, with labels mapped
back to input order once, after the last sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.tracer import get_telemetry

__all__ = ["KMeansResult", "assign1d", "kmeans1d", "kmeans"]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    centroids:
        ``(k,)`` (1-D) or ``(k, d)`` array, sorted ascending in the 1-D case.
    labels:
        ``(n,)`` int32 cluster index per input point.
    inertia:
        Sum of squared distances to the assigned centroid.
    n_iter:
        Lloyd iterations executed.
    converged:
        True if centroid movement fell below tolerance before ``max_iter``.
    inertia_history:
        Inertia at the end of each Lloyd sweep, ``len == n_iter``.  The
        trajectory is non-increasing up to floating-point noise; telemetry
        uses it as the convergence signal ("how many sweeps bought how
        much"), and it is cheap: the 1-D path derives each entry from the
        per-cluster moments the update step already computes.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int
    converged: bool
    inertia_history: tuple[float, ...] = ()


def assign1d(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels for scalar data against *sorted* centroids.

    Ties at a midpoint go to the lower centroid (``searchsorted`` with
    ``side='left'`` keeps the midpoint itself in the left bin); any
    consistent rule works for Lloyd convergence.
    """
    data = np.asarray(data, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 1 or centroids.size == 0:
        raise ValueError("centroids must be a non-empty 1-D array")
    if centroids.size == 1:
        return np.zeros(data.shape, dtype=np.int32)
    mids = 0.5 * (centroids[:-1] + centroids[1:])
    return np.searchsorted(mids, data, side="left").astype(np.int32)


class _SortedMoments:
    """Per-cluster moments of 1-D points sorted once per fit.

    The kernel shared by :func:`kmeans1d` and
    :func:`~repro.kmeans.parallel_kmeans1d`.  Calling it with sorted
    centroids returns the per-cluster (weighted) counts and value sums of
    the nearest-centroid partition, using :func:`assign1d`'s tie rule: a
    point's label is the number of midpoints strictly below it, so each
    cluster is a sorted run whose inner edges are
    ``searchsorted(xs, mids, side="right")``.  Segment sums go through
    ``np.add.reduceat``, not prefix-sum differences, so one cluster's sum
    never carries the round-off of values outside it (heavy-tailed ratio
    sets would leak their outliers into every cluster).
    """

    def __init__(self, data: np.ndarray, weights: np.ndarray | None = None):
        # Equal values may come out in any order; that changes no label and
        # no unweighted sum, so the fastest (default) kind will do.
        self.order = np.argsort(data)
        self.xs = data[self.order]
        if weights is None:
            self.ws = self.wxs = None
        else:
            self.ws = weights[self.order]
            self.wxs = self.xs * self.ws

    def _edges(self, cent: np.ndarray) -> np.ndarray:
        """Cluster j is the sorted run ``xs[edges[j]:edges[j + 1]]``."""
        mids = 0.5 * (cent[:-1] + cent[1:])
        return np.concatenate(
            ([0], np.searchsorted(self.xs, mids, side="right"), [self.xs.size]))

    def __call__(self, cent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        edges = self._edges(cent)
        sizes = np.diff(edges)
        counts = sizes.astype(np.float64)
        sums = np.zeros(cent.size)
        filled = sizes > 0
        starts = edges[:-1][filled]
        if self.ws is None:
            sums[filled] = np.add.reduceat(self.xs, starts)
        else:
            counts[filled] = np.add.reduceat(self.ws, starts)
            sums[filled] = np.add.reduceat(self.wxs, starts)
        return counts, sums

    def labels(self, cent: np.ndarray) -> np.ndarray:
        """Labels of the points, in input order, against ``cent``."""
        labels = np.empty(self.xs.size, dtype=np.int32)
        labels[self.order] = np.repeat(
            np.arange(cent.size, dtype=np.int32), np.diff(self._edges(cent)))
        return labels


def kmeans1d(
    data: np.ndarray,
    centroids: np.ndarray | None = None,
    max_iter: int = 50,
    tol: float = 1e-10,
    weights: np.ndarray | None = None,
    *,
    warm_start: np.ndarray | None = None,
    k: int | None = None,
) -> KMeansResult:
    """Lloyd's algorithm on scalar data from explicit initial centroids.

    Parameters
    ----------
    data:
        1-D float array of points to cluster.
    centroids:
        Initial centroids (will be sorted); ``k = len(centroids)``.
        Mutually exclusive with ``warm_start``.
    max_iter:
        Maximum Lloyd iterations.
    tol:
        Convergence threshold on the maximum absolute centroid movement,
        relative to the data range.
    weights:
        Optional non-negative per-point weights -- clustering a weighted
        histogram of n bins is then equivalent to clustering the full
        dataset it summarises (used by the sketch-based distributed fit).
    warm_start:
        Previously fitted centroids to restart from (the adaptive reuse
        engine's refit path).  They are clipped to the new data range and
        padded/deduplicated to ``k`` seeds via
        :func:`~repro.kmeans.init.warm_start_init`.
    k:
        Target centroid count for ``warm_start`` (defaults to the number
        of distinct warm-start centers).  Ignored with ``centroids``.

    Notes
    -----
    The data are sorted once per fit (O(n log n)); each sweep then costs
    O(k log n + n): a binary search of the k - 1 centroid midpoints in
    the sorted data plus one pass of segment sums.  Centroids are
    re-sorted after every update so the midpoints stay ordered.  Labels
    follow :func:`assign1d`'s tie rule exactly and are scattered back to
    input order once, after the last sweep.
    """
    arr = np.asarray(data, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot cluster empty data")
    if warm_start is not None:
        if centroids is not None:
            raise ValueError("pass either centroids or warm_start, not both")
        from repro.kmeans.init import warm_start_init

        cached = np.asarray(warm_start, dtype=np.float64).ravel()
        target_k = k if k is not None else max(int(np.unique(cached).size), 1)
        centroids = warm_start_init(arr, target_k, cached)
        get_telemetry().metrics.counter("kmeans.warm_starts").inc()
    elif centroids is None:
        raise ValueError("kmeans1d needs initial centroids (or warm_start=)")
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64).ravel()
        if w.shape != arr.shape:
            raise ValueError(f"weights shape {w.shape} != data shape {arr.shape}")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
    cent = np.sort(np.asarray(centroids, dtype=np.float64).ravel())
    k = cent.size
    if k < 1:
        raise ValueError("need at least one centroid")
    tel = get_telemetry()
    with tel.span("kmeans.lloyd", n_points=arr.size, k=k,
                  bytes_in=arr.nbytes) as tspan:
        span = float(arr.max() - arr.min())
        move_tol = tol * (span if span > 0 else 1.0)

        # sum w x^2 once; with the per-cluster moments (n_c, S_c) the
        # inertia after any sweep is sumsq - 2 c.S + n.c^2, so the history
        # costs two k-sized dot products per sweep instead of an O(n) pass.
        sumsq = float(np.sum(arr * arr if w is None else arr * arr * w))
        moments = _SortedMoments(arr, w)
        counts, sums = moments(cent)
        history: list[float] = []
        n_iter = 0
        converged = False
        for n_iter in range(1, max_iter + 1):
            new = cent.copy()
            nonempty = counts > 0
            new[nonempty] = sums[nonempty] / counts[nonempty]
            new = np.sort(new)
            move = float(np.max(np.abs(new - cent))) if k else 0.0
            cent = new
            counts, sums = moments(cent)
            history.append(max(
                sumsq - 2.0 * float(cent @ sums) + float(counts @ (cent * cent)),
                0.0,
            ))
            if move <= move_tol:
                converged = True
                break
        labels = moments.labels(cent)
        sq = (arr - cent[labels]) ** 2
        inertia = float(np.sum(sq if w is None else sq * w))
        tspan.set(n_iter=n_iter, converged=converged, inertia=inertia)
    tel.metrics.histogram("kmeans.sweeps",
                          buckets=(1, 2, 4, 8, 16, 32, 64)).observe(n_iter)
    if converged:
        tel.metrics.counter("kmeans.converged_runs").inc()
    return KMeansResult(cent, labels, inertia, n_iter, converged,
                        inertia_history=tuple(history))


def kmeans(
    data: np.ndarray,
    centroids: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> KMeansResult:
    """General n-D Lloyd's algorithm (O(n k d) per iteration).

    Provided for completeness (e.g. clustering multi-variable change
    vectors, an extension the paper's future-work section gestures at); the
    compression pipeline itself always uses :func:`kmeans1d`.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.size == 0:
        raise ValueError("cannot cluster empty data")
    cent = np.asarray(centroids, dtype=np.float64)
    if cent.ndim == 1:
        cent = cent[:, None]
    if cent.shape[1] != arr.shape[1]:
        raise ValueError(
            f"dimension mismatch: data has d={arr.shape[1]}, centroids d={cent.shape[1]}"
        )
    k = cent.shape[0]
    scale = float(np.max(np.ptp(arr, axis=0))) if arr.shape[0] > 1 else 1.0
    move_tol = tol * (scale if scale > 0 else 1.0)

    labels = np.zeros(arr.shape[0], dtype=np.int32)
    n_iter = 0
    converged = False
    history: list[float] = []
    with get_telemetry().span("kmeans.nd", n_points=arr.shape[0], k=k,
                              d=arr.shape[1], bytes_in=arr.nbytes):
        for n_iter in range(1, max_iter + 1):
            # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; drop the x term for argmin.
            d2 = -2.0 * arr @ cent.T + np.sum(cent * cent, axis=1)[None, :]
            labels = np.argmin(d2, axis=1).astype(np.int32)
            new = cent.copy()
            for j in range(k):
                members = labels == j
                if members.any():
                    new[j] = arr[members].mean(axis=0)
            move = float(np.max(np.abs(new - cent)))
            cent = new
            sweep_diffs = arr - cent[labels]
            history.append(float(np.sum(sweep_diffs * sweep_diffs)))
            if move <= move_tol:
                converged = True
                break
        diffs = arr - cent[labels]
        inertia = float(np.sum(diffs * diffs))
    return KMeansResult(cent, labels, inertia, n_iter, converged,
                        inertia_history=tuple(history))
