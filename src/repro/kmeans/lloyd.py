"""Lloyd's algorithm, specialised for 1-D data plus a general n-D fallback.

The 1-D specialisation matters: NUMARCK clusters *scalar* change ratios
with k up to 2^B - 1 (255 or 511), and the O(n k) distance matrix of the
textbook formulation would dominate compression time.  For sorted
centroids, the nearest centroid of a scalar x is placed among the
midpoints between adjacent centroids by a lookup table over the midpoint
span (:class:`MidpointTable`, O(1) per point, binary search as its
fallback); it serves :func:`assign1d` and the encoder's per-point
assignment alike.

Lloyd goes further: in 1-D every cluster is a contiguous run of the
*sorted* data, so :func:`kmeans1d` sorts unsorted points once per fit
(O(n log n)) and each sweep only locates the k - 1 cluster boundaries
by binary search of the midpoints in the sorted data and sums the
segments between them -- O(k log n + n) per sweep.  Labels are the last
sweep's runs for sorted input, else one :func:`assign1d` pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kmeans.init import _ascending, warm_start_init
from repro.telemetry.tracer import get_telemetry

__all__ = ["KMeansResult", "MidpointTable", "assign1d", "kmeans1d", "kmeans"]


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


#: Cells of :class:`MidpointTable`'s lookup table, and the most midpoints
#: one cell may hold before the table gives way to a binary search.
_CELLS = 4096
_MAX_PER_CELL = 8


class MidpointTable:
    """Nearest-centroid labels of scalar data against *sorted* centroids.

    A label is ``searchsorted(mids, x, side="left")`` over the midpoints
    between adjacent centroids, so ties go to the lower centroid.  A
    lookup table finds it in O(1) per point: ``cell(x) = int(clip((x - lo)
    * scale, 0, _CELLS - 1))`` cuts the midpoint span into equal cells,
    and the table counts the midpoints in lower cells.  ``cell`` is
    monotone and bins midpoints and points alike, so a midpoint in a lower
    cell is below ``x`` and one in a higher cell above it: one comparison
    per midpoint of the fullest cell completes the exact count.  A span
    with no finite positive ``scale``, or a cell holding more than
    ``_MAX_PER_CELL`` midpoints, falls back to the binary search.
    """

    def __init__(self, centroids: np.ndarray):
        cent = np.asarray(centroids, dtype=np.float64)
        if cent.ndim != 1 or cent.size == 0:
            raise ValueError("centroids must be a non-empty 1-D array")
        self._base = None
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # Huge centroids may give a +-inf midpoint: binary search only.
            self.mids = 0.5 * (cent[:-1] + cent[1:])
            if self.mids.size == 0:
                return
            self._lo = self.mids[0]
            self._scale = _CELLS / (self.mids[-1] - self._lo)
        if np.isfinite(self._scale) and self._scale > 0:
            cells = self._cells(self.mids)
            self._steps = int(np.bincount(cells).max())
            if self._steps <= _MAX_PER_CELL:
                self._base = np.searchsorted(cells, np.arange(_CELLS))
                # A trailing +inf stops a step that runs off the last cell.
                self._padded = np.append(self.mids, np.inf)

    def _cells(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            t = np.subtract(x, self._lo, out=np.empty(x.shape))
            t *= self._scale
        np.clip(t, 0, _CELLS - 1, out=t)
        # Pointer-sized indices gather faster than int32 ones.
        return t.astype(np.intp)

    def __call__(self, data: np.ndarray) -> np.ndarray:
        """Label per point (int32, same shape as ``data``)."""
        x = np.asarray(data, dtype=np.float64)
        if self._base is None or np.isnan(x).any():
            # NaN sorts after every midpoint, which only the search knows.
            return np.searchsorted(self.mids, x, side="left").astype(np.int32)
        labels = self._base[self._cells(x)]
        for _ in range(self._steps):
            labels += self._padded[labels] < x
        return labels.astype(np.int32)


def assign1d(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels for scalar data against *sorted* centroids.

    Ties at a midpoint go to the lower centroid (see
    :class:`MidpointTable`); any consistent rule works for Lloyd
    convergence.
    """
    return MidpointTable(centroids)(data)


class _SortedMoments:
    """Per-cluster moments of 1-D points sorted at most once per fit.

    The kernel shared by :func:`kmeans1d` and
    :func:`~repro.kmeans.parallel_kmeans1d`.  Calling it with sorted
    centroids returns the per-cluster (weighted) counts and value sums of
    the nearest-centroid partition, using :func:`assign1d`'s tie rule: a
    point's label is the number of midpoints strictly below it, so each
    cluster is a sorted run whose inner edges are
    ``searchsorted(xs, mids, side="right")``; ``sizes`` keeps the last
    call's run lengths.  Unweighted data is sorted only if it is not
    already (``presorted``); weighted data is argsorted.  Segment sums go
    through ``np.add.reduceat``, not prefix-sum differences, so one
    cluster's sum never carries the round-off of values outside it
    (heavy-tailed ratio sets would leak their outliers into every cluster).
    """

    def __init__(self, data: np.ndarray, k: int,
                 weights: np.ndarray | None = None):
        if weights is None:
            self.xs = _ascending(data)
            self.ws = self.wxs = None
        else:
            order = np.argsort(data)
            self.xs = data[order]
            self.ws = weights[order]
            self.wxs = self.xs * self.ws
        self.presorted = self.xs is data
        # Cluster j is the sorted run ``xs[edges[j]:edges[j + 1]]``.
        self.edges = np.zeros(k + 1, dtype=np.intp)
        self.edges[-1] = self.xs.size

    def __call__(self, cent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        edges = self.edges
        edges[1:-1] = np.searchsorted(self.xs, 0.5 * (cent[:-1] + cent[1:]),
                                      side="right")
        sizes = self.sizes = np.diff(edges)
        counts = sizes.astype(np.float64)
        sums = np.zeros(cent.size)
        # reduceat needs distinct in-range starts: mask out empty runs.
        filled = slice(None) if sizes.all() else sizes > 0
        starts = edges[:-1][filled]
        if self.ws is None:
            sums[filled] = np.add.reduceat(self.xs, starts)
        else:
            counts[filled] = np.add.reduceat(self.ws, starts)
            sums[filled] = np.add.reduceat(self.wxs, starts)
        return counts, sums


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
    Unsorted data are sorted once per fit (O(n log n)); each sweep then
    costs O(k log n + n): a binary search of the k - 1 centroid midpoints
    in the sorted data plus one pass of segment sums.  Centroids are
    re-sorted after every update so the midpoints stay ordered.  Labels
    of sorted input are the last sweep's runs; other input is labelled
    by :func:`assign1d` once, after the last sweep.
    """
    arr = np.asarray(data, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot cluster empty data")
    if warm_start is not None:
        if centroids is not None:
            raise ValueError("pass either centroids or warm_start, not both")
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
        moments = _SortedMoments(arr, k, w)
        span = float(moments.xs[-1] - moments.xs[0])
        move_tol = tol * (span if span > 0 else 1.0)

        # sum w x^2 once; with the per-cluster moments (n_c, S_c) the
        # inertia after any sweep is sumsq - 2 c.S + n.c^2, so the history
        # costs two k-sized dot products per sweep instead of an O(n) pass.
        sumsq = float(np.sum(arr * arr if w is None else arr * arr * w))
        counts, sums = moments(cent)
        history: list[float] = []
        n_iter = 0
        converged = False
        for n_iter in range(1, max_iter + 1):
            new = (sums / counts if counts.all() else  # an empty cluster stays
                   np.divide(sums, counts, out=cent.copy(), where=counts > 0))
            new.sort()
            move = float(np.max(np.abs(new - cent)))
            cent = new
            counts, sums = moments(cent)
            history.append(max(
                sumsq - 2.0 * float(cent @ sums) + float(counts @ (cent * cent)),
                0.0,
            ))
            if move <= move_tol:
                converged = True
                break
        labels = (np.repeat(np.arange(k, dtype=np.int32), moments.sizes)
                  if moments.presorted else assign1d(arr, cent))
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
