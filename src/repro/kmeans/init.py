"""Centroid initialisation schemes.

The paper initialises k-means "with prior-knowledge from the equal-width
histogram to achieve more reliable segmentation results"; that scheme is
:func:`histogram_init`.  k-means++ and uniform random are provided as
comparison points for the initialisation ablation bench.
"""

from __future__ import annotations

import numpy as np

__all__ = ["histogram_init", "kmeanspp_init", "random_init", "warm_start_init"]


def _as_1d(data: np.ndarray) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot initialise centroids from empty data")
    return arr


def _ascending(data: np.ndarray, xs: np.ndarray | None = None) -> np.ndarray:
    """``data`` if it is non-decreasing (an O(n) check; NaN fails it), else
    ``xs`` (``np.sort(data)``, computed if not given) with ``data``'s zero
    signs restored: ``np.sort`` may return either of two equal zeros, and
    an all-zero cluster's mean takes its sign from them."""
    if np.all(data[:-1] <= data[1:]):
        return data
    xs = np.sort(data) if xs is None else xs
    lo = np.searchsorted(xs, 0.0, side="left")
    hi = np.searchsorted(xs, 0.0, side="right")
    if hi > lo:
        neg = lo + np.count_nonzero(np.signbit(data[data == 0.0]))
        xs[lo:neg] = -0.0
        xs[neg:hi] = 0.0
    return xs


def _pad_unique(centroids: np.ndarray, k: int, lo: float, hi: float) -> np.ndarray:
    """Deduplicate and pad a centroid set to exactly ``k`` distinct values."""
    uniq = np.unique(centroids)
    if uniq.size >= k:
        return uniq[:k]
    # Pad with evenly spaced probes over the data range, skipping collisions.
    if hi <= lo:
        hi = lo + 1.0
    pad = np.linspace(lo, hi, num=k + 2)[1:-1]
    merged = np.unique(np.concatenate([uniq, pad]))
    if merged.size >= k:
        return merged[:k]
    # Degenerate range: fall back to tiny deterministic jitter around lo.
    extra = lo + (hi - lo + 1.0) * 1e-9 * np.arange(1, k - merged.size + 1)
    return np.sort(np.concatenate([merged, extra]))[:k]


def histogram_init(data: np.ndarray, k: int, oversample: int = 4) -> np.ndarray:
    """Seed ``k`` centroids from an equal-width histogram of the data.

    Builds an equal-width histogram with ``oversample * k`` bins and places
    the initial centroids at the centers of the ``k`` most populated bins.
    Dense regions of the change-ratio distribution therefore start with
    nearby centroids, which is exactly the prior the paper exploits.

    The bins are ``np.histogram``'s (``[e_i, e_i+1)``, the last closed),
    counted by binary search of the edges in the data, sorted if it is not.

    Returns a sorted array of ``k`` distinct centroids.
    """
    arr = _as_1d(data)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        return _pad_unique(np.array([lo]), k, lo, hi)
    nbins = max(k * max(oversample, 1), k)
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(lo, hi, nbins + 1)
    if not np.all(edges[:-1] < edges[1:]):
        # Range too narrow (or too wide) for this many finite bins:
        # seed from evenly spaced quantiles instead.
        qs = np.quantile(arr, np.linspace(0.0, 1.0, k))
        return _pad_unique(qs, k, lo, hi)
    below = np.searchsorted(_ascending(arr), edges, side="left")
    below[-1] = arr.size
    counts = np.diff(below)
    centers = 0.5 * (edges[:-1] + edges[1:])
    occupied = np.flatnonzero(counts > 0)
    # Rank occupied bins by population, keep the k densest, sorted by position.
    top = occupied[np.argsort(counts[occupied], kind="stable")[::-1][:k]]
    centroids = np.sort(centers[top])
    return _pad_unique(centroids, k, lo, hi)


def warm_start_init(data: np.ndarray, k: int, cached: np.ndarray) -> np.ndarray:
    """Seed ``k`` centroids from a previously fitted centroid set.

    Used by the adaptive reuse engine: when a cached bin model has drifted
    out of tolerance, Lloyd restarts from the *cached* centers (clipped to
    the new data range) instead of a cold histogram seed -- the change-ratio
    distribution of consecutive timesteps rarely moves far, so warm starts
    converge in a fraction of the sweeps.

    Returns a sorted array of ``k`` distinct centroids.
    """
    arr = _as_1d(data)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cached = np.asarray(cached, dtype=np.float64).ravel()
    cached = cached[np.isfinite(cached)]
    lo, hi = float(arr.min()), float(arr.max())
    if cached.size == 0:
        return histogram_init(arr, k)
    # Clip stale centers into the new range so every seed can own points.
    seeds = np.clip(cached, lo, hi)
    return _pad_unique(np.sort(seeds), k, lo, hi)


def kmeanspp_init(data: np.ndarray, k: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii) on 1-D data.

    Each new centroid is drawn with probability proportional to the squared
    distance to the nearest centroid already chosen.
    """
    arr = _as_1d(data)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = rng if rng is not None else np.random.default_rng(0)
    centroids = np.empty(k, dtype=np.float64)
    centroids[0] = arr[rng.integers(arr.size)]
    d2 = (arr - centroids[0]) ** 2
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining distances zero: data has < k distinct values.
            centroids[i:] = centroids[i - 1]
            break
        probs = d2 / total
        centroids[i] = arr[rng.choice(arr.size, p=probs)]
        np.minimum(d2, (arr - centroids[i]) ** 2, out=d2)
    lo, hi = float(arr.min()), float(arr.max())
    return _pad_unique(np.sort(centroids), k, lo, hi)


def random_init(data: np.ndarray, k: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Uniform random sample of ``k`` data points as centroids."""
    arr = _as_1d(data)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = rng if rng is not None else np.random.default_rng(0)
    idx = rng.choice(arr.size, size=min(k, arr.size), replace=False)
    lo, hi = float(arr.min()), float(arr.max())
    return _pad_unique(np.sort(arr[idx]), k, lo, hi)
