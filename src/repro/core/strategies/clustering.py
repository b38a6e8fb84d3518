"""Clustering-based approximation (paper Section II-C3).

1-D k-means on the candidate change ratios, with centroids seeded from the
equal-width histogram (the paper's initialisation prior).  The fitted
cluster centroids become the representative ratios; nearest-centroid
assignment is exactly the :class:`~repro.core.strategies.base.BinModel`
rule, so the model round-trips through serialization as a plain sorted
float array like the other strategies.

Clustering adapts bin placement to multi-modal, unevenly dense change
distributions where fixed-width schemes waste bins on empty ranges -- the
reason it achieves the lowest incompressible ratio in the paper's Figs 4/5.

Deviation from the paper, documented in DESIGN.md: plain L2 k-means is
fragile on *heavy-tailed* ratio distributions (sparse runoff, fields whose
values cross zero) -- extreme outliers either capture clusters or are
hopeless anyway, and the dense mid-range loses coverage.  ``space="auto"``
therefore fits k-means twice, once on the raw ratios and once on the
variance-stabilised transform ``asinh(ratio / E)`` (equal k-means
resolution per *relative* scale, like log-scale binning but density
adaptive), and keeps whichever model leaves fewer candidates outside the
tolerance.  On benign distributions this reduces to the paper's algorithm.

For very large iterations the fit subsamples the candidates (keeping the
extremes) before running Lloyd; assignment still covers every point, so the
error guarantee is unaffected -- only bin placement is approximated, which
matches how the paper's distributed k-means operates on local shards.

A fit sorts the candidates once; every step but the stochastic seeds
(which draw points by position) reads that sorted copy.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies.base import (ApproximationStrategy, BinModel,
                                        bounded_sample)
from repro.kmeans import histogram_init, kmeans1d, kmeanspp_init, random_init
from repro.kmeans.init import _ascending
from repro.telemetry.tracer import get_telemetry

__all__ = ["ClusteringStrategy"]

_INITS = {
    "histogram": histogram_init,
    "kmeans++": kmeanspp_init,
    "random": random_init,
}

_SPACES = ("auto", "linear", "asinh")


def _sorted_approximation(model: BinModel, xs: np.ndarray) -> np.ndarray:
    """``model.approximate(xs)`` for sorted ``xs``: each representative
    covers the run between its midpoints (``MidpointTable``'s, ties low)."""
    reps = model.representatives
    with np.errstate(over="ignore"):
        mids = 0.5 * (reps[:-1] + reps[1:])
    cuts = np.searchsorted(xs, mids, side="right")
    return np.repeat(reps, np.diff(cuts, prepend=0, append=xs.size))


class ClusteringStrategy(ApproximationStrategy):
    """k-means-derived representatives.

    Parameters
    ----------
    init:
        Centroid seeding scheme: ``"histogram"`` (paper default),
        ``"kmeans++"`` or ``"random"``.
    max_iter:
        Lloyd iteration cap.
    space:
        Clustering space: ``"linear"`` (the paper's raw ratios),
        ``"asinh"`` (variance stabilised), or ``"auto"`` (fit both, keep
        the better-covering model; the default).
    sample_limit:
        Fit on at most this many candidates (subsampled deterministically
        from ``seed``); ``None`` disables subsampling.
    seed:
        RNG seed for subsampling and the stochastic initialisers.
    """

    name = "clustering"

    def __init__(
        self,
        init: str = "histogram",
        max_iter: int = 25,
        space: str = "auto",
        sample_limit: int | None = 200_000,
        seed: int = 0,
    ) -> None:
        if init not in _INITS:
            raise ValueError(f"unknown init {init!r}; available: {sorted(_INITS)}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if space not in _SPACES:
            raise ValueError(f"unknown space {space!r}; available: {_SPACES}")
        if sample_limit is not None and sample_limit < 2:
            raise ValueError(f"sample_limit must be >= 2, got {sample_limit}")
        self.init = init
        self.max_iter = max_iter
        self.space = space
        self.sample_limit = sample_limit
        self.seed = seed

    @classmethod
    def from_config(cls, config) -> "ClusteringStrategy":
        return cls(max_iter=config.kmeans_max_iter, seed=config.seed)

    def _fit_space(self, sample: np.ndarray, ordered: np.ndarray, k: int,
                   error_bound: float, space: str,
                   warm: np.ndarray | None = None) -> BinModel:
        """Fit one space; ``ordered`` is ``sample`` sorted."""
        if space == "asinh":  # monotone: the result stays sorted
            ordered = np.arcsinh(ordered / error_bound)
        if warm is not None and warm.size:
            # Warm start: restart Lloyd from the cached representatives,
            # transformed into the clustering space.
            seeds = np.arcsinh(warm / error_bound) if space == "asinh" else warm
            result = kmeans1d(ordered, max_iter=self.max_iter,
                              warm_start=seeds, k=k)
        else:
            if self.init == "histogram":
                centroids = histogram_init(ordered, k)
            else:
                points = (np.arcsinh(sample / error_bound)
                          if space == "asinh" else sample)
                centroids = _INITS[self.init](
                    points, k, rng=np.random.default_rng(self.seed))
            result = kmeans1d(ordered, centroids, max_iter=self.max_iter)
        reps = result.centroids
        if space == "asinh":
            reps = np.sinh(reps) * error_bound
        return BinModel(np.unique(reps))

    def fit(self, ratios: np.ndarray, k: int, error_bound: float, *,
            warm_start: np.ndarray | None = None) -> BinModel:
        arr = self._validate(ratios, k, error_bound)
        warm = None
        if warm_start is not None:
            warm = np.asarray(warm_start, dtype=np.float64).ravel()
            warm = warm[np.isfinite(warm)]
        with get_telemetry().span("strategy.clustering.fit",
                                  n_ratios=arr.size, k=k,
                                  bytes_in=arr.nbytes) as sp:
            xs = np.sort(arr)  # the fit's one sort
            uniq = xs[np.concatenate(([True], xs[1:] != xs[:-1]))]
            if uniq.size <= k:
                # Fewer distinct ratios than bins: every point is representable
                # exactly, no clustering needed.
                sp.set(n_bins=int(uniq.size), space="exact")
                return BinModel(uniq)
            sample = bounded_sample(arr, self.sample_limit, self.seed)
            ordered = _ascending(sample, xs if sample is arr else None)
            sp.set(n_sampled=int(sample.size), warm_started=warm is not None)
            if self.space != "auto":
                model = self._fit_space(sample, ordered, k, error_bound,
                                        self.space, warm)
                sp.set(n_bins=int(model.representatives.size), space=self.space)
                return model
            # Safeguarded selection: Lloyd minimises L2 inertia, not coverage,
            # so never accept a clustering that covers fewer candidates than
            # the equal-width prior it was seeded from.
            from repro.core.strategies.equal_width import EqualWidthStrategy

            def fails(model: BinModel) -> int:
                approx = _sorted_approximation(model, ordered)
                return int(np.count_nonzero(abs(approx - ordered) >= error_bound))

            linear = self._fit_space(sample, ordered, k, error_bound,
                                     "linear", warm)
            fails_linear = fails(linear)
            if fails_linear == 0:
                # Full coverage already -- the common benign case; skip the
                # variance-stabilised refit entirely.
                sp.set(n_bins=int(linear.representatives.size), space="linear")
                return linear
            candidates = [linear,
                          self._fit_space(sample, ordered, k, error_bound,
                                          "asinh", warm),
                          EqualWidthStrategy().fit(ordered, k, error_bound)]
            counts = [fails_linear, fails(candidates[1]), fails(candidates[2])]
            pick = int(np.argmin(counts))
            model = candidates[pick]
            sp.set(n_bins=int(model.representatives.size),
                   space=("linear", "asinh", "equal_width")[pick])
            return model
