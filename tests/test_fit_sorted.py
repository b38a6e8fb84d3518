"""The clustering fit sorts its sample once: bit-for-bit parity with the
formulas it replaced.

Each ``_ref_*`` function below is the earlier formula, kept here as the
reference: ``np.unique`` for the distinct-value check, ``np.histogram``
for the histogram seed, an argsort-based Lloyd labelled by ``assign1d``,
``BinModel.approximate`` for the coverage count and ``np.unique`` of the
bin indices for equal-width occupancy.  The fitted representatives must
match them byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies.base import BinModel, bounded_sample
from repro.core.strategies.clustering import (ClusteringStrategy,
                                              _sorted_approximation)
from repro.core.strategies.equal_width import EqualWidthStrategy
from repro.kmeans import (assign1d, histogram_init, kmeans1d, kmeanspp_init,
                          random_init, warm_start_init)
from repro.kmeans.init import _pad_unique
from repro.kmeans.init import _ascending

E = 1e-3
#: the largest double.
_HUGE = 1.7976931348623157e308


def _ref_histogram_init(data, k, oversample=4):
    """``np.histogram`` counts the bins; an underflowing bin width seeds
    from quantiles."""
    arr = np.asarray(data, dtype=np.float64).ravel()
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        return _pad_unique(np.array([lo]), k, lo, hi)
    nbins = max(k * max(oversample, 1), k)
    if lo + (hi - lo) / nbins == lo:
        qs = np.quantile(arr, np.linspace(0.0, 1.0, k))
        return _pad_unique(qs, k, lo, hi)
    counts, edges = np.histogram(arr, bins=nbins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    occupied = np.flatnonzero(counts > 0)
    top = occupied[np.argsort(counts[occupied], kind="stable")[::-1][:k]]
    return _pad_unique(np.sort(centers[top]), k, lo, hi)


def _ref_kmeans1d(data, centroids=None, max_iter=50, tol=1e-10, *,
                  warm_start=None, k=None):
    """Argsort once, a masked update per sweep, labels from ``assign1d``.

    Returns ``(centroids, labels, inertia, n_iter)``.
    """
    arr = np.asarray(data, dtype=np.float64).ravel()
    if warm_start is not None:
        centroids = warm_start_init(arr, k, warm_start)
    cent = np.sort(np.asarray(centroids, dtype=np.float64).ravel())
    span = float(arr.max() - arr.min())
    move_tol = tol * (span if span > 0 else 1.0)
    xs = arr[np.argsort(arr)]

    def moments(cent):
        edges = np.concatenate(
            ([0], np.searchsorted(xs, 0.5 * (cent[:-1] + cent[1:]),
                                  side="right"), [xs.size]))
        sizes = np.diff(edges)
        sums = np.zeros(cent.size)
        filled = sizes > 0
        sums[filled] = np.add.reduceat(xs, edges[:-1][filled])
        return sizes.astype(np.float64), sums

    counts, sums = moments(cent)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        new = cent.copy()
        nonempty = counts > 0
        new[nonempty] = sums[nonempty] / counts[nonempty]
        new = np.sort(new)
        move = float(np.max(np.abs(new - cent)))
        cent = new
        counts, sums = moments(cent)
        if move <= move_tol:
            break
    labels = assign1d(arr, cent)
    inertia = float(np.sum((arr - cent[labels]) ** 2))
    return cent, labels, inertia, n_iter


def _ref_equal_width(arr, k):
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        return np.array([lo])
    edges = np.linspace(lo, hi, num=k + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.clip(((arr - lo) / (hi - lo) * k).astype(np.int64), 0, k - 1)
    return centers[np.unique(idx)]


def _ref_fit(strategy, ratios, k, error_bound, warm_start=None):
    """``ClusteringStrategy.fit`` with Lloyd on the unsorted sample and an
    ``approximate`` pass per scored candidate."""
    arr = np.asarray(ratios, dtype=np.float64).ravel()
    warm = None
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=np.float64).ravel()
        warm = warm[np.isfinite(warm)]
    uniq = np.unique(arr)
    if uniq.size <= k:
        return uniq
    sample = bounded_sample(arr, strategy.sample_limit, strategy.seed)

    def fit_space(space):
        points = np.arcsinh(sample / error_bound) if space == "asinh" else sample
        if warm is not None and warm.size:
            seeds = np.arcsinh(warm / error_bound) if space == "asinh" else warm
            cent = _ref_kmeans1d(points, max_iter=strategy.max_iter,
                                 warm_start=seeds, k=k)[0]
        else:
            if strategy.init == "histogram":
                init = _ref_histogram_init(points, k)
            else:
                init_fn = {"kmeans++": kmeanspp_init,
                           "random": random_init}[strategy.init]
                init = init_fn(points, k,
                               rng=np.random.default_rng(strategy.seed))
            cent = _ref_kmeans1d(points, init, max_iter=strategy.max_iter)[0]
        if space == "asinh":
            cent = np.sinh(cent) * error_bound
        return np.unique(cent)

    if strategy.space != "auto":
        return fit_space(strategy.space)
    ordered = np.sort(sample)

    def fails(reps):
        approx = BinModel(reps).approximate(ordered)
        return int(np.count_nonzero(np.abs(approx - ordered) >= error_bound))

    linear = fit_space("linear")
    if fails(linear) == 0:
        return linear
    candidates = [linear, fit_space("asinh"), _ref_equal_width(sample, k)]
    return candidates[int(np.argmin([fails(c) for c in candidates]))]


def _ratios(seed, n, kind):
    """Candidate change ratios: a dense core, heavy tails, duplicates and
    zeros of both signs (what ``reserve_zero_bin=False`` lets through)."""
    rng = np.random.default_rng(seed)
    if kind == "heavy":
        r = rng.standard_t(1.5, n) * 0.01
    elif kind == "bimodal":
        r = np.concatenate([rng.normal(-0.05, 0.004, n // 2),
                            rng.normal(0.08, 0.01, n - n // 2)])
    else:  # "quantised": many equal values
        r = np.round(rng.normal(0, 0.02, n) * 400) / 400
    zeros = rng.uniform(size=n) < 0.1
    r[zeros] = np.where(rng.uniform(size=int(zeros.sum())) < 0.5, -0.0, 0.0)
    return r


def _same_bytes(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDistinctValues:
    @pytest.mark.parametrize("n", [12, 40, 3000])
    def test_exact_model_is_np_unique(self, n):
        # Few distinct values with zeros of both signs, in any order: the
        # exact model keeps np.unique's zero, sign bit included.
        rng = np.random.default_rng(n)
        for _ in range(20):
            r = rng.choice([-0.0, 0.0, 0.25, -0.5, 1e-3], size=n)
            model = ClusteringStrategy().fit(r, 8, E)
            assert _same_bytes(model.representatives, np.unique(r))

    def test_all_zeros(self):
        r = np.array([0.0, -0.0] * 50)
        model = ClusteringStrategy().fit(r, 4, E)
        assert _same_bytes(model.representatives, np.unique(r))


class TestHistogramInit:
    def test_point_on_an_edge_counts_in_the_bin_above(self):
        # nbins 4, edges 0, .25, .5, .75, 1: the three points on .25 make
        # [.25, .5) the densest bin.
        data = np.array([0.0, 0.25, 0.25, 0.25, 1.0])
        np.testing.assert_array_equal(histogram_init(data, 1), [0.375])
        assert _same_bytes(histogram_init(data, 1),
                           _ref_histogram_init(data, 1))

    def test_top_edge_is_closed(self):
        data = np.array([0.0, 1.0, 1.0, 1.0, 0.3])
        assert _same_bytes(histogram_init(data, 1), [0.875])

    @pytest.mark.parametrize("data", [
        np.arange(300) * 5e-324,                      # subnormal steps
        np.array([0.0, 1e-310, 2e-310, 2e-310]),      # subnormal range
        1.0 + np.arange(2000) * np.finfo(float).eps,  # 2000 ulps wide
        1.0 + np.arange(100) * np.finfo(float).eps,   # underflowing width
        np.array([1.7e308, 1.75e308, 1.79e308, _HUGE]),
        np.array([-_HUGE, -1.7e308, -1.7e308, -1.0e308]),
    ])
    @pytest.mark.parametrize("k", [1, 3, 255])
    def test_edge_ranges_match_np_histogram(self, data, k):
        with np.errstate(over="ignore"):
            got = histogram_init(data, k)
            want = _ref_histogram_init(data, k)
        assert _same_bytes(got, want)

    def test_range_too_narrow_for_finite_bins_seeds_from_quantiles(self):
        # 600 ulps over 1020 bins: the width does not underflow, but the
        # edges repeat.  np.histogram refuses; the seed takes quantiles.
        data = 0.5 + np.arange(600) * np.spacing(0.5)
        with pytest.raises(ValueError, match="finite-sized bins"):
            _ref_histogram_init(data, 255)
        cent = histogram_init(data, 255)
        assert cent.shape == (255,) and np.all(np.diff(cent) > 0)
        model = ClusteringStrategy().fit(data, 255, E)
        assert model.n_bins <= 255

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.sampled_from(
               [-3.0, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 4.0,
                5e-324, 1e-310, 0.1, 0.3]), min_size=2, max_size=60),
           k=st.integers(1, 6), oversample=st.integers(1, 5),
           order=st.sampled_from(["given", "sorted", "reversed"]))
    def test_property_matches_np_histogram(self, values, k, oversample,
                                           order):
        """On points at exact bin edges, with duplicates, in any order."""
        data = np.array(values)
        if order == "sorted":
            data = np.sort(data)
        elif order == "reversed":
            data = np.sort(data)[::-1]
        assert _same_bytes(histogram_init(data, k, oversample),
                           _ref_histogram_init(data, k, oversample))


class TestSortedApproximation:
    @pytest.mark.parametrize("kind", ["heavy", "bimodal", "quantised"])
    @pytest.mark.parametrize("space", ["linear", "asinh", "equal_width"])
    def test_equals_approximate(self, kind, space):
        r = _ratios(7, 4000, kind)
        if space == "equal_width":
            model = EqualWidthStrategy().fit(r, 63, E)
        else:
            model = ClusteringStrategy(space=space).fit(r, 63, E)
        xs = np.sort(r)
        got = _sorted_approximation(model, xs)
        want = model.approximate(xs)
        assert _same_bytes(got, want)
        assert (np.count_nonzero(np.abs(got - xs) >= E)
                == np.count_nonzero(np.abs(want - xs) >= E))

    @settings(max_examples=100, deadline=None)
    @given(reps=st.lists(st.integers(-8, 8), min_size=1, max_size=8,
                         unique=True),
           points=st.lists(st.integers(-40, 40), min_size=1, max_size=80))
    def test_property_ties_go_to_the_lower_representative(self, reps, points):
        # Points on quarter steps hit the half-integer midpoints exactly.
        model = BinModel(np.sort(np.array(reps, dtype=np.float64)))
        xs = np.sort(np.array(points, dtype=np.float64) / 4)
        assert _same_bytes(_sorted_approximation(model, xs),
                           model.approximate(xs))


class TestAscending:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 200),
           zeros=st.floats(0.0, 0.9))
    def test_property_sorted_permutation_keeps_zero_signs(self, seed, n,
                                                          zeros):
        # np.sort alone may return -0.0 where the input held +0.0.
        rng = np.random.default_rng(seed)
        data = rng.normal(size=n)
        z = rng.uniform(size=n) < zeros
        data[z] = np.where(rng.uniform(size=int(z.sum())) < 0.5, -0.0, 0.0)
        for given_xs in (None, np.sort(data)):
            xs = _ascending(data, given_xs)
            assert np.all(xs[:-1] <= xs[1:])
            np.testing.assert_array_equal(np.sort(xs.view(np.int64)),
                                          np.sort(data.view(np.int64)))

    def test_sorted_input_is_returned_as_is(self):
        data = np.array([-1.0, -0.0, 0.0, 2.0])
        assert _ascending(data) is data

    def test_all_zero_cluster_keeps_its_sign(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            data = rng.permutation(np.concatenate(
                [np.full(8, -1.0), [0.0], np.full(8, -0.0), np.full(8, 1.0)]))
            res = kmeans1d(data, np.array([-1.0, 0.0, 1.0]))
            assert _same_bytes(res.centroids,
                               _ref_kmeans1d(data, [-1.0, 0.0, 1.0])[0])
            assert not np.signbit(res.centroids[1])


class TestKMeansInputOrder:
    @pytest.mark.parametrize("kind", ["heavy", "bimodal", "quantised"])
    @pytest.mark.parametrize("k", [1, 7, 63])
    def test_sorted_shuffled_and_reversed(self, kind, k):
        data = _ratios(11, 2500, kind)
        init = _ref_histogram_init(data, k)
        rng = np.random.default_rng(3)
        for points in (np.sort(data), rng.permutation(data),
                       np.sort(data)[::-1], data):
            res = kmeans1d(points, init, max_iter=25)
            cent, labels, inertia, n_iter = _ref_kmeans1d(points, init,
                                                          max_iter=25)
            assert _same_bytes(res.centroids, cent)
            np.testing.assert_array_equal(res.labels, labels)
            assert res.labels.dtype == np.int32
            assert res.inertia == inertia
            assert res.n_iter == n_iter

    def test_empty_clusters_on_sorted_input(self):
        data = np.array([1.0, 1.0, 5.0])
        init = np.array([0.0, 1.0, 3.0, 10.0, 20.0])
        res = kmeans1d(data, init)
        cent, labels, inertia, n_iter = _ref_kmeans1d(data, init)
        assert _same_bytes(res.centroids, cent)
        np.testing.assert_array_equal(res.labels, labels)
        assert (res.inertia, res.n_iter) == (inertia, n_iter)


_FIT_CASES = [(init, space) for init in ("histogram", "kmeans++", "random")
              for space in ("auto", "linear", "asinh")]


class TestFitParity:
    @pytest.mark.parametrize("init,space", _FIT_CASES)
    @pytest.mark.parametrize("kind", ["heavy", "bimodal", "quantised"])
    @pytest.mark.parametrize("sample_limit", [None, 1500])
    def test_cold_fit(self, init, space, kind, sample_limit):
        r = _ratios(5, 3000, kind)
        strat = ClusteringStrategy(init=init, space=space,
                                   sample_limit=sample_limit, seed=4)
        got = strat.fit(r, 31, E).representatives
        assert _same_bytes(got, _ref_fit(strat, r, 31, E))

    @pytest.mark.parametrize("space", ["auto", "linear", "asinh"])
    @pytest.mark.parametrize("sample_limit", [None, 1500])
    def test_warm_fit(self, space, sample_limit):
        r = _ratios(6, 3000, "heavy")
        warm = np.concatenate([_ratios(9, 40, "bimodal"), [np.nan, np.inf]])
        strat = ClusteringStrategy(space=space, sample_limit=sample_limit)
        got = strat.fit(r, 31, E, warm_start=warm).representatives
        assert _same_bytes(got, _ref_fit(strat, r, 31, E, warm))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(40, 1500),
           k=st.sampled_from([3, 15, 63, 255]),
           kind=st.sampled_from(["heavy", "bimodal", "quantised"]),
           case=st.sampled_from(_FIT_CASES),
           sample_limit=st.sampled_from([None, 30, 700]))
    def test_property_fit_matches_reference(self, seed, n, k, kind, case,
                                            sample_limit):
        r = _ratios(seed, n, kind)
        strat = ClusteringStrategy(init=case[0], space=case[1],
                                   sample_limit=sample_limit, seed=seed % 7)
        assert _same_bytes(strat.fit(r, k, E).representatives,
                           _ref_fit(strat, r, k, E))


class TestEqualWidthOccupancy:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 500),
           k=st.integers(1, 300))
    def test_property_matches_np_unique(self, seed, n, k):
        r = _ratios(seed, n, "heavy")
        got = EqualWidthStrategy().fit(r, k, E).representatives
        assert _same_bytes(got, _ref_equal_width(r, k))
