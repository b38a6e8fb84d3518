"""Tests for the from-scratch Lloyd implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmeans import assign1d, histogram_init, kmeans, kmeans1d


def _bincount_lloyd(data, init, max_iter=50, tol=1e-10, weights=None):
    """Reference Lloyd: assign every point each sweep, bincount the moments.

    Returns the final centroids and the direct per-sweep SSE; the sweep
    count is ``len(history)``.
    """
    data = np.asarray(data, dtype=np.float64)
    cent = np.sort(np.asarray(init, dtype=np.float64))
    k = cent.size
    span = float(data.max() - data.min())
    move_tol = tol * (span if span > 0 else 1.0)
    wx = data if weights is None else data * weights

    def moments(labels):
        counts = np.bincount(labels, weights=weights, minlength=k)
        return counts.astype(np.float64), np.bincount(labels, wx, minlength=k)

    counts, sums = moments(assign1d(data, cent))
    history = []
    for _ in range(max_iter):
        new = cent.copy()
        nonempty = counts > 0
        new[nonempty] = sums[nonempty] / counts[nonempty]
        new = np.sort(new)
        move = float(np.max(np.abs(new - cent)))
        cent = new
        labels = assign1d(data, cent)
        counts, sums = moments(labels)
        sq = (data - cent[labels]) ** 2
        history.append(float(np.sum(sq if weights is None else sq * weights)))
        if move <= move_tol:
            break
    return cent, history


class TestAssign1d:
    def test_single_centroid(self):
        labels = assign1d(np.array([1.0, 5.0, -2.0]), np.array([0.0]))
        np.testing.assert_array_equal(labels, [0, 0, 0])

    def test_nearest_assignment(self):
        cent = np.array([0.0, 10.0])
        labels = assign1d(np.array([1.0, 9.0, 4.9, 5.1]), cent)
        np.testing.assert_array_equal(labels, [0, 1, 0, 1])

    def test_tie_goes_to_lower_centroid(self):
        labels = assign1d(np.array([5.0]), np.array([0.0, 10.0]))
        assert labels[0] == 0

    def test_empty_centroids_raise(self):
        with pytest.raises(ValueError):
            assign1d(np.array([1.0]), np.array([]))

    def test_matches_brute_force(self, rng):
        data = rng.normal(size=500)
        cent = np.sort(rng.normal(size=16))
        fast = assign1d(data, cent)
        brute = np.argmin(np.abs(data[:, None] - cent[None, :]), axis=1)
        # Ties may differ; distances must agree.
        np.testing.assert_allclose(
            np.abs(data - cent[fast]), np.abs(data - cent[brute])
        )


class TestKMeans1D:
    def test_separated_clusters_found(self, rng):
        data = np.concatenate([
            rng.normal(-10, 0.1, 200),
            rng.normal(0, 0.1, 200),
            rng.normal(10, 0.1, 200),
        ])
        res = kmeans1d(data, np.array([-5.0, 1.0, 5.0]))
        np.testing.assert_allclose(np.sort(res.centroids), [-10, 0, 10], atol=0.15)
        assert res.converged

    def test_labels_in_range(self, rng):
        data = rng.normal(size=300)
        res = kmeans1d(data, histogram_init(data, 8))
        assert res.labels.min() >= 0
        assert res.labels.max() < 8

    def test_inertia_not_worse_than_init(self, rng):
        data = rng.normal(size=400)
        init = histogram_init(data, 10)
        init_inertia = float(np.sum((data - init[assign1d(data, init)]) ** 2))
        res = kmeans1d(data, init)
        assert res.inertia <= init_inertia + 1e-9

    def test_empty_data_raises(self):
        with pytest.raises(ValueError):
            kmeans1d(np.array([]), np.array([0.0]))

    def test_constant_data(self):
        res = kmeans1d(np.full(50, 3.0), np.array([0.0, 1.0]))
        assert np.any(np.isclose(res.centroids, 3.0))
        assert res.inertia == pytest.approx(0.0)

    def test_k_equals_n(self):
        data = np.array([1.0, 2.0, 3.0])
        res = kmeans1d(data, data.copy())
        assert res.inertia == pytest.approx(0.0)

    def test_centroids_sorted(self, rng):
        data = rng.normal(size=200)
        res = kmeans1d(data, rng.normal(size=7))
        assert np.all(np.diff(res.centroids) >= 0)

    def test_max_iter_respected(self, rng):
        data = rng.normal(size=200)
        res = kmeans1d(data, histogram_init(data, 5), max_iter=1)
        assert res.n_iter == 1


class TestKMeansND:
    def test_2d_clusters(self, rng):
        a = rng.normal([0, 0], 0.1, (100, 2))
        b = rng.normal([5, 5], 0.1, (100, 2))
        res = kmeans(np.vstack([a, b]), np.array([[1.0, 1.0], [4.0, 4.0]]))
        got = res.centroids[np.argsort(res.centroids[:, 0])]
        np.testing.assert_allclose(got, [[0, 0], [5, 5]], atol=0.2)

    def test_1d_input_promoted(self, rng):
        data = rng.normal(size=100)
        res = kmeans(data, np.array([-1.0, 1.0]))
        assert res.centroids.shape == (2, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kmeans(np.zeros((10, 3)), np.zeros((2, 2)))

    def test_agrees_with_1d_on_scalar_data(self, rng):
        data = rng.normal(size=300)
        init = histogram_init(data, 6)
        r1 = kmeans1d(data, init, max_iter=50)
        rn = kmeans(data, init, max_iter=50)
        assert rn.inertia == pytest.approx(r1.inertia, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    k=st.integers(1, 12),
    n=st.integers(12, 300),
)
def test_property_inertia_and_labels(seed, k, n):
    """Inertia equals the label-implied SSE and labels stay in range."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=n) * rng.uniform(0.1, 10)
    res = kmeans1d(data, histogram_init(data, k))
    assert 0 <= res.labels.min() and res.labels.max() < res.centroids.size
    sse = float(np.sum((data - res.centroids[res.labels]) ** 2))
    assert res.inertia == pytest.approx(sse, rel=1e-9, abs=1e-12)


class TestInertiaHistory:
    def test_length_matches_n_iter(self, rng):
        data = rng.normal(size=400)
        res = kmeans1d(data, histogram_init(data, 8))
        assert len(res.inertia_history) == res.n_iter

    def test_last_entry_is_final_inertia(self, rng):
        data = rng.normal(size=400)
        res = kmeans1d(data, histogram_init(data, 8))
        assert res.inertia_history[-1] == pytest.approx(res.inertia, rel=1e-9)

    def test_monotone_non_increasing(self, rng):
        data = rng.uniform(-5, 5, 1000)
        res = kmeans1d(data, histogram_init(data, 16), max_iter=50)
        hist = np.asarray(res.inertia_history)
        # Lloyd never increases the objective; allow float noise only.
        assert np.all(np.diff(hist) <= 1e-9 * np.maximum(hist[:-1], 1.0))

    def test_matches_direct_sse_each_sweep(self, rng):
        # The moments-identity history against a direct SSE at every sweep
        # of the reference Lloyd.
        data = rng.normal(size=300)
        init = histogram_init(data, 6)
        res = kmeans1d(data, init, max_iter=50)
        _, history = _bincount_lloyd(data, init, max_iter=50)
        assert res.n_iter == len(history)
        for recorded, sse in zip(res.inertia_history, history):
            assert recorded == pytest.approx(sse, rel=1e-9, abs=1e-12)

    def test_weighted_history(self, rng):
        data = rng.normal(size=200)
        w = rng.uniform(0.5, 2.0, 200)
        res = kmeans1d(data, histogram_init(data, 5), weights=w)
        assert len(res.inertia_history) == res.n_iter
        assert res.inertia_history[-1] == pytest.approx(res.inertia, rel=1e-9)

    def test_nd_history(self, rng):
        data = rng.normal(size=(300, 2))
        init = data[rng.choice(300, 4, replace=False)]
        res = kmeans(data, init)
        assert len(res.inertia_history) == res.n_iter
        assert res.inertia_history[-1] == pytest.approx(res.inertia, rel=1e-9)

    def test_parallel_history_matches_serial(self, rng):
        from repro.kmeans.parallel import parallel_kmeans1d

        data = rng.normal(size=500)
        init = histogram_init(data, 7)
        serial = kmeans1d(data, init)
        par = parallel_kmeans1d(None, data, init)
        assert par.inertia_history == pytest.approx(serial.inertia_history)


def _lloyd_case(seed, n, k, kind, weighting):
    """Data, initial centroids and weights for one reference comparison."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        data = rng.normal(size=n) * rng.uniform(0.1, 10)
        init = histogram_init(data, k)
    elif kind == "duplicates":
        # Multiples of 1/8: many equal values, and every sum is exact.
        data = np.round(rng.normal(size=n) * 8) / 8
        init = histogram_init(data, k)
    elif kind == "midpoints":
        # Odd integers sit exactly on the midpoints of even seeds.
        data = rng.integers(-9, 10, n).astype(np.float64)
        init = 2.0 * rng.choice(np.arange(-5, 6), size=min(k, 11),
                                replace=False)
    else:  # "few_values": more centroids than distinct values
        data = rng.integers(0, 3, n).astype(np.float64)
        init = rng.uniform(-1, 4, k)
    weights = None
    if weighting != "none":
        weights = rng.uniform(0.5, 2.0, n)
        if weighting == "zeros":
            weights[rng.uniform(size=n) < 0.3] = 0.0
    return data, init, weights


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 400),
    k=st.integers(1, 24),
    kind=st.sampled_from(["normal", "duplicates", "midpoints", "few_values"]),
    weighting=st.sampled_from(["none", "positive", "zeros"]),
)
def test_property_matches_bincount_reference(seed, n, k, kind, weighting):
    """The sorted-moments Lloyd takes the reference's sweeps, steps to its
    centroids up to round-off, and labels by :func:`assign1d`'s rule."""
    data, init, weights = _lloyd_case(seed, n, k, kind, weighting)
    res = kmeans1d(data, init, max_iter=30, weights=weights)
    ref, history = _bincount_lloyd(data, init, max_iter=30, weights=weights)
    assert res.n_iter == len(history)
    assert len(res.inertia_history) == len(history)
    scale = float(np.max(np.abs(np.concatenate([data, ref]))))
    np.testing.assert_allclose(res.centroids, ref, rtol=1e-12,
                               atol=1e-12 * scale)
    np.testing.assert_array_equal(res.labels, assign1d(data, res.centroids))


class TestSortedKernel:
    def test_single_centroid(self, rng):
        data = rng.normal(size=50)
        res = kmeans1d(data, np.array([3.0]))
        np.testing.assert_array_equal(res.labels, np.zeros(50, dtype=np.int32))
        assert res.centroids[0] == pytest.approx(data.mean(), rel=1e-12)

    def test_point_on_midpoint_goes_left(self):
        # The zero-weight 1.0 pulls on no centroid and sits exactly on the
        # midpoint of the fitted ones.
        res = kmeans1d(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0]),
                       weights=np.array([1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(res.centroids, [0.0, 2.0])
        np.testing.assert_array_equal(res.labels, [0, 0, 1])

    def test_empty_clusters_keep_their_centroid(self):
        data = np.array([1.0, 1.0, 5.0])
        res = kmeans1d(data, np.array([0.0, 1.0, 3.0, 10.0, 20.0]))
        np.testing.assert_array_equal(res.centroids, [0.0, 1.0, 5.0, 10.0, 20.0])
        assert res.inertia == 0.0

    def test_order_invariant(self, rng):
        data = np.round(rng.normal(size=2000) * 16) / 16 + rng.normal(
            size=2000) * (rng.uniform(size=2000) < 0.5)
        init = histogram_init(data, 31)
        base = kmeans1d(data, init)
        perm = rng.permutation(data.size)
        for order in (perm, np.argsort(data), np.argsort(data)[::-1]):
            res = kmeans1d(data[order], init)
            np.testing.assert_array_equal(res.centroids, base.centroids)
            np.testing.assert_array_equal(res.labels, base.labels[order])
            assert res.n_iter == base.n_iter
