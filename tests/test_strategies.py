"""Approximation-strategy tests: BinModel plus the three fitters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NumarckConfig
from repro.core.strategies import (
    ClusteringStrategy,
    EqualWidthStrategy,
    LogScaleStrategy,
)
from repro.core.strategies.base import ApproximationStrategy, BinModel

ALL = [EqualWidthStrategy(), LogScaleStrategy(), ClusteringStrategy()]
E = 1e-3
K = 255


_HUGE = np.finfo(np.float64).max


@st.composite
def _tables(draw):
    """Sorted representative tables for :class:`BinModel`: spread out,
    crowded into one lookup cell (duplicates included), spanning a
    subnormal width, or near the float64 limit so ``x - lo`` overflows."""
    n = draw(st.sampled_from([1, 2, 3, 17, 255]))
    kind = draw(st.sampled_from(["spread", "crowded", "denormal", "huge"]))
    unit = st.floats(0.0, 1.0)
    if kind == "denormal":
        steps = draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
        return np.sort(np.array(steps) * 5e-324)
    if kind == "huge":
        sign = draw(st.sampled_from([-1.0, 1.0]))
        fracs = draw(st.lists(unit, min_size=n, max_size=n))
        return np.sort(sign * _HUGE * (1.0 - 0.1 * np.array(fracs)))
    reps = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n,
                                  max_size=n)))
    if kind == "crowded":
        crowd = draw(st.integers(1, n))
        width = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
        offsets = np.array(draw(st.lists(unit, min_size=crowd,
                                         max_size=crowd)))
        reps[:crowd] = reps[0] + width * offsets
    return np.sort(reps)


@settings(max_examples=300, deadline=None)
@given(reps=_tables(), extra=st.lists(st.floats(), max_size=60))
def test_property_assign_matches_searchsorted(reps, extra):
    """The lookup-table assign is ``searchsorted(mids, x, side="left")``
    exactly: on midpoints and their neighbours, on points beyond both
    ends of the table, on +-0.0, +-inf and NaN, and where ``x - lo``
    overflows."""
    with np.errstate(over="ignore"):
        mids = 0.5 * (reps[:-1] + reps[1:])
    x = np.concatenate([
        extra, [0.0, -0.0, -np.inf, np.inf, -_HUGE, _HUGE], reps, mids,
        np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf)])
    got = BinModel(reps).assign(x)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, np.searchsorted(mids, x, side="left"))


class TestBinModel:
    def test_assign_nearest(self):
        model = BinModel(np.array([-1.0, 0.0, 2.0]))
        labels = model.assign(np.array([-0.9, 0.4, 1.5, 3.0]))
        np.testing.assert_array_equal(labels, [0, 1, 2, 2])

    def test_approximate(self):
        model = BinModel(np.array([0.0, 10.0]))
        np.testing.assert_array_equal(model.approximate(np.array([1.0, 9.0])),
                                      [0.0, 10.0])

    def test_lookup_table_built_once(self):
        model = BinModel(np.linspace(-1.0, 1.0, 9))
        first = model.assign(np.array([0.1, -0.6]))
        table = model._nearest
        np.testing.assert_array_equal(model.assign(np.array([0.1, -0.6])),
                                      first)
        assert model._nearest is table

    def test_single_representative(self):
        model = BinModel(np.array([5.0]))
        assert model.assign(np.array([1.0, 100.0])).tolist() == [0, 0]

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            BinModel(np.array([2.0, 1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BinModel(np.array([]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BinModel(np.array([0.0, np.inf]))


class TestRegistry:
    def test_from_config_dispatch(self):
        for name, cls in (("equal_width", EqualWidthStrategy),
                          ("log_scale", LogScaleStrategy),
                          ("clustering", ClusteringStrategy)):
            cfg = NumarckConfig(strategy=name)
            assert isinstance(ApproximationStrategy.from_config(cfg), cls)

    def test_from_config_forwards_clustering_params(self):
        cfg = NumarckConfig(strategy="clustering", kmeans_max_iter=3)
        s = ApproximationStrategy.from_config(cfg)
        assert s.max_iter == 3

    def test_from_config_on_subclass(self):
        cfg = NumarckConfig(strategy="clustering")
        # calling from_config on a concrete class builds THAT class,
        # regardless of config.strategy
        assert isinstance(EqualWidthStrategy.from_config(cfg),
                          EqualWidthStrategy)


@pytest.mark.parametrize("strategy", ALL, ids=lambda s: s.name)
class TestCommonContract:
    def test_at_most_k_sorted_finite(self, strategy, rng):
        ratios = rng.normal(0, 0.01, 5000)
        model = strategy.fit(ratios, K, E)
        assert 1 <= model.n_bins <= K
        assert np.all(np.diff(model.representatives) >= 0)
        assert np.all(np.isfinite(model.representatives))

    def test_constant_input_single_bin(self, strategy):
        model = strategy.fit(np.full(100, 0.02), K, E)
        assert model.n_bins == 1
        assert model.representatives[0] == pytest.approx(0.02)

    def test_k_one(self, strategy, rng):
        model = strategy.fit(rng.normal(0, 0.01, 200), 1, E)
        assert model.n_bins == 1

    def test_empty_raises(self, strategy):
        with pytest.raises(ValueError):
            strategy.fit(np.array([]), K, E)

    def test_nonfinite_raises(self, strategy):
        with pytest.raises(ValueError):
            strategy.fit(np.array([0.1, np.nan]), K, E)

    def test_bad_k_raises(self, strategy, rng):
        with pytest.raises(ValueError):
            strategy.fit(rng.normal(size=10), 0, E)

    def test_concentrated_data_within_bound(self, strategy, rng):
        """When the data span fits in 2*E*k, every point must be coverable.

        Log-scale spends its budget geometrically, so give it data that is
        concentrated in *log* space; the fixed-width strategies get a
        linearly concentrated span.  Either way the bin budget suffices.
        """
        if strategy.name == "log_scale":
            ratios = np.exp(rng.uniform(np.log(0.01), np.log(0.011), 3000))
        else:
            ratios = rng.uniform(0.01, 0.01 + 0.5 * E * K, 3000)
        model = strategy.fit(ratios, K, E)
        err = np.abs(model.approximate(ratios) - ratios)
        assert np.mean(err < E) > 0.95


class TestEqualWidth:
    def test_bin_width_respected(self, rng):
        ratios = rng.uniform(-1.0, 1.0, 10_000)
        model = EqualWidthStrategy().fit(ratios, 100, E)
        # width = 2/100 = 0.02 -> max error 0.01 to the containing center.
        err = np.abs(model.approximate(ratios) - ratios)
        assert err.max() <= 0.01 + 1e-12

    def test_only_occupied_bins_kept(self):
        ratios = np.concatenate([np.full(50, -1.0), np.full(50, 1.0)])
        model = EqualWidthStrategy().fit(ratios, 100, E)
        assert model.n_bins == 2


class TestLogScale:
    def test_finer_bins_near_small_magnitudes(self, rng):
        """Bin density must decrease with |ratio| (geometric spacing)."""
        ratios = np.exp(rng.uniform(np.log(1e-3), np.log(1.0), 20_000))
        model = LogScaleStrategy().fit(ratios, 64, E)
        reps = model.representatives[model.representatives > 0]
        gaps = np.diff(reps)
        # Geometric layout: gaps grow with position.
        assert gaps[-1] > gaps[0]

    def test_handles_mixed_signs(self, rng):
        ratios = np.concatenate([-np.exp(rng.uniform(-5, 0, 500)),
                                 np.exp(rng.uniform(-5, 0, 1500))])
        model = LogScaleStrategy().fit(ratios, 32, E)
        assert (model.representatives < 0).any()
        assert (model.representatives > 0).any()

    def test_handles_exact_zero_candidates(self):
        ratios = np.array([0.0, 0.0, 0.5, -0.5])
        model = LogScaleStrategy().fit(ratios, 8, E)
        assert np.any(model.representatives == 0.0)

    def test_single_sign(self, rng):
        ratios = np.exp(rng.uniform(-5, 0, 1000))
        model = LogScaleStrategy().fit(ratios, 16, E)
        assert np.all(model.representatives > 0)


class TestClustering:
    def test_multimodal_beats_equal_width(self, rng):
        """On multi-modal ratios, clustering must leave fewer points out of
        tolerance than equal-width with the same bin budget -- the paper's
        central claim (Section II-C3)."""
        ratios = np.concatenate([
            rng.normal(-0.5, 4 * E, 4000),
            rng.normal(0.02, 4 * E, 4000),
            rng.normal(0.8, 4 * E, 4000),
        ])
        k = 24
        cl = ClusteringStrategy().fit(ratios, k, E)
        ew = EqualWidthStrategy().fit(ratios, k, E)
        fail_cl = np.mean(np.abs(cl.approximate(ratios) - ratios) >= E)
        fail_ew = np.mean(np.abs(ew.approximate(ratios) - ratios) >= E)
        assert fail_cl < fail_ew

    def test_few_distinct_values_exact(self):
        ratios = np.tile(np.array([0.01, 0.02, 0.03]), 100)
        model = ClusteringStrategy().fit(ratios, 10, E)
        np.testing.assert_allclose(np.sort(np.unique(ratios)),
                                   model.representatives)
        assert np.all(model.approximate(ratios) == ratios)

    def test_subsampling_keeps_extremes(self, rng):
        ratios = rng.normal(0, 0.01, 5000)
        ratios[0], ratios[-1] = -1.0, 1.0
        strat = ClusteringStrategy(sample_limit=500)
        model = strat.fit(ratios, 50, E)
        assert model.representatives.min() <= 0.0
        assert model.representatives.max() >= 0.5

    def test_deterministic_given_seed(self, rng):
        ratios = rng.normal(0, 0.01, 2000)
        a = ClusteringStrategy(seed=5).fit(ratios, 16, E)
        b = ClusteringStrategy(seed=5).fit(ratios, 16, E)
        np.testing.assert_array_equal(a.representatives, b.representatives)

    @pytest.mark.parametrize("init", ["histogram", "kmeans++", "random"])
    def test_all_inits_work(self, init, rng):
        ratios = rng.normal(0, 0.01, 1000)
        model = ClusteringStrategy(init=init).fit(ratios, 16, E)
        assert 1 <= model.n_bins <= 16

    def test_invalid_init(self):
        with pytest.raises(ValueError):
            ClusteringStrategy(init="bogus")

    def test_invalid_sample_limit(self):
        with pytest.raises(ValueError):
            ClusteringStrategy(sample_limit=1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 64),
       scale=st.floats(1e-4, 10.0))
def test_property_models_valid_for_any_data(seed, k, scale):
    rng = np.random.default_rng(seed)
    ratios = rng.normal(0, scale, 300)
    for strategy in ALL:
        model = strategy.fit(ratios, k, E)
        assert 1 <= model.n_bins <= max(k, 1)
        labels = model.assign(ratios)
        assert labels.min() >= 0 and labels.max() < model.n_bins
        # Assignment must be to the nearest representative.
        dist = np.abs(ratios - model.representatives[labels])
        best = np.min(np.abs(ratios[:, None] - model.representatives[None, :]),
                      axis=1)
        np.testing.assert_allclose(dist, best, rtol=1e-12, atol=1e-15)
