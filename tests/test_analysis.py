"""Entropy, distribution and report helpers."""

import numpy as np
import pytest

from repro.analysis import (
    byte_entropy,
    change_histogram,
    distribution_drift,
    format_series,
    format_table,
    summarize_changes,
    word_entropy,
)


class TestEntropy:
    def test_constant_bytes_zero_entropy(self):
        assert byte_entropy(b"\x00" * 100) == 0.0

    def test_uniform_bytes_max_entropy(self):
        raw = bytes(range(256)) * 8
        assert byte_entropy(raw) == pytest.approx(8.0)

    def test_random_doubles_high_entropy(self, rng):
        """The paper's premise: snapshot bytes are near-incompressible."""
        assert byte_entropy(rng.normal(size=20_000)) > 5.0

    def test_word_entropy_distinct_values(self):
        assert word_entropy(np.array([1, 2, 3, 4])) == pytest.approx(2.0)

    def test_word_entropy_constant(self):
        assert word_entropy(np.full(10, 7)) == 0.0

    def test_word_entropy_empty(self):
        assert word_entropy(np.array([])) == 0.0

    def test_index_stream_entropy_below_nbits(self, smooth_pair):
        """NUMARCK's transform concentrates the distribution: the index
        stream's entropy sits well below its B-bit width, which is the
        headroom a lossless post-pass exploits."""
        from repro.core import NumarckConfig, encode_pair

        prev, curr = smooth_pair
        enc = encode_pair(prev, curr, NumarckConfig(nbits=8))[0]
        assert word_entropy(enc.indices) < 8.0


class TestChangeSummary:
    def test_summary_fields(self, smooth_pair):
        prev, curr = smooth_pair
        s = summarize_changes(prev, curr)
        assert s.n_points == prev.size
        assert 0 <= s.median_abs <= s.p95_abs <= s.max_abs
        assert s.frac_below[0.001] <= s.frac_below[0.05]

    def test_identical_iterates(self, rng):
        x = rng.uniform(1, 2, 100)
        s = summarize_changes(x, x)
        assert s.max_abs == 0.0
        assert s.frac_unchanged() == 1.0

    def test_all_forced_exact(self):
        s = summarize_changes(np.zeros(10), np.ones(10))
        assert s.n_forced_exact == 10
        assert s.frac_unchanged() == 1.0


class TestChangeHistogram:
    def test_counts_and_edges(self, smooth_pair):
        prev, curr = smooth_pair
        counts, edges = change_histogram(prev, curr, bins=255)
        assert counts.shape == (255,)
        assert edges.shape == (256,)
        assert counts.sum() == prev.size

    def test_outliers_folded(self, rng):
        prev = rng.uniform(1, 2, 1000)
        curr = prev * (1 + rng.normal(0, 0.001, 1000))
        curr[0] = prev[0] * 1e6  # giant outlier
        counts, edges = change_histogram(prev, curr, bins=64)
        assert edges[-1] < 1e5, "clipping must bound the display range"

    def test_degenerate_pair(self):
        counts, edges = change_histogram(np.zeros(5), np.ones(5))
        assert counts.sum() == 0


class TestDrift:
    def test_identical_zero(self, rng):
        h = rng.integers(1, 100, 32)
        assert distribution_drift(h, h) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_maximal(self):
        a = np.array([10, 0, 0, 0])
        b = np.array([0, 0, 0, 10])
        assert distribution_drift(a, b) == pytest.approx(1.0)

    def test_symmetric(self, rng):
        a = rng.integers(0, 50, 16)
        b = rng.integers(0, 50, 16)
        a[0] += 1
        b[1] += 1
        assert distribution_drift(a, b) == pytest.approx(distribution_drift(b, a))

    def test_validation(self):
        with pytest.raises(ValueError):
            distribution_drift(np.ones(4), np.ones(5))
        with pytest.raises(ValueError):
            distribution_drift(np.zeros(4), np.ones(4))

    def test_detects_regime_change(self, rng):
        """Drift between consecutive iterations spikes when the change
        distribution shifts -- the paper's anomaly-detection idea."""
        prev = rng.uniform(1, 2, 5000)
        normal1 = prev * (1 + rng.normal(0, 0.001, 5000))
        normal2 = normal1 * (1 + rng.normal(0, 0.001, 5000))
        anomalous = normal2 * (1 + rng.normal(0.05, 0.02, 5000))  # regime shift
        lo, hi = -0.1, 0.1
        def hist(a, b):
            r = (b - a) / a
            return np.histogram(np.clip(r, lo, hi), bins=64, range=(lo, hi))[0]
        calm = distribution_drift(hist(prev, normal1), hist(normal1, normal2))
        spike = distribution_drift(hist(normal1, normal2), hist(normal2, anomalous))
        assert spike > 5 * calm


class TestReport:
    def test_table_basic(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]], precision=2)
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.50" in out and "0.12" in out

    def test_table_title(self):
        out = format_table(["x"], [[1]], title="Table I")
        assert out.startswith("Table I")

    def test_table_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_series_wrapping(self):
        out = format_series("err", list(range(25)), per_line=10)
        assert out.count("\n") == 3  # header line + 3 wrapped rows

    def test_series_empty(self):
        assert "(empty)" in format_series("x", [])
