"""Forward predictive coding (change-ratio transform) tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EncodedIteration, change_ratios, decode_iteration

#: Edge values of the transform: zeros of both signs, NaN, +-inf, the
#: smallest subnormal and normal, and magnitudes whose difference overflows.
_EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
          2.2250738585072014e-308, 1.0, -1.0, 1e300,
          1.7976931348623157e308, -1.7976931348623157e308]
_DTYPES = [(np.float64, np.float64), (np.float32, np.float32),
           (np.int64, np.int64), (np.float32, np.float64),
           (np.int32, np.float64), (np.float64, np.int16)]


def _reference_change_ratios(prev, curr):
    """The mask-first formula: the forced mask from the inputs, then a
    ``where=`` divide over the rest, then the overflowed ratios forced."""
    p = np.asarray(prev, dtype=np.float64)
    c = np.asarray(curr, dtype=np.float64)
    forced = ((p == 0.0) & (c != 0.0)) | ~np.isfinite(p) | ~np.isfinite(c)
    safe = ~(forced | (p == 0.0))
    ratios = np.zeros_like(c)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(c - p, p, out=ratios, where=safe)
    bad = safe & ~np.isfinite(ratios)
    ratios[bad] = 0.0
    return ratios, forced | bad


def _as_dtype(values, dtype):
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        values = np.clip(np.nan_to_num(values), max(info.min, -2.0**53),
                         min(info.max, 2.0**53))
    with np.errstate(over="ignore"):
        return np.asarray(values).astype(dtype)


def _rebuild(prev, ratios):
    """``decode_iteration`` of an iteration whose table holds every ratio
    exactly: the restart equation ``prev * (1 + ratio)`` alone."""
    reps, inverse = np.unique(ratios, return_inverse=True)
    n = np.size(ratios)
    enc = EncodedIteration(
        shape=np.shape(ratios), nbits=int(reps.size).bit_length(),
        representatives=reps,
        indices=inverse.ravel().astype(np.uint32) + 1,
        incompressible=np.zeros(n, dtype=bool),
        exact_values=np.empty(0), error_bound=1e-3, strategy="equal_width")
    return decode_iteration(prev, enc)


class TestChangeRatios:
    def test_basic_ratio(self):
        field = change_ratios(np.array([10.0, 100.0]), np.array([11.0, 110.0]))
        np.testing.assert_allclose(field.ratios, [0.1, 0.1])
        assert not field.forced_exact.any()

    def test_paper_example_identical_relative_changes(self):
        """10 -> 11 and 100 -> 110 share one representable ratio."""
        field = change_ratios(np.array([10.0, 100.0]), np.array([11.0, 110.0]))
        assert field.ratios[0] == pytest.approx(field.ratios[1])

    def test_zero_base_forced_exact(self):
        field = change_ratios(np.array([0.0, 1.0]), np.array([5.0, 2.0]))
        assert field.forced_exact[0]
        assert not field.forced_exact[1]
        assert field.ratios[0] == 0.0

    def test_nan_and_inf_forced_exact(self):
        prev = np.array([1.0, np.nan, np.inf, 1.0])
        curr = np.array([np.nan, 1.0, 1.0, np.inf])
        field = change_ratios(prev, curr)
        assert field.forced_exact.all()

    def test_denormal_overflow_forced_exact(self):
        prev = np.array([5e-324])  # smallest subnormal
        curr = np.array([1.0])
        field = change_ratios(prev, curr)
        assert field.forced_exact[0] or np.isfinite(field.ratios[0])

    def test_negative_values(self):
        field = change_ratios(np.array([-10.0]), np.array([-11.0]))
        assert field.ratios[0] == pytest.approx(0.1)

    def test_sign_flip(self):
        field = change_ratios(np.array([2.0]), np.array([-2.0]))
        assert field.ratios[0] == pytest.approx(-2.0)

    def test_shape_preserved(self, rng):
        prev = rng.uniform(1, 2, (4, 5, 6))
        curr = prev * 1.01
        field = change_ratios(prev, curr)
        assert field.ratios.shape == (4, 5, 6)
        assert field.n_points == 120

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            change_ratios(np.zeros(3), np.zeros(4))

    def test_unchanged_is_zero_ratio(self, rng):
        prev = rng.uniform(1, 2, 100)
        field = change_ratios(prev, prev)
        np.testing.assert_array_equal(field.ratios, np.zeros(100))


class TestApplyChange:
    """The restart equation ``D'_i = D'_{i-1} (1 + ratio)``, applied by
    :func:`decode_iteration`."""

    def test_inverse_of_change_ratios(self, rng):
        prev = rng.uniform(0.5, 3.0, 1000)
        curr = prev * rng.uniform(0.9, 1.1, 1000)
        field = change_ratios(prev, curr)
        rebuilt = _rebuild(prev, field.ratios)
        np.testing.assert_allclose(rebuilt, curr, rtol=1e-12)

    def test_zero_ratio_carries_value(self):
        prev = np.array([3.0, -7.0])
        np.testing.assert_array_equal(_rebuild(prev, np.zeros(2)), prev)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            _rebuild(np.zeros(2), np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 300))
def test_property_roundtrip_where_defined(seed, n):
    """ratio -> apply is the identity wherever the ratio is defined."""
    rng = np.random.default_rng(seed)
    prev = rng.normal(size=n) * 10.0 ** float(rng.integers(-3, 4))
    prev[rng.random(n) < 0.1] = 0.0
    curr = rng.normal(size=n)
    field = change_ratios(prev, curr)
    rebuilt = prev * (1.0 + field.ratios)
    ok = ~field.forced_exact
    np.testing.assert_allclose(rebuilt[ok], curr[ok], rtol=1e-9, atol=1e-12)


_value = st.one_of(st.sampled_from(_EDGES), st.floats(width=64),
                   st.floats(width=32))


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_value, _value), min_size=1, max_size=40),
       dtypes=st.sampled_from(_DTYPES))
def test_property_matches_reference_bit_for_bit(pairs, dtypes):
    """Ratios and forced mask equal the mask-first formula's, bit for bit,
    on zeros of either sign, NaN, +-inf, subnormal references, overflowing
    differences and integer, float32 and mixed dtypes."""
    values = np.array(pairs, dtype=np.float64)
    prev = _as_dtype(values[:, 0], dtypes[0])
    curr = _as_dtype(values[:, 1], dtypes[1])
    want_ratios, want_forced = _reference_change_ratios(prev, curr)
    field = change_ratios(prev, curr)
    assert field.ratios.dtype == np.float64
    assert field.ratios.tobytes() == want_ratios.tobytes()
    np.testing.assert_array_equal(field.forced_exact, want_forced)
