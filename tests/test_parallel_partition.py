"""Block-partition helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import block_partition, partition_bounds, partition_slices


class TestPartitionBounds:
    def test_even_split(self):
        np.testing.assert_array_equal(partition_bounds(12, 3), [0, 4, 8, 12])

    def test_remainder_goes_first(self):
        np.testing.assert_array_equal(partition_bounds(10, 3), [0, 4, 7, 10])

    def test_more_parts_than_items(self):
        bounds = partition_bounds(2, 5)
        sizes = np.diff(bounds)
        assert sizes.sum() == 2
        assert sizes.max() <= 1

    def test_zero_items(self):
        np.testing.assert_array_equal(partition_bounds(0, 3), [0, 0, 0, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_bounds(-1, 2)
        with pytest.raises(ValueError):
            partition_bounds(5, 0)


class TestSlicesAndBlocks:
    def test_slices_cover_range(self):
        slices = partition_slices(17, 4)
        covered = np.concatenate([np.arange(17)[s] for s in slices])
        np.testing.assert_array_equal(covered, np.arange(17))

    def test_block_partition_views(self, rng):
        arr = rng.normal(size=(20, 3))
        parts = block_partition(arr, 3)
        np.testing.assert_array_equal(np.vstack(parts), arr)
        # Parts are views, not copies.
        parts[0][0, 0] = 99.0
        assert arr[0, 0] == 99.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 10_000), p=st.integers(1, 64))
def test_property_balanced_exact_cover(n, p):
    bounds = partition_bounds(n, p)
    sizes = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == n
    assert sizes.min() >= 0
    assert sizes.max() - sizes.min() <= 1, "parts must differ by at most one"
    assert np.all(sizes[:-1] >= sizes[1:]), "larger parts must come first"
