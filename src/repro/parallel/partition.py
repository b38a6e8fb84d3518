"""Block decompositions of index ranges.

These helpers mirror the usual MPI block-distribution conventions: the
first ``n % p`` parts receive one extra element, so part sizes differ by at
most one and concatenating the parts in order recovers the original range.
"""

from __future__ import annotations

import numpy as np

__all__ = ["partition_bounds", "partition_slices", "block_partition"]


def partition_bounds(n: int, nparts: int) -> np.ndarray:
    """Return ``nparts + 1`` boundaries of a balanced block partition of ``range(n)``.

    ``bounds[k]:bounds[k+1]`` is part ``k``; sizes differ by at most one and
    larger parts come first.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    base, extra = divmod(n, nparts)
    sizes = np.full(nparts, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(nparts + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def partition_slices(n: int, nparts: int) -> list[slice]:
    """Balanced block partition of ``range(n)`` as slices."""
    bounds = partition_bounds(n, nparts)
    return [slice(int(bounds[k]), int(bounds[k + 1])) for k in range(nparts)]


def block_partition(array: np.ndarray, nparts: int) -> list[np.ndarray]:
    """Split the leading axis of ``array`` into ``nparts`` contiguous views."""
    return [array[s] for s in partition_slices(array.shape[0], nparts)]

