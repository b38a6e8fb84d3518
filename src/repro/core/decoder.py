"""Decode one iteration (paper Section II-D, restart equation).

``decoded = prev * (1 + ratio')`` for compressible points, raw stored
values for incompressible ones.

Because every point costs exactly ``B`` bits plus one bitmap bit, the
encoding supports **random access**: :func:`decode_region` reconstructs an
arbitrary flat slice without touching the rest of the iteration (the only
non-local information is the rank of the first incompressible point, a
single prefix ``count_nonzero``).  Analysis jobs can therefore pull one
block or sub-domain out of a compressed checkpoint.
"""

from __future__ import annotations

import numpy as np

from repro.core.change import apply_change
from repro.core.encoder import EncodedIteration
from repro.errors import FormatError
from repro.telemetry.tracer import get_telemetry

__all__ = ["decode_iteration", "decode_region"]


def decode_iteration(prev: np.ndarray, encoded: EncodedIteration) -> np.ndarray:
    """Rebuild an iterate from its reference and its encoded form.

    Parameters
    ----------
    prev:
        The same reference array that was passed to
        :func:`~repro.core.encoder.encode_pair` (original previous
        iterate for open-loop chains, previously decoded state for
        closed-loop or restart).
    encoded:
        The compressed iteration.

    Returns
    -------
    numpy.ndarray
        Float64 array of ``encoded.shape``.
    """
    p = np.asarray(prev, dtype=np.float64)
    if p.shape != encoded.shape:
        raise FormatError(
            f"reference shape {p.shape} does not match encoded shape {encoded.shape}"
        )
    with get_telemetry().span("decode", n_points=encoded.n_points,
                              bytes_out=encoded.n_points * 8) as sp:
        sp.set(gamma=encoded.incompressible_ratio)
        ratios = encoded.decoded_ratios()
        out = apply_change(p.ravel(), ratios)
        out[encoded.incompressible] = encoded.exact_values
        return out.reshape(encoded.shape)


def decode_region(prev_region: np.ndarray, encoded: EncodedIteration,
                  start: int, stop: int) -> np.ndarray:
    """Decode only the flat index range ``[start, stop)``.

    Parameters
    ----------
    prev_region:
        The reference values for exactly that range (``stop - start``
        elements, any shape -- it is flattened).
    encoded:
        The compressed iteration.
    start, stop:
        Flat (C-order) point range within the iteration.

    Returns
    -------
    numpy.ndarray
        1-D array of ``stop - start`` decoded values.
    """
    n = encoded.n_points
    if not 0 <= start <= stop <= n:
        raise IndexError(f"region [{start}, {stop}) out of range [0, {n})")
    p = np.asarray(prev_region, dtype=np.float64).ravel()
    if p.size != stop - start:
        raise FormatError(
            f"reference region has {p.size} points, expected {stop - start}"
        )
    if start == stop:
        return np.empty(0, dtype=np.float64)

    indices = encoded.indices[start:stop]
    mask = encoded.incompressible[start:stop]
    if encoded.representatives.size == 0:
        ratios = np.zeros(stop - start)
    else:
        if encoded.zero_reserved:
            table = np.concatenate([[0.0], encoded.representatives])
        else:
            table = encoded.representatives
        ratios = table[indices]
    ratios = np.where(mask, 0.0, ratios)
    out = p * (1.0 + ratios)
    if mask.any():
        # Rank of the region's first exact value in the dense exact stream.
        first = int(np.count_nonzero(encoded.incompressible[:start]))
        count = int(mask.sum())
        out[mask] = encoded.exact_values[first : first + count]
    return out
