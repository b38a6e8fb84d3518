"""Decode one iteration (paper Section II-D, restart equation).

``decoded = prev * (1 + ratio')`` for compressible points, raw stored
values for incompressible ones.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoder import EncodedIteration
from repro.errors import FormatError
from repro.telemetry.tracer import get_telemetry

__all__ = ["decode_iteration"]


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
    p = np.asarray(prev)
    if p.shape != encoded.shape:
        raise FormatError(
            f"reference shape {p.shape} does not match encoded shape {encoded.shape}"
        )
    with get_telemetry().span("decode", n_points=encoded.n_points,
                              bytes_out=encoded.n_points * 8) as sp:
        sp.set(gamma=encoded.incompressible_ratio)
        # D'_i = D'_{i-1} * (1 + ratio') in the ratio array's own buffer,
        # reading the reference at its own dtype: no float64 copy of it.
        out = encoded.decoded_ratios()
        out += 1.0
        out *= p.ravel()
        out[encoded.incompressible] = encoded.exact_values
        return out.reshape(encoded.shape)

