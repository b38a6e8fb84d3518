"""Forward predictive coding: the change-ratio transform (paper Eq. 1).

``ratio = (curr - prev) / prev`` per point.  Points where the transform is
undefined or numerically untrustworthy are *forced exact*: the encoder
stores their raw value and the decoder splices it back in.  Forced-exact
cases:

* ``prev == 0`` and ``curr != 0`` (paper: "Note that D_{i-1,j} cannot be
  zero.  If D_{i-1,j} is zero, D_{i,j} will be stored as it is." -- when
  *both* iterates are zero, ratio 0 reconstructs the point bit-exactly as
  ``0 * (1 + 0)``, so those points stay compressible; sparse fields like
  runoff, where dry cells persist, depend on this);
* non-finite ``prev`` or ``curr`` (NaN/inf in either iterate);
* a non-finite or overflowing ratio (e.g. ``prev`` denormal, or
  ``curr - prev`` beyond the float64 range).

These cases, and besides them only the zero pair (``0 / 0``), are exactly
the points whose IEEE quotient is NaN or infinite: a finite quotient needs
finite operands and ``prev != 0``.  So the mask is one ``isfinite`` pass
over the ratios, with the zero pairs taken back out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ChangeField", "change_ratios"]


@dataclass(frozen=True)
class ChangeField:
    """Change ratios of one iteration plus the forced-exact mask.

    Attributes
    ----------
    ratios:
        Float64 array, same shape as the input; entries under
        ``forced_exact`` are set to 0.0 and must be ignored.
    forced_exact:
        Boolean mask of points that cannot be expressed as a ratio and must
        be stored as raw values regardless of the error bound.
    """

    ratios: np.ndarray
    forced_exact: np.ndarray

    @property
    def n_points(self) -> int:
        return self.ratios.size


def change_ratios(prev: np.ndarray, curr: np.ndarray) -> ChangeField:
    """Compute per-point relative change ratios between two iterates.

    Parameters
    ----------
    prev, curr:
        Arrays of identical shape (any float/int dtype; computed in
        float64).  ``prev`` is iteration ``i-1``, ``curr`` is iteration
        ``i``.

    Returns
    -------
    ChangeField
        Forced exact are the points whose float64 quotient is NaN or
        infinite, less the zero pairs; their ratios are set to 0.0.
    """
    p = np.asarray(prev)
    c = np.asarray(curr)
    if p.shape != c.shape:
        raise ValueError(f"shape mismatch: prev {p.shape} vs curr {c.shape}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = np.subtract(c, p, out=np.empty(c.shape), dtype=np.float64)
        np.divide(ratios, p, out=ratios)
    forced = np.isfinite(ratios, out=np.empty(ratios.shape, dtype=bool))
    np.logical_not(forced, out=forced)
    if forced.any():
        # Only here are the inputs read again, at the non-finite positions.
        idx = np.flatnonzero(forced)
        zero_pair = (p.ravel()[idx] == 0) & (c.ravel()[idx] == 0)
        forced.ravel()[idx[zero_pair]] = False
        ratios.ravel()[idx] = 0.0
    return ChangeField(ratios=ratios, forced_exact=forced)
