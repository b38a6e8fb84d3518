"""Analytical error bounds for NUMARCK chains.

The paper states the per-iteration guarantee and *observes* accumulation
across restarts (Fig. 8); this module makes the growth law explicit so
users can budget chain depth a priori (it is verified against measured
chains by the test suite).

Derivation (open-loop chains, the paper's scheme)
-------------------------------------------------
Let ``r_i`` be the true change ratio at step ``i`` and ``r'_i`` the decoded
one with ``|r'_i - r_i| < E``.  The decoded state after ``d`` steps is
``D'_d = D_0 * prod(1 + r'_i)`` while the truth is
``D_d = D_0 * prod(1 + r_i)``.  With ``|1 + r_i| >= m > 0`` (no
sign-crossing through zero, which would have been forced exact anyway),
the relative value error satisfies::

    |D'_d / D_d - 1| <= (1 + E/m)^d - 1

For the common case of small ratios (``m ~ 1``) this is
``(1+E)^d - 1 ~ d*E`` -- the linear accumulation Fig. 8 shows.  Closed-loop
chains (``reference="reconstructed"``) re-anchor every step, so their bound
is depth-independent: ``E / m``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "open_loop_error_bound",
    "closed_loop_error_bound",
    "max_chain_depth",
]


def _check(error_bound: float, depth: int, margin: float) -> None:
    if error_bound <= 0:
        raise ValueError(f"error_bound must be positive, got {error_bound}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")


def open_loop_error_bound(error_bound: float, depth: int,
                          margin: float = 1.0) -> float:
    """Worst-case relative value error after ``depth`` open-loop deltas.

    ``margin`` is a lower bound on ``|1 + r_i|`` along the chain (1.0 when
    ratios are small, which the zero-index reservation makes typical).
    """
    _check(error_bound, depth, margin)
    return float((1.0 + error_bound / margin) ** depth - 1.0)


def closed_loop_error_bound(error_bound: float, margin: float = 1.0) -> float:
    """Depth-independent bound for closed-loop chains."""
    _check(error_bound, 1, margin)
    return float(error_bound / margin)


def max_chain_depth(error_bound: float, target_error: float,
                    margin: float = 1.0) -> int:
    """Largest open-loop depth whose worst case stays within ``target_error``.

    Inverse of :func:`open_loop_error_bound`; returns at least 0.
    """
    _check(error_bound, 0, margin)
    if target_error <= 0:
        raise ValueError(f"target_error must be positive, got {target_error}")
    depth = np.log1p(target_error) / np.log1p(error_bound / margin)
    return int(np.floor(depth))
