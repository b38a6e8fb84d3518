"""Strategy protocol and the fitted bin model."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import NumarckConfig

__all__ = ["BinModel", "ApproximationStrategy"]


def bounded_sample(arr: np.ndarray, limit: int | None,
                   seed: int) -> np.ndarray:
    """``arr`` itself when it holds at most ``limit`` values, else a
    seeded draw of ``limit - 2`` of them without replacement plus the
    minimum and maximum, so a model fitted to the sample spans the full
    range."""
    if limit is None or arr.size <= limit:
        return arr
    idx = np.random.default_rng(seed).choice(arr.size, size=limit - 2,
                                             replace=False)
    return np.concatenate([arr[idx], [arr.min(), arr.max()]])


@dataclass(frozen=True)
class BinModel:
    """A fitted set of representative change ratios.

    Attributes
    ----------
    representatives:
        ``(m,)`` float64 array with ``m <= k`` distinct representative
        ratios, sorted ascending.  Bin ``j`` approximates every ratio
        assigned to it by ``representatives[j]``.
    """

    representatives: np.ndarray

    def __post_init__(self) -> None:
        reps = np.asarray(self.representatives, dtype=np.float64).ravel()
        if reps.size == 0:
            raise ValueError("BinModel needs at least one representative")
        if not np.all(np.isfinite(reps)):
            raise ValueError("representatives must be finite")
        if np.any(np.diff(reps) < 0):
            raise ValueError("representatives must be sorted ascending")
        object.__setattr__(self, "representatives", reps)

    @property
    def n_bins(self) -> int:
        return int(self.representatives.size)

    def assign(self, ratios: np.ndarray) -> np.ndarray:
        """Nearest-representative bin index (int32, in ``[0, n_bins)``).

        Because representatives are sorted, nearest-neighbour assignment is
        a binary search against adjacent midpoints -- O(n log m).
        """
        reps = self.representatives
        if reps.size == 1:
            return np.zeros(np.asarray(ratios).shape, dtype=np.int32)
        mids = 0.5 * (reps[:-1] + reps[1:])
        return np.searchsorted(mids, np.asarray(ratios, dtype=np.float64),
                               side="left").astype(np.int32)

    def approximate(self, ratios: np.ndarray) -> np.ndarray:
        """Representative ratio of each point's assigned bin."""
        return self.representatives[self.assign(ratios)]


class ApproximationStrategy(ABC):
    """Learns a :class:`BinModel` from one iteration's compressible ratios."""

    #: registry name, set by subclasses
    name: str = ""

    @classmethod
    def from_config(cls, config: "NumarckConfig") -> "ApproximationStrategy":
        """Build the strategy a :class:`~repro.core.config.NumarckConfig`
        describes -- the one construction path, so strategy kwargs cannot
        silently diverge from config fields.

        Called on the ABC, dispatches on ``config.strategy`` through the
        registry; called on a concrete subclass, constructs that subclass
        from its matching config fields (the base implementation takes no
        parameters -- subclasses with tunables override).
        """
        if cls is ApproximationStrategy:
            from repro.core.strategies import STRATEGIES

            try:
                sub = STRATEGIES[config.strategy]
            except KeyError:
                raise ValueError(
                    f"unknown strategy {config.strategy!r}; "
                    f"available: {sorted(STRATEGIES)}"
                ) from None
            return sub.from_config(config)
        return cls()

    @abstractmethod
    def fit(self, ratios: np.ndarray, k: int, error_bound: float, *,
            warm_start: np.ndarray | None = None) -> BinModel:
        """Fit at most ``k`` representatives to the candidate ratios.

        Parameters
        ----------
        ratios:
            1-D array of change ratios to be binned (non-empty; the encoder
            never calls ``fit`` with nothing to compress).
        k:
            Maximum number of bins (``2**B - 1`` for the paper's layout).
        error_bound:
            The user tolerance ``E``; strategies may use it to place bin
            boundaries (e.g. log-scale bins start at ``E``) but the hard
            guarantee is enforced by the encoder, not here.
        warm_start:
            Representatives of a previously fitted model of the *same
            chain* to restart from (adaptive refits).  Deterministic
            strategies may ignore it; iterative ones (clustering) use it
            in place of their cold initialiser.
        """

    @staticmethod
    def _validate(ratios: np.ndarray, k: int, error_bound: float) -> np.ndarray:
        arr = np.asarray(ratios, dtype=np.float64).ravel()
        if arr.size == 0:
            raise ValueError("cannot fit a strategy on empty ratios")
        if not np.all(np.isfinite(arr)):
            raise ValueError("ratios must be finite (encoder filters non-finite)")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if error_bound <= 0:
            raise ValueError(f"error_bound must be positive, got {error_bound}")
        return arr
