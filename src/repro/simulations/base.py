"""Common simulation protocol."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

__all__ = ["Simulation"]


class Simulation(ABC):
    """A time-stepping model that emits named checkpoint variables."""

    #: names of the variables present in every checkpoint dict
    variables: tuple[str, ...] = ()

    @abstractmethod
    def checkpoint(self) -> dict[str, np.ndarray]:
        """Snapshot of all checkpoint variables (fresh float64 arrays)."""

    @abstractmethod
    def advance(self) -> None:
        """Advance the model by one checkpoint interval."""

    def run(self, n_checkpoints: int) -> Iterator[dict[str, np.ndarray]]:
        """Yield the initial checkpoint plus ``n_checkpoints`` more."""
        if n_checkpoints < 0:
            raise ValueError(f"n_checkpoints must be >= 0, got {n_checkpoints}")
        yield self.checkpoint()
        for _ in range(n_checkpoints):
            self.advance()
            yield self.checkpoint()

