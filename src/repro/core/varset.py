"""Named sets of checkpoint chains (whole-checkpoint compression).

A simulation checkpoint is a *dict* of variables; :class:`VariableSet`
compresses the whole dict per iteration, one
:class:`~repro.core.checkpoint.CheckpointChain` per variable, and
round-trips through the multi-variable container in one call::

    vs = VariableSet(("dens", "pres"), config)
    vs.record(sim.checkpoint())        # full checkpoints on first call
    ...
    vs.record(sim.checkpoint())        # deltas afterwards
    vs.save("step0400.nmk")            # one file, all variables
    state = VariableSet.load("step0400.nmk").reconstruct()

:class:`repro.restart.RestartManager` builds on this class and adds the
restart vocabulary.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.checkpoint import CheckpointChain
from repro.errors import StateError
from repro.core.config import NumarckConfig
from repro.core.metrics import CompressionStats

__all__ = ["VariableSet"]


class VariableSet:
    """Per-variable chains over a fixed set of checkpoint variables."""

    def __init__(self, variables: tuple[str, ...],
                 config: NumarckConfig | None = None) -> None:
        if not variables:
            raise ValueError("need at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.variables = tuple(variables)
        self.config = config if config is not None else NumarckConfig()
        self._chains: dict[str, CheckpointChain] | None = None

    # -- recording ----------------------------------------------------------

    @property
    def n_checkpoints(self) -> int:
        """Checkpoints present for *every* variable (including the initial
        full one).  Chains normally share a depth; after torn-tail salvage
        of a multi-variable file they may differ by one, and only the
        common prefix counts."""
        if self._chains is None:
            return 0
        return min(len(c) for c in self._chains.values())

    def record(self, checkpoint: dict[str, np.ndarray]
               ) -> dict[str, CompressionStats] | None:
        """Append one checkpoint; returns per-variable stats (None for the
        first, full checkpoint, which is stored exactly)."""
        missing = set(self.variables) - set(checkpoint)
        if missing:
            raise KeyError(f"checkpoint missing variables: {sorted(missing)}")
        if self._chains is None:
            self._chains = {
                v: CheckpointChain(checkpoint[v], self.config)
                for v in self.variables
            }
            return None
        return {v: self._chains[v].append(checkpoint[v]) for v in self.variables}

    def chain(self, variable: str) -> CheckpointChain:
        if self._chains is None:
            raise StateError("no checkpoints recorded yet")
        return self._chains[variable]

    def reconstruct(self, iteration: int | None = None
                    ) -> dict[str, np.ndarray]:
        """Decode every variable at ``iteration`` (None = latest *common*
        iteration, so salvaged sets never mix iterations across
        variables)."""
        if self._chains is None:
            raise StateError("no checkpoints recorded yet")
        if iteration is None:
            iteration = self.n_checkpoints - 1
        return {v: c.reconstruct(iteration) for v, c in self._chains.items()}

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Write all chains into one multi-variable container file."""
        from repro.io.container import save_chains

        if self._chains is None:
            raise StateError("no checkpoints recorded yet")
        return save_chains(path, self._chains)

    @classmethod
    def load(cls, path: str | Path,
             config: NumarckConfig | None = None) -> "VariableSet":
        """Rebuild a variable set from a container file."""
        from repro.io.container import load_chains

        chains = load_chains(path, config)
        out = cls(tuple(chains), config)
        out._chains = chains
        return out
