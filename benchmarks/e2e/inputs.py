"""Seeded inputs and codec configs of the four workloads.

``run.py`` builds every input from ``--seed`` before it starts a system
child, so input generation counts neither toward set-up time nor toward
the child's memory.  The same seed always gives the same arrays.

The CMIP generator, and scipy with it, is imported inside the functions
that use it: the system children import this module for ``CONFIGS``, and
that import must not add to their set-up time.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from repro import NumarckConfig

__all__ = ["CONFIGS", "STREAM_CHUNK", "Trajectory", "ingest_trajectories",
           "restore_chains", "paper_states", "stream_pair"]

#: the codec config each workload runs (reference mode "original").
CONFIGS = {
    "ingest": NumarckConfig(strategy="clustering", nbits=8, error_bound=1e-3,
                            adaptive=True),
    "restore": NumarckConfig(strategy="equal_width", nbits=10,
                             error_bound=1e-3),
    "encode_paper": NumarckConfig(strategy="clustering", nbits=8,
                                  error_bound=1e-3),
    "encode_stream": NumarckConfig(strategy="log_scale", nbits=8,
                                   error_bound=1e-3),
}
#: points per chunk of the streamed encode (the ``Codec`` default).
STREAM_CHUNK = 1 << 20

#: paper grid, 2.5 x 2 degrees.
PAPER_GRID = (90, 144)
INGEST_GRID = (180, 288)
STREAM_GRID = (1440, 2880)
#: the CMIP variables of the paper's Table I.
PAPER_VARIABLES = ("rlus", "mrsos", "mrro", "rlds", "mc")

#: enough chains that none grows past ~100 states in a 20-second run:
#: every job re-reads its whole chain file, so longer chains would make
#: ingest slow down as a run goes on.
INGEST_CHAINS = 24
RESTORE_CHAINS = 8
RESTORE_STATES = 20
PAPER_STATES = 21

_POOL = 32
_ORDER = 1024


def _seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _cmip_states(variable: str, grid: tuple[int, int], seed: int,
                 n: int) -> list[np.ndarray]:
    from repro.simulations.cmip import CmipSimulation

    sim = CmipSimulation(variable, *grid, seed=seed)
    states = []
    for i in range(n):
        if i:
            sim.advance()
        states.append(sim.checkpoint()[variable])
    return states


class Trajectory:
    """One stationary ``rlus`` trajectory of the ingest workload.

    State 0 is a CMIP ``rlus`` field.  Each later state adds one AR(1)
    step of the anomaly, with the variable's own persistence and
    innovation scale and no seasonal drift.  The smooth innovations come
    from a pool shared by all chains, so a state costs one array update
    instead of a Gaussian filter; generation then steals almost no CPU
    from the server while the clients run.
    """

    def __init__(self, base: np.ndarray, pool: np.ndarray, phi: float,
                 order: np.ndarray) -> None:
        self.base = base
        self.pool = pool
        self.phi = phi
        self.order = order

    def __iter__(self) -> Iterator[np.ndarray]:
        anomaly = np.zeros_like(self.base)
        yield self.base.copy()
        for k in itertools.cycle(self.order):
            anomaly = self.phi * anomaly + self.pool[k]
            yield self.base + anomaly

    def states(self, n: int) -> list[np.ndarray]:
        return list(itertools.islice(self, n))


def ingest_trajectories(seed: int) -> list[Trajectory]:
    from repro.simulations.cmip import VARIABLE_SPECS, smooth_noise

    spec = VARIABLE_SPECS["rlus"]
    rng = np.random.default_rng(_seed(seed, 0))
    pool = np.stack([spec.sigma * smooth_noise(INGEST_GRID, rng)
                     for _ in range(_POOL)])
    return [
        Trajectory(_cmip_states("rlus", INGEST_GRID, _seed(seed, 1, c), 1)[0],
                   pool, spec.phi, rng.integers(0, _POOL, _ORDER))
        for c in range(INGEST_CHAINS)
    ]


def restore_chains(seed: int) -> dict[str, list[np.ndarray]]:
    """Chain id -> the ``rlus`` states ``run.py`` stores for it."""
    return {f"restore-{c}": _cmip_states("rlus", PAPER_GRID,
                                          _seed(seed, 2, c), RESTORE_STATES)
            for c in range(RESTORE_CHAINS)}


def paper_states(seed: int) -> dict[str, np.ndarray]:
    """Variable -> ``(21, *shape)`` stack of its states on the paper grid."""
    return {var: np.stack(_cmip_states(var, PAPER_GRID, _seed(seed, 3, i),
                                       PAPER_STATES))
            for i, var in enumerate(PAPER_VARIABLES)}


def stream_pair(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two consecutive float32 ``rlus`` states on the 1440 x 2880 grid."""
    prev, curr = _cmip_states("rlus", STREAM_GRID, _seed(seed, 4), 2)
    return prev.astype(np.float32), curr.astype(np.float32)
