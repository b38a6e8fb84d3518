"""Correctness checks of the workloads' outputs.

They run after the timed operations, except the restore comparison, which
runs per operation outside its timer so that the 2 MB results need not be
kept.  A check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro import Codec, NumarckConfig
from repro.core.checkpoint import CheckpointChain
from repro.core.decoder import decode_iteration
from repro.errors import FormatError
from repro.io import chain_from_bytes, chain_to_bytes

__all__ = ["bound_violations", "chain_failures", "delta_failures",
           "ingest_failures", "restore_failures", "delta_bytes"]

#: float64 rounding of ``prev * (1 + ratio)`` on top of the strict bound.
_SLACK = 1e-12


def bound_violations(prev: np.ndarray, curr: np.ndarray, decoded: np.ndarray,
                     error_bound: float,
                     exact: np.ndarray | None = None) -> int:
    """Points of ``decoded`` that break NUMARCK's per-point guarantee.

    Where the change ratio is defined (finite data, ``prev != 0``) the
    decoded ratio must be within E of the true one:
    ``|decoded - curr| / |prev| < E``.  Everywhere else, and at each point
    of ``exact`` (a delta's incompressible mask), ``decoded`` must equal
    ``curr`` bit for bit.
    """
    p = np.asarray(prev, dtype=np.float64).ravel()
    c = np.asarray(curr, dtype=np.float64).ravel()
    d = np.asarray(decoded, dtype=np.float64).ravel()
    if not p.shape == c.shape == d.shape:
        return max(p.size, c.size, d.size)
    defined = (p != 0) & np.isfinite(p) & np.isfinite(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(d - c) / np.abs(p)
    bad = defined & ~(err < error_bound + _SLACK)
    must_match = ~defined if exact is None else ~defined | exact.ravel()
    same = (d == c) | (np.isnan(d) & np.isnan(c))
    bad |= must_match & ~same
    return int(np.count_nonzero(bad))


def chain_failures(label: str, chain: CheckpointChain,
                   states: Sequence[np.ndarray],
                   error_bound: float) -> list[str]:
    """Check every delta of ``chain`` against the true states it encodes.
    Chains use ``reference="original"``, so delta ``i`` is decoded against
    the true state ``i - 1``, as it was encoded."""
    if len(chain) != len(states):
        return [f"{label}: chain holds {len(chain)} states, "
                f"expected {len(states)}"]
    out = []
    if not np.array_equal(chain.full_checkpoint, states[0]):
        out.append(f"{label}: full checkpoint is not bit-exact")
    for i, enc in enumerate(chain.deltas, 1):
        decoded = decode_iteration(states[i - 1], enc)
        bad = bound_violations(states[i - 1], states[i], decoded, error_bound,
                               enc.incompressible)
        if bad:
            out.append(f"{label}: delta {i}: {bad} points break E={error_bound}")
    return out


def delta_failures(label: str, blob: bytes, states: Sequence[np.ndarray],
                   error_bound: float) -> list[str]:
    """:func:`chain_failures` of a chain container."""
    try:
        chain = chain_from_bytes(blob)
    except FormatError as exc:
        return [f"{label}: container does not parse: {exc}"]
    return chain_failures(label, chain, states, error_bound)


def ingest_failures(downloaded: dict[str, bytes],
                    states: Callable[[str], list[np.ndarray]],
                    config: NumarckConfig) -> list[str]:
    """Each downloaded container must be byte-identical to a direct
    ``Codec`` encode of the states the server acknowledged (``states`` of
    its chain id), and every delta in it must meet the bound.  Identical
    bytes hold identical deltas, so the bound is checked on the direct
    encode's chain."""
    out = []
    for chain_id, blob in downloaded.items():
        chain_states = states(chain_id)
        chain = Codec(config=config).compress_chain(chain_states)
        if blob != chain_to_bytes(chain):
            out.append(f"{chain_id}: downloaded container ({len(blob)} B) "
                       f"differs from a direct Codec encode")
        out += chain_failures(chain_id, chain, chain_states,
                              config.error_bound)
    return out


def restore_failures(label: str, blob: bytes, decoded: list[np.ndarray],
                     stored: bytes, reference: list[np.ndarray]) -> list[str]:
    """A restore must return the stored container unchanged and decode it
    to exactly the states a local decode of it gives."""
    out = []
    if blob != stored:
        out.append(f"{label}: downloaded container differs from the stored one")
    if len(decoded) != len(reference) or not all(
            np.array_equal(a, b) for a, b in zip(decoded, reference)):
        out.append(f"{label}: decoded states differ from a local decode")
    return out


def delta_bytes(blob: bytes, full: np.ndarray) -> int:
    """Bytes of a chain container's delta records: the container minus a
    container of its FULL record alone, an exact copy of state 0."""
    return len(blob) - len(chain_to_bytes(CheckpointChain(full)))
