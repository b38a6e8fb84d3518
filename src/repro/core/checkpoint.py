"""Multi-iteration checkpoint chains (paper Algorithm 1 + Section II-D).

A chain starts from a full, exact checkpoint ``D_0`` and appends one
encoded delta per subsequent iteration.  Restart reads the full checkpoint
and replays deltas in order.

Every record is held as its payload, built once: the full checkpoint's
at construction (the chain's ``D_0`` is a read-only view into it), each
delta's at append.  The chain decides its table references (a reuse hit
whose table equals the previous delta's references it); files only
frame the payloads.

Two reference modes (see :class:`~repro.core.config.NumarckConfig`):

* ``"original"`` (paper): iteration ``i`` is encoded against the *true*
  ``D_{i-1}``.  Decoding applies the approximated ratio to the
  *approximated* ``D'_{i-1}``, so value error accumulates with chain depth
  -- exactly the effect the paper measures in Fig. 8.
* ``"reconstructed"``: iteration ``i`` is encoded against the decoded
  ``D'_{i-1}``, closing the loop.  The ratio-level guarantee then applies
  to the decoded base, so value error stays bounded at any depth.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.adaptive import AdaptiveEncoder
from repro.core.config import NumarckConfig
from repro.core.decoder import decode_iteration
from repro.core.encoder import EncodedIteration, encode_pair
from repro.core.metrics import CompressionStats, compression_stats
from repro.core.strategies.base import BinModel
from repro.errors import FormatError
from repro.io.format import (decode_delta_bytes, decode_full_bytes,
                             encode_delta_bytes, encode_full_bytes,
                             last_delta_head)

__all__ = ["CheckpointChain"]


def _last_table(payloads: Sequence[bytes]) -> np.ndarray | None:
    """The last delta's table (``None`` for none), from the heads alone."""
    head = last_delta_head(payloads)
    return None if head is None else head.representatives


class CheckpointChain:
    """A full checkpoint followed by encoded deltas.

    Typical use::

        chain = CheckpointChain(d0, config)
        for d in simulation:         # d: ndarray per iteration
            chain.append(d)
        restart_state = chain.reconstruct()          # latest iteration
        earlier       = chain.reconstruct(3)         # iteration index 3
    """

    def __init__(self, full_checkpoint: np.ndarray,
                 config: NumarckConfig | None = None) -> None:
        self._start(encode_full_bytes(full_checkpoint), config, [])

    def _start(self, full_payload: bytes, config: NumarckConfig | None,
               payloads: list[bytes]) -> None:
        self.config = config if config is not None else NumarckConfig()
        self._full_payload = full_payload
        self._full = decode_full_bytes(full_payload)
        self._payloads = payloads
        # The last delta's table: the one a reuse-hit delta may reference.
        self._table = _last_table(payloads)
        self._stats: list[CompressionStats] = []
        # Reference state for the *next* append, built on first use.
        self._ref: np.ndarray | None = None
        # With config.adaptive, appends share one stateful encoder so the
        # fitted model carries over; a resume seeds it with the last table.
        self._adaptive = (AdaptiveEncoder(self.config)
                          if self.config.adaptive else None)
        if self._adaptive is not None and getattr(self._table, "size", 0):
            self._adaptive.seed(BinModel(self._table))

    @classmethod
    def resume(cls, full_payload: bytes, payloads: Sequence[bytes],
               config: NumarckConfig | None = None) -> "CheckpointChain":
        """A chain already holding its full record's ``full_payload`` and
        delta ``payloads`` (e.g. read from a file), taking them uncopied.
        Only the delta heads are read, for the last table, so model reuse
        resumes after a load."""
        chain = cls.__new__(cls)
        chain._start(full_payload, config, list(payloads))
        return chain

    # -- writing ----------------------------------------------------------

    def append(self, data: np.ndarray, *,
               persist: Callable[[bytes], None] | None = None
               ) -> CompressionStats:
        """Encode one more iteration; returns its compression stats.

        ``persist``, when given, receives the delta's record payload before
        the chain takes it.  If it raises, the chain is left as it was
        (only an adaptive chain's cached bin model keeps what the encode
        learned), so a durable caller never holds a state its storage
        lost.
        """
        arr = np.asarray(data, dtype=np.float64)
        if arr.shape != self._full.shape:
            raise FormatError(
                f"iteration shape {arr.shape} does not match chain shape {self._full.shape}"
            )
        if self._ref is None:
            self._ref = self.reconstruct()
        if self._adaptive is not None:
            encoded = self._adaptive.encode(self._ref, arr)
            report = self._adaptive.last_report
        else:
            encoded, report = encode_pair(self._ref, arr, self.config)
        stats = compression_stats(encoded, report.mean_error, report.max_error)
        table_ref = bool(encoded.model_reused and self._table is not None
                         and np.array_equal(encoded.representatives,
                                            self._table))
        payload = encode_delta_bytes(encoded, table_ref=table_ref)
        if persist is not None:
            persist(payload)
        self._payloads.append(payload)
        self._table = encoded.representatives
        self._stats.append(stats)
        if self.config.reference == "original":
            self._ref = arr.astype(np.float64, copy=True)
        else:
            self._ref = decode_iteration(self._ref, encoded)
        return stats

    def extend(self, iterations: Sequence[np.ndarray]) -> list[CompressionStats]:
        """Append several iterations; returns their stats in order."""
        return [self.append(it) for it in iterations]

    def truncate(self, n_iterations: int) -> None:
        """Drop deltas so the chain holds only its first ``n_iterations``
        states (``n_iterations >= 1``; the full checkpoint always stays).

        Used after salvaging damaged files: a multi-variable checkpoint
        torn mid-iteration leaves chains of unequal length, and resuming
        requires cutting them back to a common depth; further appends
        behave like appends to a freshly loaded chain.
        """
        if not 1 <= n_iterations <= len(self):
            raise IndexError(
                f"cannot truncate to {n_iterations} of {len(self)} iterations"
            )
        if n_iterations == len(self):
            return
        self._payloads = self._payloads[: n_iterations - 1]
        self._table = _last_table(self._payloads)
        self._stats = self._stats[: n_iterations - 1]
        self._ref = None
        if self._adaptive is not None:
            # The cached model may belong to a dropped suffix; refit cold.
            self._adaptive.reset()

    # -- reading ----------------------------------------------------------

    @property
    def reuse_stats(self):
        """Adaptive reuse counters (:class:`~repro.core.adaptive.ReuseStats`),
        or ``None`` when the chain is not adaptive."""
        return self._adaptive.stats if self._adaptive is not None else None

    def __len__(self) -> int:
        """Number of stored iterations including the full checkpoint."""
        return 1 + len(self._payloads)

    @property
    def n_points(self) -> int:
        """Points per state."""
        return int(self._full.size)

    @property
    def full_checkpoint(self) -> np.ndarray:
        return self._full.copy()

    @property
    def full_payload(self) -> bytes:
        """The full checkpoint's record payload, as written to a chain
        file."""
        return self._full_payload

    @property
    def payloads(self) -> tuple[bytes, ...]:
        """Each delta's record payload, as written to a chain file."""
        return tuple(self._payloads)

    @property
    def deltas(self) -> tuple[EncodedIteration, ...]:
        return tuple(self._decoded())

    @property
    def stats(self) -> tuple[CompressionStats, ...]:
        """Per-delta compression stats, index 0 = first delta."""
        return tuple(self._stats)

    def _decoded(self, n: int | None = None) -> Iterator[EncodedIteration]:
        """Decode the first ``n`` payloads (``None``: all) in order."""
        table = None
        for payload in self._payloads[:n]:
            enc = decode_delta_bytes(payload, prev_reps=table)
            table = enc.representatives
            yield enc

    def reconstruct(self, iteration: int | None = None) -> np.ndarray:
        """Decode the state at ``iteration`` (0 = full checkpoint).

        ``None`` means the latest iteration.  Replays all deltas up to the
        requested point, mirroring a restart from the chain's files.
        """
        last = len(self._payloads)
        it = last if iteration is None else iteration
        if not 0 <= it <= last:
            raise IndexError(f"iteration {it} out of range [0, {last}]")
        state = self._full.copy()
        for enc in self._decoded(it):
            state = decode_iteration(state, enc)
        return state

    def iter_states(self) -> Iterator[np.ndarray]:
        """Yield the decoded state of every iteration, starting at 0."""
        state = self._full.copy()
        yield state.copy()
        for enc in self._decoded():
            state = decode_iteration(state, enc)
            yield state.copy()
