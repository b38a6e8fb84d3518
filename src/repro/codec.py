"""The compression facade: one configured object for every entry point.

:class:`Codec` compresses one-shot pairs, multi-iteration chains and
chunked streams; all three run the same per-point encode kernel
(:func:`~repro.core.encoder.encode_block`):

>>> import numpy as np
>>> from repro import Codec, NumarckConfig
>>> rng = np.random.default_rng(0)
>>> prev = rng.uniform(1.0, 2.0, size=1000)
>>> curr = prev * (1.0 + rng.normal(0.0, 0.002, size=1000))
>>> codec = Codec(config=NumarckConfig(error_bound=1e-3, nbits=8))
>>> enc = codec.compress(prev, curr)
>>> out = codec.decompress(prev, enc)
>>> bool(np.all(np.abs(out / prev - curr / prev) < 1e-3 + 1e-12))
True

With ``NumarckConfig(adaptive=True)`` the codec is *stateful*: it caches
the fitted bin model across :meth:`Codec.compress` calls (and inside
:meth:`Codec.compress_chain`), validating it each timestep and refitting
only on drift -- see :mod:`repro.core.adaptive`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.adaptive import AdaptiveEncoder, ReuseStats
from repro.core.checkpoint import CheckpointChain
from repro.core.config import NumarckConfig
from repro.core.decoder import decode_iteration
from repro.core.encoder import EncodedIteration, encode_pair
from repro.core.metrics import CompressionStats, iteration_stats
from repro.core.streaming import StreamedIteration, _ChunkedEncoder, decode_stream
from repro.telemetry.tracer import get_telemetry

__all__ = ["Codec"]


class Codec:
    """Configured NUMARCK compressor: pairs, chains and chunked streams.

    Parameters (all keyword-only)
    -----------------------------
    config:
        Compression parameters; defaults to ``NumarckConfig()``.  Set
        ``adaptive=True`` to reuse the fitted bin model across calls.
    chunk_size / sample_size:
        Chunking parameters for :meth:`compress_stream` (points per chunk,
        reservoir size of the model-fit pass).
    """

    def __init__(self, *, config: NumarckConfig | None = None,
                 chunk_size: int = 1 << 20,
                 sample_size: int = 200_000) -> None:
        self.config = config if config is not None else NumarckConfig()
        self._chunked = _ChunkedEncoder(self.config, chunk_size, sample_size)
        self._adaptive = (AdaptiveEncoder(self.config)
                          if self.config.adaptive else None)

    # -- one-shot pairs ----------------------------------------------------

    def compress(self, prev: np.ndarray, curr: np.ndarray) -> EncodedIteration:
        """Encode ``curr`` against reference ``prev``.

        Adaptive codecs validate/reuse their cached bin model here; the
        decision is recorded on the result's ``model_reused`` flag.
        """
        with get_telemetry().span("codec.compress",
                                  strategy=self.config.strategy,
                                  adaptive=self._adaptive is not None):
            if self._adaptive is not None:
                return self._adaptive.encode(prev, curr)
            enc, _ = encode_pair(prev, curr, self.config)
            return enc

    def decompress(self, prev: np.ndarray,
                   encoded: EncodedIteration) -> np.ndarray:
        """Decode an iteration against the same reference it was encoded
        with."""
        with get_telemetry().span("codec.decompress"):
            return decode_iteration(prev, encoded)

    def stats(self, prev: np.ndarray, curr: np.ndarray,
              encoded: EncodedIteration | None = None) -> CompressionStats:
        """Compression statistics for a pair (encodes if not already done)."""
        enc = encoded if encoded is not None else self.compress(prev, curr)
        return iteration_stats(prev, curr, enc)

    def roundtrip(self, prev: np.ndarray, curr: np.ndarray,
                  ) -> tuple[np.ndarray, EncodedIteration, CompressionStats]:
        """Encode, decode and summarise one pair in one call."""
        enc = self.compress(prev, curr)
        out = self.decompress(prev, enc)
        return out, enc, iteration_stats(prev, curr, enc)

    # -- multi-iteration chains -------------------------------------------

    def compress_chain(self,
                       iterations: Iterable[np.ndarray]) -> CheckpointChain:
        """Build a :class:`~repro.core.checkpoint.CheckpointChain` from an
        iterable of states (first item becomes the full checkpoint).

        With ``adaptive=True`` the chain shares one cached bin model
        across its deltas, so stationary runs skip the fit stage on every
        iteration after the first.
        """
        it = iter(iterations)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("compress_chain needs at least one iteration") \
                from None
        chain = CheckpointChain(first, self.config)
        for state in it:
            chain.append(state)
        return chain

    # -- chunked streams ---------------------------------------------------

    def compress_stream(self, prev_stream_factory,
                        curr_stream_factory) -> StreamedIteration:
        """Two-pass chunked encode from replayable chunk streams (see
        :mod:`repro.core.streaming`)."""
        return self._chunked.encode(prev_stream_factory, curr_stream_factory)

    def compress_stream_arrays(self, prev: np.ndarray,
                               curr: np.ndarray) -> StreamedIteration:
        """Chunked encode of in-memory arrays (O(chunk_size) peak memory
        in the encoder itself)."""
        return self._chunked.encode_arrays(prev, curr)

    def decompress_stream(self, prev_chunks: Iterator[np.ndarray],
                          streamed: StreamedIteration) -> Iterator[np.ndarray]:
        """Decode a streamed iteration chunk by chunk."""
        return decode_stream(prev_chunks, streamed)

    # -- adaptive state ----------------------------------------------------

    @property
    def reuse_stats(self) -> ReuseStats | None:
        """Model-reuse counters (``None`` unless ``adaptive=True``)."""
        return self._adaptive.stats if self._adaptive is not None else None

    def reset(self) -> None:
        """Drop any cached bin model; the next compress fits from cold."""
        if self._adaptive is not None:
            self._adaptive.reset()
