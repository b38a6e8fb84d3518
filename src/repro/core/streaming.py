"""Chunked (out-of-core-shaped) encoding for very large iterations.

Exascale checkpoints do not fit in one allocation.  The streaming encoder
processes an iteration pair in fixed-size chunks with the classic two-pass
structure the paper's in-situ setting implies:

* **pass 1 (model):** stream over chunks, computing change ratios and
  feeding a bounded reservoir sample of the compressible candidates (plus
  their running extremes) into the strategy fit -- O(chunk) peak memory;
* **pass 2 (encode):** stream again, assigning every point against the
  shared :class:`~repro.core.strategies.base.BinModel` through the one
  encode kernel, :func:`~repro.core.encoder.encode_block`, and keeping
  each chunk as a flat :class:`~repro.core.encoder.EncodedIteration` that
  carries the stream's table and ``value_bits``.

The per-point guarantee is identical to the one-shot encoder: assignment
and the exactness check are exhaustive; only *bin placement* is estimated
from the sample.  Since each chunk is an ordinary encoded iteration,
``decode_stream`` decodes it with :func:`~repro.core.decoder.decode_iteration`
against the matching reference chunk.  Chunks keep their dtype: when
pass 1 sees only float32 chunks, the stream records ``value_bits=32`` and
its exact values are stored as float32.

The public entry point is :meth:`repro.Codec.compress_stream`:

>>> import numpy as np
>>> from repro import Codec
>>> codec = Codec(chunk_size=1000)
>>> prev = np.linspace(1, 2, 5000)
>>> curr = prev * 1.002
>>> streamed = codec.compress_stream(
...     lambda: iter(np.array_split(prev, 5)),
...     lambda: iter(np.array_split(curr, 5)),
... )
>>> out = np.concatenate(list(codec.decompress_stream(
...     iter(np.array_split(prev, 5)), streamed)))
>>> bool(np.max(np.abs(out / curr - 1)) < 2e-3)
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from repro.core.change import change_ratios
from repro.core.config import NumarckConfig
from repro.core.decoder import decode_iteration
from repro.core.encoder import (EncodedIteration, _fit_model, candidate_index,
                                encode_block)
from repro.core.strategies.base import BinModel
from repro.errors import FormatError

__all__ = ["StreamedIteration", "decode_stream"]


@dataclass(frozen=True)
class StreamedIteration:
    """A streamed encoding: the shared model plus one flat
    :class:`~repro.core.encoder.EncodedIteration` per chunk, in stream
    order, each carrying this table and ``value_bits``."""

    n_points: int
    nbits: int
    error_bound: float
    strategy: str
    zero_reserved: bool
    representatives: np.ndarray
    chunks: tuple[EncodedIteration, ...]
    #: 32 when every source chunk was float32 (exact values stored as f4).
    value_bits: int = 64


class _ChunkedEncoder:
    """Two-pass chunked encoder (implementation behind
    :meth:`repro.Codec.compress_stream`).

    Parameters
    ----------
    config:
        Compression parameters (as for the one-shot encoder).
    chunk_size:
        Points per chunk; peak memory is O(chunk_size).
    sample_size:
        Reservoir size for the model-fit pass.
    """

    def __init__(self, config: NumarckConfig | None = None,
                 chunk_size: int = 1 << 20, sample_size: int = 200_000) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if sample_size < 16:
            raise ValueError(f"sample_size must be >= 16, got {sample_size}")
        self.config = config if config is not None else NumarckConfig()
        self.chunk_size = chunk_size
        self.sample_size = sample_size

    # -- pass 1 -------------------------------------------------------------

    def _fit_from_stream(self, prev_chunks: Iterable[np.ndarray],
                         curr_chunks: Iterable[np.ndarray]
                         ) -> tuple[BinModel | None, int, int]:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        reservoir = np.empty(self.sample_size, dtype=np.float64)
        filled = 0
        seen = 0
        lo, hi = np.inf, -np.inf
        n_points = 0
        widths: set[int] = set()
        for prev, curr in zip(prev_chunks, curr_chunks):
            prev = np.asarray(prev).ravel()
            curr = np.asarray(curr).ravel()
            if prev.shape != curr.shape:
                raise FormatError("chunk shape mismatch between streams")
            n_points += prev.size
            widths.add(32 if curr.dtype == np.float32 else 64)
            field = change_ratios(prev, curr)
            r = field.ratios
            cand = r[candidate_index(r, field.forced_exact, cfg)]
            if cand.size == 0:
                continue
            lo = min(lo, float(cand.min()))
            hi = max(hi, float(cand.max()))
            # Vectorised approximate reservoir sampling: fill first, then
            # accept later candidates with the algorithm-R probability
            # (batched per chunk -- unbiased enough for model fitting).
            if filled < self.sample_size:
                take = min(self.sample_size - filled, cand.size)
                reservoir[filled : filled + take] = cand[:take]
                filled += take
                rest = cand[take:]
            else:
                rest = cand
            if rest.size:
                # Each remaining candidate replaces a random slot with
                # probability sample_size / (seen so far + position).
                positions = seen + np.arange(rest.size) + 1
                probs = self.sample_size / np.maximum(positions, self.sample_size)
                accept = rng.random(rest.size) < probs
                slots = rng.integers(0, self.sample_size, int(accept.sum()))
                reservoir[slots] = rest[accept]
            seen += cand.size
        value_bits = 32 if widths == {32} else 64
        if seen == 0:
            return None, n_points, value_bits
        sample = reservoir[:filled] if filled < self.sample_size else reservoir
        # Pin the extremes so the model spans the full candidate range.
        sample = np.concatenate([sample, [lo, hi]])
        return _fit_model(sample, cfg), n_points, value_bits

    # -- pass 2 -------------------------------------------------------------

    def _encode_chunk(self, start: int, prev: np.ndarray, curr: np.ndarray,
                      model: BinModel | None, value_bits: int
                      ) -> EncodedIteration:
        curr = np.asarray(curr).ravel()
        field = change_ratios(np.asarray(prev).ravel(), curr)
        block = encode_block(field.ratios, field.forced_exact, curr, model,
                             self.config)
        if block.value_bits > value_bits:
            raise FormatError(
                f"streams changed between passes: chunk at {start} is "
                f"{curr.dtype}, pass 1 saw only float32"
            )
        return replace(block.as_iteration(curr.shape, self.config),
                       value_bits=value_bits)

    def encode(self, prev_stream_factory, curr_stream_factory) -> StreamedIteration:
        """Encode from two replayable chunk streams.

        Both arguments are zero-argument callables returning a fresh
        iterator of chunks (the streams are consumed twice: model pass and
        encode pass).  Corresponding chunks must have equal sizes.
        """
        cfg = self.config
        model, n_points, value_bits = self._fit_from_stream(
            prev_stream_factory(), curr_stream_factory())
        chunks: list[EncodedIteration] = []
        start = 0
        for prev, curr in zip(prev_stream_factory(), curr_stream_factory()):
            chunk = self._encode_chunk(start, prev, curr, model, value_bits)
            chunks.append(chunk)
            start += chunk.n_points
        if start != n_points:
            raise FormatError(
                f"streams changed between passes: pass 1 saw {n_points} points, "
                f"pass 2 saw {start}"
            )
        reps = model.representatives if model is not None else np.empty(0)
        return StreamedIteration(
            n_points=n_points,
            nbits=cfg.nbits,
            error_bound=cfg.error_bound,
            strategy=cfg.strategy,
            zero_reserved=cfg.reserve_zero_bin,
            representatives=reps,
            chunks=tuple(chunks),
            value_bits=value_bits,
        )

    def encode_arrays(self, prev: np.ndarray, curr: np.ndarray) -> StreamedIteration:
        """Convenience: encode in-memory arrays through the chunked path."""
        p = np.asarray(prev).ravel()
        c = np.asarray(curr).ravel()
        if p.shape != c.shape:
            raise FormatError(f"shape mismatch: {p.shape} vs {c.shape}")
        nsplit = max(1, -(-p.size // self.chunk_size))

        def chunks(arr):
            return lambda: iter(np.array_split(arr, nsplit))

        return self.encode(chunks(p), chunks(c))


def decode_stream(prev_chunks: Iterator[np.ndarray],
                  streamed: StreamedIteration) -> Iterator[np.ndarray]:
    """Decode chunk by chunk against the reference stream.

    Yields one decoded array per stored chunk; chunk boundaries must match
    the encode pass (they do when the same chunking is replayed).
    """
    for i, (chunk, prev) in enumerate(zip(streamed.chunks, prev_chunks)):
        prev = np.asarray(prev).ravel()
        if prev.size != chunk.n_points:
            raise FormatError(
                f"chunk {i}: reference has {prev.size} points, "
                f"record has {chunk.n_points}"
            )
        yield decode_iteration(prev, chunk)
