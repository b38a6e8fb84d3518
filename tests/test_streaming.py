"""Streaming (chunked two-pass) encoder tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    FormatError,
    NumarckConfig,
    decode_iteration,
    decode_stream,
    encode_pair,
)
from repro.core.streaming import _ChunkedEncoder


def _chunks(arr, n):
    return lambda: iter(np.array_split(arr, n))


def _concatenated(streamed):
    """The stream's chunks joined into one flat encoded iteration."""
    chunks = streamed.chunks
    return replace(
        chunks[0], shape=(streamed.n_points,),
        indices=np.concatenate([c.indices for c in chunks]),
        incompressible=np.concatenate([c.incompressible for c in chunks]),
        exact_values=np.concatenate([c.exact_values for c in chunks]))


class TestStreamingEncode:
    def test_roundtrip_within_bound(self, smooth_pair):
        prev, curr = smooth_pair
        cfg = NumarckConfig(error_bound=1e-3, nbits=8)
        enc = _ChunkedEncoder(cfg, chunk_size=1000)
        streamed = enc.encode_arrays(prev, curr)
        out = np.concatenate(list(decode_stream(
            iter(np.array_split(prev, len(streamed.chunks))), streamed)))
        rel = np.abs(out / curr - 1)
        rel[np.concatenate([c.incompressible for c in streamed.chunks])] = 0
        assert rel.max() < 1.2e-3

    def test_matches_one_shot_guarantee(self, hard_pair):
        """Streamed encoding honours the same per-point invariant."""
        prev, curr = hard_pair
        cfg = NumarckConfig(error_bound=1e-3, nbits=8, strategy="clustering")
        streamed = _ChunkedEncoder(cfg, chunk_size=500).encode_arrays(prev, curr)
        enc = _concatenated(streamed)
        out = decode_iteration(prev.ravel(), enc)
        exact = enc.incompressible
        np.testing.assert_array_equal(out[exact], curr.ravel()[exact])
        nz = (prev.ravel() != 0) & ~exact & np.isfinite(prev.ravel())
        ratio_err = np.abs((out[nz] - curr.ravel()[nz]) / prev.ravel()[nz])
        assert ratio_err.max() < 1e-3

    def test_gamma_close_to_one_shot(self, smooth_pair):
        """Sampled model fitting should cost at most a little extra gamma."""
        prev, curr = smooth_pair
        cfg = NumarckConfig(error_bound=1e-3, nbits=8)
        one_shot = encode_pair(prev, curr, cfg)[0]
        streamed = _ChunkedEncoder(cfg, chunk_size=777,
                                    sample_size=2000).encode_arrays(prev, curr)
        gamma_stream = sum(c.exact_values.size for c in streamed.chunks) / prev.size
        assert gamma_stream <= one_shot.incompressible_ratio + 0.05

    def test_chunk_starts_contiguous(self, smooth_pair):
        prev, curr = smooth_pair
        streamed = _ChunkedEncoder(NumarckConfig(),
                                    chunk_size=999).encode_arrays(prev, curr)
        sizes = [c.n_points for c in streamed.chunks]
        assert sizes == [c.size for c in np.array_split(prev, len(sizes))]
        assert sum(sizes) == streamed.n_points == prev.size

    def test_unchanged_stream_no_model(self, rng):
        prev = rng.uniform(1, 2, 3000)
        streamed = _ChunkedEncoder(NumarckConfig(),
                                    chunk_size=1000).encode_arrays(prev, prev)
        assert streamed.representatives.size == 0
        out = np.concatenate(list(decode_stream(
            iter(np.array_split(prev, 3)), streamed)))
        np.testing.assert_array_equal(out, prev)

    def test_zero_and_nan_handling(self):
        prev = np.array([0.0, 0.0, 1.0, 1.0] * 100)
        curr = np.array([0.0, 2.0, np.nan, 1.001] * 100)
        cfg = NumarckConfig(error_bound=1e-2)
        streamed = _ChunkedEncoder(cfg, chunk_size=64).encode_arrays(prev, curr)
        out = np.concatenate(list(decode_stream(
            iter(np.array_split(prev, len(streamed.chunks))), streamed)))
        np.testing.assert_array_equal(np.isnan(out), np.isnan(curr))
        assert np.array_equal(out[~np.isnan(out)], curr[~np.isnan(curr)],
                              equal_nan=False) or np.max(
            np.abs(out[3::4] - curr[3::4])) < 2e-2

    def test_mismatched_streams_rejected(self, rng):
        enc = _ChunkedEncoder(NumarckConfig(), chunk_size=100)
        prev = rng.uniform(1, 2, 200)
        curr = rng.uniform(1, 2, 300)
        with pytest.raises(FormatError):
            enc.encode_arrays(prev, curr)

    def test_stream_change_between_passes_detected(self, rng):
        """If the replayed stream differs in length, encoding must fail."""
        enc = _ChunkedEncoder(NumarckConfig(), chunk_size=100)
        prev = rng.uniform(1, 2, 400)
        curr = prev * 1.01
        calls = {"n": 0}

        def flaky_prev():
            calls["n"] += 1
            n_chunks = 4 if calls["n"] == 1 else 3
            return iter(np.array_split(prev[: n_chunks * 100], n_chunks))

        with pytest.raises(FormatError, match="changed between passes"):
            enc.encode(flaky_prev, lambda: iter(np.array_split(curr, 4)))

    def test_decode_wrong_chunking_rejected(self, smooth_pair):
        prev, curr = smooth_pair
        streamed = _ChunkedEncoder(NumarckConfig(),
                                    chunk_size=1000).encode_arrays(prev, curr)
        with pytest.raises(FormatError, match="reference has"):
            list(decode_stream(iter([prev]), streamed))

    def test_validation(self):
        with pytest.raises(ValueError):
            _ChunkedEncoder(chunk_size=0)
        with pytest.raises(ValueError):
            _ChunkedEncoder(sample_size=4)

    def test_single_chunk_equals_whole(self, smooth_pair):
        prev, curr = smooth_pair
        cfg = NumarckConfig(error_bound=1e-3)
        streamed = _ChunkedEncoder(cfg, chunk_size=10**9,
                                    sample_size=200_000).encode_arrays(prev, curr)
        assert len(streamed.chunks) == 1
        out = decode_iteration(prev, _concatenated(streamed))
        assert np.max(np.abs(out / curr - 1)) < 2e-3
