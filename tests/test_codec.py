"""Codec facade tests."""

import numpy as np
import pytest

from repro import Codec
from repro.core import NumarckConfig


@pytest.fixture
def pair(rng):
    prev = rng.uniform(1.0, 2.0, size=4000)
    curr = prev * (1.0 + rng.normal(0.0, 0.003, size=4000))
    return prev, curr


class TestCodecFacade:
    def test_compress_chain(self, pair):
        prev, curr = pair
        chain = Codec(config=NumarckConfig(error_bound=1e-3)).compress_chain(
            [prev, curr])
        assert len(chain) == 2
        np.testing.assert_allclose(chain.reconstruct(1), curr,
                                   rtol=3e-3, atol=0)

    def test_compress_chain_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            Codec().compress_chain([])

    def test_reuse_stats_none_without_adaptive(self, pair):
        codec = Codec(config=NumarckConfig())
        codec.compress(*pair)
        assert codec.reuse_stats is None
        codec.reset()  # no-op without adaptive state

    def test_stream_matches_one_shot_arrays(self, pair):
        prev, curr = pair
        cfg = NumarckConfig(error_bound=1e-3)
        streamed = Codec(config=cfg, chunk_size=512).compress_stream_arrays(
            prev, curr)
        assert streamed.n_points == prev.size
        out = np.concatenate(list(Codec(config=cfg).decompress_stream(
            iter(np.array_split(prev, len(streamed.chunks))), streamed)))
        assert np.max(np.abs(out / prev - curr / prev)) < 1e-3 + 1e-12
