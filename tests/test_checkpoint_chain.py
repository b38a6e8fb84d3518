"""CheckpointChain: multi-iteration encode/replay semantics."""

import tracemalloc

import numpy as np
import pytest

from repro.core import CheckpointChain, FormatError, NumarckConfig


def _trajectory(rng, n_iter=6, n=3000, step_sigma=0.002):
    data = [rng.uniform(1.0, 2.0, n)]
    for _ in range(n_iter):
        data.append(data[-1] * (1 + rng.normal(0, step_sigma, n)))
    return data


class TestBasics:
    def test_full_checkpoint_exact(self, rng):
        data = _trajectory(rng)
        chain = CheckpointChain(data[0])
        np.testing.assert_array_equal(chain.reconstruct(0), data[0])
        np.testing.assert_array_equal(chain.full_checkpoint, data[0])

    def test_length(self, rng):
        data = _trajectory(rng, n_iter=4)
        chain = CheckpointChain(data[0])
        chain.extend(data[1:])
        assert len(chain) == 5
        assert len(chain.deltas) == 4
        assert len(chain.stats) == 4

    def test_shape_mismatch_rejected(self, rng):
        chain = CheckpointChain(rng.uniform(1, 2, 10))
        with pytest.raises(FormatError):
            chain.append(rng.uniform(1, 2, 11))

    def test_reconstruct_out_of_range(self, rng):
        chain = CheckpointChain(rng.uniform(1, 2, 10))
        with pytest.raises(IndexError):
            chain.reconstruct(1)
        with pytest.raises(IndexError):
            chain.reconstruct(-1)

    def test_iter_states_matches_reconstruct(self, rng):
        data = _trajectory(rng, n_iter=3)
        chain = CheckpointChain(data[0])
        chain.extend(data[1:])
        states = list(chain.iter_states())
        assert len(states) == 4
        for i, s in enumerate(states):
            np.testing.assert_array_equal(s, chain.reconstruct(i))

    def test_full_checkpoint_isolated_from_caller(self, rng):
        d0 = rng.uniform(1, 2, 10)
        chain = CheckpointChain(d0)
        d0[:] = 0.0
        assert chain.reconstruct(0).min() > 0.0


class TestErrorBehaviour:
    def test_single_step_bounded(self, rng):
        data = _trajectory(rng, n_iter=1)
        cfg = NumarckConfig(error_bound=1e-3)
        chain = CheckpointChain(data[0], cfg)
        chain.append(data[1])
        rel = np.abs(chain.reconstruct(1) / data[1] - 1)
        # decoded = prev*(1+r'), |r'-r|<E -> rel error <= E*prev/curr ~ E.
        assert rel.max() < 1.1 * cfg.error_bound

    def test_open_loop_error_accumulates(self, rng):
        """Paper Fig. 8: error grows with distance from the full checkpoint."""
        data = _trajectory(rng, n_iter=6)
        cfg = NumarckConfig(error_bound=1e-3, strategy="equal_width")
        chain = CheckpointChain(data[0], cfg)
        chain.extend(data[1:])
        errs = [
            float(np.mean(np.abs(chain.reconstruct(i) / data[i] - 1)))
            for i in (1, 6)
        ]
        assert errs[1] > errs[0]

    def test_closed_loop_error_bounded_at_depth(self, rng):
        """The reconstructed-reference extension stops accumulation."""
        data = _trajectory(rng, n_iter=8)
        cfg = NumarckConfig(error_bound=1e-3, reference="reconstructed")
        chain = CheckpointChain(data[0], cfg)
        chain.extend(data[1:])
        rel = np.abs(chain.reconstruct(8) / data[8] - 1)
        assert rel.max() < 1.1 * cfg.error_bound

    def test_closed_loop_beats_open_loop_at_depth(self, rng):
        data = _trajectory(rng, n_iter=8)
        open_chain = CheckpointChain(data[0], NumarckConfig(reference="original"))
        closed_chain = CheckpointChain(
            data[0], NumarckConfig(reference="reconstructed")
        )
        open_chain.extend(data[1:])
        closed_chain.extend(data[1:])
        e_open = np.max(np.abs(open_chain.reconstruct() / data[-1] - 1))
        e_closed = np.max(np.abs(closed_chain.reconstruct() / data[-1] - 1))
        assert e_closed < e_open

    def test_stats_recorded_per_delta(self, rng):
        data = _trajectory(rng, n_iter=3)
        chain = CheckpointChain(data[0], NumarckConfig(error_bound=1e-3))
        stats = chain.extend(data[1:])
        assert tuple(stats) == chain.stats
        for s in stats:
            assert s.max_error < 1e-3
            assert 0.0 <= s.incompressible_ratio <= 1.0


class TestHeldPayloads:
    def test_retains_record_bytes_not_decoded_deltas(self, rng):
        # At B = 8 a delta's record is about 1.1 B per point; held decoded
        # (uint32 indices plus a bool mask) it would be 5.
        n, k = 51_840, 5
        data = _trajectory(rng, n_iter=k + 1, n=n)
        chain = CheckpointChain(data[0], NumarckConfig(nbits=8,
                                                       adaptive=True))
        tracemalloc.start()
        try:
            # The first append builds the reference and the model; what
            # the next ``k`` add is what the chain keeps per delta.
            chain.append(data[1])
            before = tracemalloc.get_traced_memory()[0]
            chain.extend(data[2:])
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / (k * n) <= 1.5
