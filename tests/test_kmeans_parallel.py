"""Distributed k-means: serial equivalence, SPMD execution, degraded mode."""

import numpy as np
import pytest

from repro.kmeans import histogram_init, kmeans1d, parallel_kmeans1d
from repro.parallel import (
    RankFaultInjector,
    SerialComm,
    block_partition,
    run_spmd,
)


class TestSerialEquivalence:
    def test_identical_to_kmeans1d(self, rng):
        data = rng.normal(size=1000)
        init = histogram_init(data, 12)
        serial = kmeans1d(data, init, max_iter=30)
        para = parallel_kmeans1d(SerialComm(), data, init, max_iter=30)
        np.testing.assert_array_equal(serial.centroids, para.centroids)
        np.testing.assert_array_equal(serial.labels, para.labels)
        assert serial.inertia == pytest.approx(para.inertia)
        assert serial.n_iter == para.n_iter

    def test_none_comm_means_serial(self, rng):
        data = rng.normal(size=200)
        init = histogram_init(data, 4)
        a = parallel_kmeans1d(None, data, init)
        b = parallel_kmeans1d(SerialComm(), data, init)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_empty_global_raises(self):
        with pytest.raises(ValueError, match="empty"):
            parallel_kmeans1d(SerialComm(), np.array([]), np.array([0.0]))

    def test_no_centroids_raises(self, rng):
        with pytest.raises(ValueError):
            parallel_kmeans1d(SerialComm(), rng.normal(size=10), np.array([]))


def _spmd_kmeans(comm, shards, init):
    res = parallel_kmeans1d(comm, shards[comm.rank], init, max_iter=30)
    return res.centroids, res.inertia, res.n_iter


class TestSPMD:
    @pytest.mark.parametrize("nprocs", [2, 3])
    def test_matches_global_run(self, rng, nprocs):
        data = rng.normal(size=600)
        init = histogram_init(data, 8)
        shards = block_partition(data, nprocs)
        results = run_spmd(_spmd_kmeans, nprocs, shards, init)
        global_res = kmeans1d(data, init, max_iter=30)
        for cent, inertia, n_iter in results:
            np.testing.assert_allclose(cent, global_res.centroids, rtol=1e-12)
            assert inertia == pytest.approx(global_res.inertia, rel=1e-9)
            assert n_iter == global_res.n_iter

    def test_uneven_shards_with_empty_rank(self, rng):
        data = rng.normal(size=100)
        init = histogram_init(data, 4)
        shards = [data, np.array([])]  # rank 1 holds nothing
        results = run_spmd(_spmd_kmeans, 2, shards, init)
        ref = kmeans1d(data, init, max_iter=30)
        for cent, inertia, _ in results:
            np.testing.assert_allclose(cent, ref.centroids, rtol=1e-12)
            assert inertia == pytest.approx(ref.inertia, rel=1e-9)


def _degrade_kmeans(comm, shards, init):
    res = parallel_kmeans1d(comm, shards[comm.rank], init, max_iter=30)
    return comm.rank, res.centroids, res.inertia


class TestDegradedMode:
    def test_survivors_agree_after_rank_loss(self, rng):
        """Crash a rank mid-iteration: survivors converge to the k-means
        of the surviving shards, with identical centroids everywhere."""
        data = rng.normal(size=600)
        init = histogram_init(data, 8)
        shards = block_partition(data, 3)
        # The 5th allreduce lands inside the Lloyd sweep loop.
        outcomes = run_spmd(
            _degrade_kmeans, 3, shards, init, strict=False,
            comm_timeout=1.5, timeout=30.0,
            faults={1: RankFaultInjector(crash_at=(5,))})
        assert not outcomes[1].ok
        survivors = [o for o in outcomes if o.rank != 1]
        assert all(o.ok for o in survivors)
        cents = [o.value[1] for o in survivors]
        np.testing.assert_array_equal(cents[0], cents[1])
        assert survivors[0].value[2] == pytest.approx(
            survivors[1].value[2], rel=1e-9)
