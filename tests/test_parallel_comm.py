"""Communicator protocol and SPMD harness tests."""

import numpy as np
import pytest

from repro.parallel import SerialComm, run_spmd


class TestSerialComm:
    def test_identity_collectives(self):
        comm = SerialComm()
        assert comm.rank == 0 and comm.size == 1
        assert comm.bcast(42) == 42
        assert comm.allreduce(7) == 7
        assert comm.allreduce(7, op=max) == 7
        assert comm.gather("x") == ["x"]
        assert comm.lost_ranks == ()

    def test_point_to_point_guarded(self):
        comm = SerialComm()
        with pytest.raises(RuntimeError):
            comm.send(1, 0)
        with pytest.raises(RuntimeError):
            comm.recv(0)


def _collectives_worker(comm, payload):
    out = {}
    out["bcast"] = comm.bcast(payload if comm.rank == 0 else None)
    out["gather"] = comm.gather(comm.rank)
    out["allreduce"] = comm.allreduce(comm.rank + 1)
    out["max"] = comm.allreduce(comm.rank, op=max)
    out["concat"] = comm.allreduce([comm.rank])  # ascending rank order
    out["lost"] = comm.lost_ranks
    return out


class TestSPMDCollectives:
    @pytest.mark.parametrize("nprocs", [2, 3, 4])
    def test_all_collectives(self, nprocs):
        results = run_spmd(_collectives_worker, nprocs, {"k": 1})
        total = nprocs * (nprocs + 1) // 2
        for out in results:
            assert out["bcast"] == {"k": 1}
            assert out["allreduce"] == total
            assert out["max"] == nprocs - 1
            assert out["concat"] == list(range(nprocs))
            assert out["lost"] == ()
        assert results[0]["gather"] == list(range(nprocs))
        for out in results[1:]:
            assert out["gather"] is None


def _numpy_worker(comm):
    local = np.full(5, float(comm.rank))
    return comm.allreduce(local)


def _failing_worker(comm):
    if comm.rank == 1:
        raise RuntimeError("boom on rank 1")
    return comm.rank


class TestSPMDHarness:
    def test_numpy_payloads(self):
        results = run_spmd(_numpy_worker, 3)
        for r in results:
            np.testing.assert_array_equal(r, np.full(5, 3.0))

    def test_single_proc_shortcircuit(self):
        assert run_spmd(lambda comm: comm.size, 1) == [1]

    def test_errors_are_relayed(self):
        with pytest.raises(RuntimeError, match="rank 1: RuntimeError: boom"):
            run_spmd(_failing_worker, 2)

    def test_bad_nprocs(self):
        with pytest.raises(ValueError):
            run_spmd(lambda comm: None, 0)


class TestOutOfBandSerialization:
    """pickle protocol-5 framing used by PipeComm array sends."""

    def _roundtrip(self, obj):
        from repro.parallel.comm import _dumps, _loads

        return _loads(_dumps(obj))

    def test_plain_objects_skip_oob_framing(self):
        from repro.parallel.comm import _OOB_MAGIC, _dumps

        payload = _dumps({"a": 1, "b": [2, 3]})
        assert payload[0] != _OOB_MAGIC  # plain pickle, no extra header

    def test_arrays_use_oob_framing(self):
        from repro.parallel.comm import _OOB_MAGIC, _dumps

        assert _dumps(np.arange(64.0))[0] == _OOB_MAGIC

    def test_array_roundtrip_bitexact(self):
        arr = np.linspace(-1.0, 1.0, 4096).reshape(64, 64)
        out = self._roundtrip(arr)
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == arr.dtype and out.shape == arr.shape

    def test_decoded_arrays_are_writable(self):
        out = self._roundtrip(np.zeros(16))
        out[0] = 1.0  # views into the receive buffer must stay mutable
        assert out[0] == 1.0

    def test_mixed_payload_roundtrip(self):
        obj = {"meta": "x", "a": np.arange(10, dtype=np.int32),
               "b": np.full((3, 3), 2.5), "n": 7}
        out = self._roundtrip(obj)
        assert out["meta"] == "x" and out["n"] == 7
        np.testing.assert_array_equal(out["a"], obj["a"])
        np.testing.assert_array_equal(out["b"], obj["b"])

    def test_noncontiguous_array_roundtrip(self):
        arr = np.arange(100.0).reshape(10, 10)[::2, ::3]
        np.testing.assert_array_equal(self._roundtrip(arr), arr)

    def test_legacy_plain_pickle_still_decodes(self):
        import pickle

        from repro.parallel.comm import _loads

        obj = {"x": np.arange(5)}
        out = _loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        np.testing.assert_array_equal(out["x"], obj["x"])

    def test_pipecomm_array_send(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(np.arange(1000.0), dest=1)
                return None
            arr = comm.recv(source=0)
            arr += 1.0  # received arrays must be writable
            return float(arr.sum())

        results = run_spmd(worker, 2)
        assert results[1] == pytest.approx(sum(range(1000)) + 1000)
