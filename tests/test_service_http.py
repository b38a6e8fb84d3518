"""Live-server tests for the compression service HTTP surface.

Every test boots a real ``ServiceServer`` on an ephemeral port and talks
to it with ``ServiceClient`` over actual sockets -- concurrency, chunked
transfer and error mapping are exercised end to end.
"""

import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import Codec, NumarckConfig
from repro.errors import (
    ChainNotFoundError,
    ConfigError,
    FormatError,
    JobCancelledError,
    JobNotFoundError,
    NumarckError,
    QueueFullError,
    StateError,
)
from repro.io import chain_to_bytes, load_chain
from repro.service import ServiceClient, ServiceConfig, ServiceServer
from repro.service.wire import pack_arrays
from repro.telemetry import JsonlSink, Telemetry, read_spans, use

CFG = {"error_bound": 1e-3, "nbits": 8, "strategy": "equal_width"}


def make_states(seed, n=2000, iterations=3):
    rng = np.random.default_rng(seed)
    states = [rng.uniform(1.0, 2.0, n)]
    for _ in range(iterations):
        states.append(states[-1] * (1.0 + rng.normal(0.0, 2e-3, n)))
    return states


@pytest.fixture
def server():
    with ServiceServer(ServiceConfig(workers=3, capacity=16)) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(port=server.port)


class TestRoundTrip:
    def test_compress_download_decompress(self, client):
        states = make_states(0)
        for i, state in enumerate(states):
            status = client.compress("run-a", state, CFG if i == 0 else None)
            assert status["state"] == "done"
            assert status["progress"]["spans"] > 0
        blob = client.download_chain("run-a")
        decoded = client.decompress(blob, CFG)
        assert len(decoded) == len(states)
        np.testing.assert_array_equal(decoded[0], states[0])
        codec = Codec(config=NumarckConfig.from_dict(CFG))
        for got, want in zip(decoded, codec.compress_chain(states).iter_states()):
            np.testing.assert_array_equal(got, want)

    def test_container_byte_identical_to_direct_codec(self, client):
        states = make_states(1)
        for i, state in enumerate(states):
            client.compress("run-b", state, CFG if i == 0 else None)
        blob = client.download_chain("run-b")
        direct = chain_to_bytes(
            Codec(config=NumarckConfig.from_dict(CFG)).compress_chain(states))
        assert blob == direct

    def test_eight_concurrent_clients(self, server):
        """The headline acceptance: 8 clients, each its own chain, full
        round trips, every container byte-identical to a direct Codec."""
        n_clients = 8
        states_per_client = [make_states(100 + i, n=1500, iterations=3)
                             for i in range(n_clients)]
        results: dict[int, bytes] = {}
        errors: list[BaseException] = []

        def worker(idx):
            try:
                cl = ServiceClient(port=server.port)
                chain_id = f"tenant-{idx}"
                for j, state in enumerate(states_per_client[idx]):
                    cl.compress(chain_id, state,
                                CFG if j == 0 else None,
                                retries=50)
                blob = cl.download_chain(chain_id)
                decoded = cl.decompress(blob, CFG)
                for got, want in zip(
                        decoded,
                        Codec(config=NumarckConfig.from_dict(CFG))
                        .compress_chain(states_per_client[idx]).iter_states()):
                    np.testing.assert_array_equal(got, want)
                results[idx] = blob
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert len(results) == n_clients
        for idx, blob in results.items():
            direct = chain_to_bytes(
                Codec(config=NumarckConfig.from_dict(CFG))
                .compress_chain(states_per_client[idx]))
            assert blob == direct, f"client {idx} container diverged"

    def test_adaptive_model_reuse_across_jobs(self, client):
        cfg = dict(CFG, strategy="clustering", adaptive=True)
        states = make_states(2, iterations=4)
        for i, state in enumerate(states):
            status = client.compress("adapt", state, cfg if i == 0 else None)
            assert status["state"] == "done"
        stats = client.chain_stats("adapt")
        assert stats["iterations"] == len(states)
        reuse = stats["model_reuse"]
        assert reuse["encodes"] == len(states) - 1
        assert reuse["reuse_hits"] >= 1  # the hint carried across jobs


class TestBackpressure:
    def test_429_then_drain(self, server, client):
        q = server.service.queue
        q.pause()
        states = make_states(3, n=500, iterations=0)
        accepted = []
        for i in range(16):
            accepted.append(client.submit_compress(f"bp-{i}", states[0], CFG))
        with pytest.raises(QueueFullError) as exc_info:
            client.submit_compress("bp-overflow", states[0], CFG)
        assert exc_info.value.retry_after > 0
        assert client.health()["status"] == "degraded"
        q.resume()
        # Every accepted job completes: 429 never drops accepted work.
        for job in accepted:
            status = client.wait(job["id"], timeout=60)
            assert status["state"] == "done"
        assert client.health()["status"] == "ok"

    def test_client_retries_on_429(self, server, client):
        q = server.service.queue
        q.pause()
        state = make_states(4, n=300, iterations=0)[0]
        for i in range(16):
            client.submit_compress(f"rt-{i}", state, CFG)

        def unblock():
            q.resume()

        timer = threading.Timer(0.1, unblock)
        timer.start()
        try:
            status = client.compress("rt-late", state, CFG,
                                     retries=200, timeout=60)
            assert status["state"] == "done"
        finally:
            timer.cancel()
            q.resume()


class TestJobControl:
    def test_cancel_queued_job(self, server, client):
        server.service.queue.pause()
        state = make_states(5, n=300, iterations=0)[0]
        job = client.submit_compress("cancel-me", state, CFG)
        status = client.cancel(job["id"])
        assert status["state"] == "cancelled"
        with pytest.raises(JobCancelledError):
            client.result(job["id"])
        server.service.queue.resume()

    def test_cancel_finished_is_conflict(self, client):
        state = make_states(6, n=300, iterations=0)[0]
        job = client.submit_compress("c2", state, CFG)
        client.wait(job["id"], timeout=30)
        with pytest.raises(StateError):
            client.cancel(job["id"])

    def test_failed_job_error_surfaces(self, client):
        # A corrupt container fails the *job*; fetching the result
        # re-raises the mapped error.
        job = client.submit_decompress(b"not a container at all")
        status = client.wait(job["id"], timeout=30)
        assert status["state"] == "failed"
        assert status["error"]["type"] == "FormatError"
        with pytest.raises(FormatError):
            client.result(job["id"])

    def test_job_listing(self, client):
        state = make_states(7, n=300, iterations=0)[0]
        job = client.submit_compress("list-me", state, CFG)
        client.wait(job["id"], timeout=30)
        assert any(j["id"] == job["id"] for j in client.jobs())


class TestLongPoll:
    def _requests(self, monkeypatch, client):
        calls = []
        original = client._request

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(client, "_request", counting)
        return calls

    def _wait_in_thread(self, client, job_id, wait):
        out = {}

        def run():
            start = time.monotonic()
            out["status"] = client.status(job_id, wait=wait)
            out["elapsed"] = time.monotonic() - start

        thread = threading.Thread(target=run)
        thread.start()
        return thread, out

    def test_returns_when_job_finishes(self, server, client, monkeypatch):
        q = server.service.queue
        q.pause()
        try:
            state = make_states(15, n=300, iterations=0)[0]
            job = client.submit_compress("long-poll", state, CFG)
            calls = self._requests(monkeypatch, client)
            thread, out = self._wait_in_thread(client, job["id"], 5)
            time.sleep(0.2)
            assert thread.is_alive()  # held while the job is queued
        finally:
            q.resume()
        thread.join(10)
        assert not thread.is_alive()
        assert out["status"]["state"] == "done"
        assert out["elapsed"] < 2.5
        assert len(calls) == 1

    def test_cancel_wakes_waiter(self, server, client):
        q = server.service.queue
        q.pause()
        try:
            state = make_states(16, n=300, iterations=0)[0]
            job = client.submit_compress("long-poll-cancel", state, CFG)
            thread, out = self._wait_in_thread(client, job["id"], 5)
            time.sleep(0.2)
            client.cancel(job["id"])
            thread.join(10)
        finally:
            q.resume()
        assert not thread.is_alive()
        assert out["status"]["state"] == "cancelled"
        assert out["elapsed"] < 2.5

    def test_unknown_job_404_at_once(self, client):
        start = time.monotonic()
        with pytest.raises(JobNotFoundError):
            client.status("job-12345", wait=5)
        assert time.monotonic() - start < 2.5

    @pytest.mark.parametrize("value", ["soon", "", "-1", "nan", "inf",
                                       "-inf"])
    def test_bad_wait_400(self, client, value):
        state = make_states(17, n=300, iterations=0)[0]
        job = client.submit_compress("bad-wait", state, CFG)
        with pytest.raises(ConfigError):
            client._json("GET", f"/v1/jobs/{job['id']}?wait={value}")


class TestErrorMapping:
    def test_unknown_job_404(self, client):
        with pytest.raises(JobNotFoundError):
            client.status("job-12345")

    def test_unknown_chain_404(self, client):
        with pytest.raises(ChainNotFoundError):
            client.chain_stats("ghost")

    def test_bad_config_400(self, client):
        state = make_states(8, n=300, iterations=0)[0]
        with pytest.raises(ConfigError):
            client.submit_compress("bad-cfg", state,
                                   {"error_bound": 5.0})
        with pytest.raises(ConfigError):
            client.submit_compress("bad-key", state,
                                   {"no_such_knob": 1})

    def test_bad_chain_id_400(self, client):
        state = make_states(9, n=300, iterations=0)[0]
        with pytest.raises(ConfigError):
            client.submit_compress(".hidden", state, CFG)
        # A traversal-style id never reaches the registry at all: the
        # extra path segment falls off the route table.
        with pytest.raises(NumarckError):
            client.submit_compress("../escape", state, CFG)

    def test_bad_wire_body_422(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.request("POST", "/v1/chains/wire-bad/compress",
                         body=b"garbage bytes")
            resp = conn.getresponse()
            assert resp.status == 422
        finally:
            conn.close()

    def test_duplicate_chain_409(self, client):
        client.create_chain("dup", CFG)
        with pytest.raises(StateError):
            client.create_chain("dup", CFG)

    def test_conflicting_chain_config_409(self, client):
        state = make_states(10, n=300, iterations=0)[0]
        client.compress("cfg-pin", state, CFG)
        with pytest.raises(StateError):
            client.submit_compress("cfg-pin", state,
                                   dict(CFG, nbits=10))

    def test_empty_chain_download_409(self, client):
        client.create_chain("empty", CFG)
        with pytest.raises(StateError):
            client.download_chain("empty")

    def test_unknown_route_404(self, client):
        with pytest.raises(NumarckError):
            client._json("GET", "/v1/nope")

    def test_reset_after_error_reply_prints_no_traceback(self, server,
                                                         capfd):
        # A client reads an error reply on a keep-alive connection, then
        # resets the connection: the request thread, back in
        # ``rfile.readline`` for the next request, must end quietly.
        import http.client

        before = set(threading.enumerate())
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        conn.request("GET", "/v1/nope")
        resp = conn.getresponse()
        assert resp.status == 404
        resp.read()
        handlers = [t for t in set(threading.enumerate()) - before
                    if "process_request" in t.name]
        assert handlers
        # Zero linger: close() sends a reset instead of a FIN.
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                             struct.pack("ii", 1, 0))
        conn.close()
        for thread in handlers:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert "Traceback" not in capfd.readouterr().err


class TestPersistence:
    def test_chains_survive_restart(self, tmp_path):
        states = make_states(11)
        store = tmp_path / "chains"
        cfg = ServiceConfig(workers=2, capacity=8, store_dir=str(store),
                            codec=NumarckConfig.from_dict(CFG))
        with ServiceServer(cfg) as srv:
            cl = ServiceClient(port=srv.port)
            for state in states:
                cl.compress("persisted", state)
            blob = cl.download_chain("persisted")

        # The on-disk container is readable on its own ...
        chain = load_chain(store / "persisted.nmk")
        assert len(chain) == len(states)

        # ... and a fresh server recovers it.
        with ServiceServer(cfg) as srv2:
            cl2 = ServiceClient(port=srv2.port)
            stats = cl2.chain_stats("persisted")
            assert stats["iterations"] == len(states)
            assert cl2.download_chain("persisted") == blob
            decoded = cl2.decompress(blob)
            np.testing.assert_array_equal(decoded[0], states[0])

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_close_releases_chain_files(self, tmp_path):
        store = tmp_path / "chains"

        def open_in_store():
            fds = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:  # closed since the listing
                    continue
                if target.startswith(str(store)):
                    fds.append(target)
            return fds

        cfg = ServiceConfig(workers=2, capacity=8, store_dir=str(store),
                            codec=NumarckConfig.from_dict(CFG))
        srv = ServiceServer(cfg).start()
        try:
            cl = ServiceClient(port=srv.port)
            for state in make_states(14):
                cl.compress("held", state)
            # One writer held open between jobs ...
            assert open_in_store() == [str(store / "held.nmk")]
        finally:
            srv.close()
        # ... and released by close().
        assert open_in_store() == []

    def test_torn_tail_recovered(self, tmp_path):
        states = make_states(12)
        store = tmp_path / "chains"
        cfg = ServiceConfig(workers=2, capacity=8, store_dir=str(store),
                            codec=NumarckConfig.from_dict(CFG))
        with ServiceServer(cfg) as srv:
            cl = ServiceClient(port=srv.port)
            for state in states:
                cl.compress("torn", state)
        path = store / "torn.nmk"
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear mid-record
        with ServiceServer(cfg) as srv2:
            cl2 = ServiceClient(port=srv2.port)
            stats = cl2.chain_stats("torn")
            assert stats["iterations"] == len(states) - 1
            # The first append cuts the torn bytes before writing.
            cl2.compress("torn", states[-1])
        assert len(load_chain(path)) == len(states)

    @pytest.mark.parametrize("hangup", ["close", "half-close"])
    def test_disconnect_mid_chunked_upload(self, tmp_path, hangup, capfd):
        # A client sends the head of a chunked compress upload and part of
        # its one chunk, then hangs up (a half-close still reads the
        # answer).  The server keeps serving, the chain takes no state,
        # a restarted server serves exactly the acknowledged states, and
        # the server prints no traceback for the dropped client.
        states = make_states(15, iterations=3)
        store = tmp_path / "chains"
        codec = NumarckConfig.from_dict(CFG)
        cfg = ServiceConfig(workers=2, capacity=8, store_dir=str(store),
                            codec=codec)
        body = pack_arrays([states[2]])
        with ServiceServer(cfg) as srv:
            cl = ServiceClient(port=srv.port)
            for state in states[:2]:
                assert cl.compress("cut", state)["state"] == "done"
            sock = socket.create_connection(("127.0.0.1", srv.port),
                                            timeout=30)
            with sock:
                sock.sendall(b"POST /v1/chains/cut/compress HTTP/1.1\r\n"
                             b"Host: 127.0.0.1\r\n"
                             b"Content-Type: application/octet-stream\r\n"
                             b"Transfer-Encoding: chunked\r\n\r\n"
                             + f"{len(body):x}\r\n".encode("ascii")
                             + body[: len(body) // 2])
                if hangup == "half-close":
                    sock.shutdown(socket.SHUT_WR)
                    assert sock.recv(64).startswith(b"HTTP/1.1 422")
            assert cl.health()["status"] == "ok"
            assert cl.chain_stats("cut")["iterations"] == 2
            assert [j["state"] for j in cl.jobs()
                    if j.get("chain") == "cut"] == ["done", "done"]
            assert cl.compress("cut", states[2])["state"] == "done"
        with ServiceServer(cfg) as srv:
            blob = ServiceClient(port=srv.port).download_chain("cut")
        assert blob == chain_to_bytes(
            Codec(config=codec).compress_chain(states[:3]))
        assert "Traceback" not in capfd.readouterr().err


class TestTelemetry:
    def test_server_built_under_use_traces_requests_and_jobs(self, tmp_path):
        # The ``repro --trace FILE serve`` shape: spans from request
        # threads (an in-memory chain's download frames its container)
        # and from job workers both reach the scoped trace file.
        tel = Telemetry(sink=JsonlSink(tmp_path / "t.jsonl"), keep_spans=False)
        with use(tel):
            with ServiceServer(ServiceConfig(workers=1)) as srv:
                cl = ServiceClient(port=srv.port)
                for state in make_states(21, iterations=1):
                    assert cl.compress("traced", state)["state"] == "done"
                cl.download_chain("traced")
        tel.close()
        names = {s["name"] for s in read_spans(tmp_path / "t.jsonl")}
        assert {"service.job.compress", "io.chain_to_bytes"} <= names


class TestHealth:
    def test_health_shape(self, client):
        doc = client.health()
        assert doc["status"] == "ok"
        assert doc["queue"]["capacity"] == 16
        assert doc["queue"]["workers"] == 3

    def test_chain_listing(self, client):
        state = make_states(13, n=300, iterations=0)[0]
        client.compress("listed", state, CFG)
        ids = [c["id"] for c in client.chains()]
        assert "listed" in ids
