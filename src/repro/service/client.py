"""Python client for the compression service.

:class:`ServiceClient` speaks the HTTP surface of
:mod:`repro.service.http` with nothing but :mod:`http.client`.  Binary
uploads go out with ``Transfer-Encoding: chunked`` (the server decodes
them manually), and server-side failures are raised as the *same*
exception classes the server threw: the error body carries the type name,
which is resolved against :mod:`repro.errors` -- so ``except
QueueFullError`` works identically against a local ``CompressionService``
and a remote server.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any

import numpy as np

import repro.errors as _errors
from repro.errors import NumarckError, QueueFullError, StateError
from repro.service.wire import iter_frames, pack_arrays, unpack_arrays

__all__ = ["ServiceClient"]

#: error-type name -> class, for rehydrating server-side exceptions.
_BY_NAME = {
    name: obj for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, NumarckError)
}


class ServiceClient:
    """Thin blocking client; one short-lived connection per call (safe to
    share across threads)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8765, *,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport -----------------------------------------------------------

    def _request(self, method: str, path: str, body=None,
                 headers: dict[str, str] | None = None,
                 chunked: bool = False) -> tuple[int, dict[str, str], bytes]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request(method, path, body=body, headers=headers or {},
                         encode_chunked=chunked)
            resp = conn.getresponse()
            payload = resp.read()
            return resp.status, dict(resp.getheaders()), payload
        finally:
            conn.close()

    def _json(self, method: str, path: str, body=None,
              headers: dict[str, str] | None = None,
              chunked: bool = False) -> Any:
        status, hdrs, payload = self._request(method, path, body, headers,
                                              chunked)
        if status >= 400:
            self._raise(status, hdrs, payload)
        return json.loads(payload) if payload else None

    def _bytes(self, path: str) -> bytes:
        status, hdrs, payload = self._request("GET", path)
        if status >= 400:
            self._raise(status, hdrs, payload)
        return payload

    @staticmethod
    def _raise(status: int, headers: dict[str, str],
               payload: bytes) -> None:
        try:
            err = json.loads(payload)["error"]
            name, message = err["type"], err["message"]
        except (ValueError, KeyError, TypeError):
            name, message = "NumarckError", f"HTTP {status}: {payload[:200]!r}"
        cls = _BY_NAME.get(name, NumarckError)
        if cls is QueueFullError:
            retry_after = float(headers.get("Retry-After", 1.0))
            raise QueueFullError(message, retry_after=retry_after)
        try:
            exc = cls(message)
        except TypeError:
            # Classes with structured constructors (e.g. RankFailureError)
            # cannot be rebuilt from a message alone; degrade to the base.
            exc = NumarckError(message)
        raise exc

    # -- chains --------------------------------------------------------------

    def create_chain(self, chain_id: str,
                     config: dict[str, Any] | None = None) -> dict[str, Any]:
        body = json.dumps({"config": config} if config else {}).encode()
        return self._json("POST", f"/v1/chains/{chain_id}", body,
                          {"Content-Type": "application/json"})

    def chains(self) -> list[dict[str, Any]]:
        return self._json("GET", "/v1/chains")["chains"]

    def chain_stats(self, chain_id: str) -> dict[str, Any]:
        return self._json("GET", f"/v1/chains/{chain_id}")

    def download_chain(self, chain_id: str) -> bytes:
        """The chain's container bytes (feed to ``load_chain`` /
        ``chain_from_bytes`` or back into :meth:`decompress`)."""
        return self._bytes(f"/v1/chains/{chain_id}/container")

    # -- job submission ------------------------------------------------------

    def submit_compress(self, chain_id: str, state: np.ndarray,
                        config: dict[str, Any] | None = None
                        ) -> dict[str, Any]:
        """Submit one state array to a chain (chunked upload); returns the
        job-status dict (``state`` starts at ``"queued"``)."""
        headers = {"Content-Type": "application/octet-stream"}
        if config is not None:
            headers["X-Numarck-Config"] = json.dumps(config)
        payload = pack_arrays([np.asarray(state, dtype=np.float64).ravel()])
        return self._json("POST", f"/v1/chains/{chain_id}/compress",
                          iter_frames(payload), headers, chunked=True)

    def submit_decompress(self, container: bytes,
                          config: dict[str, Any] | None = None
                          ) -> dict[str, Any]:
        """Submit container bytes for decoding (chunked upload)."""
        headers = {"Content-Type": "application/octet-stream"}
        if config is not None:
            headers["X-Numarck-Config"] = json.dumps(config)
        return self._json("POST", "/v1/decompress",
                          iter_frames(container), headers, chunked=True)

    # -- job lifecycle -------------------------------------------------------

    def status(self, job_id: str, wait: float = 0.0) -> dict[str, Any]:
        """A job's status.  With ``wait`` > 0 the server holds the request
        until the job finishes or ``wait`` seconds (capped server-side)
        pass, whichever comes first."""
        query = f"?wait={wait}" if wait else ""
        return self._json("GET", f"/v1/jobs/{job_id}{query}")

    def jobs(self) -> list[dict[str, Any]]:
        return self._json("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._json("POST", f"/v1/jobs/{job_id}/cancel")

    def result(self, job_id: str) -> bytes:
        return self._bytes(f"/v1/jobs/{job_id}/result")

    def wait(self, job_id: str, timeout: float = 60.0) -> dict[str, Any]:
        """Long-poll until the job reaches a terminal state; returns its
        status.  Each request waits at most half the socket timeout, so
        the server always answers before the socket gives up.

        Raises :class:`~repro.errors.StateError` on timeout.  Does not
        raise for failed jobs -- inspect ``status["state"]`` or fetch the
        result (which re-raises the job's error).
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            status = self.status(
                job_id, wait=max(min(remaining, self.timeout / 2), 0.0))
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise StateError(f"timed out waiting for job {job_id!r}")

    # -- high-level round trips ----------------------------------------------

    def compress(self, chain_id: str, state: np.ndarray,
                 config: dict[str, Any] | None = None, *,
                 timeout: float = 60.0,
                 retries: int = 0,
                 ) -> dict[str, Any]:
        """Submit one state and wait for completion.

        ``retries`` > 0 backs off on 429 using the server's
        ``Retry-After`` hint, then re-raises the final
        :class:`~repro.errors.QueueFullError`.
        """
        attempt = 0
        while True:
            try:
                job = self.submit_compress(chain_id, state, config)
                break
            except QueueFullError as exc:
                if attempt >= retries:
                    raise
                attempt += 1
                time.sleep(exc.retry_after)
        status = self.wait(job["id"], timeout)
        if status["state"] != "done":
            self.result(job["id"])  # re-raises the mapped job error
        return status

    def decompress(self, container: bytes,
                   config: dict[str, Any] | None = None, *,
                   timeout: float = 60.0) -> list[np.ndarray]:
        """Decode container bytes into every stored state, full first."""
        job = self.submit_decompress(container, config)
        status = self.wait(job["id"], timeout)
        if status["state"] != "done":
            self.result(job["id"])  # re-raises the mapped job error
        return unpack_arrays(self.result(job["id"]))

    # -- health --------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._json("GET", "/healthz")
