"""HTTP surface of the compression service (stdlib-only).

Routes (all JSON unless noted)::

    GET  /healthz                        liveness + degradation signal
    GET  /v1/jobs                        job list
    GET  /v1/jobs/<id>                   status + telemetry-fed progress
    GET  /v1/jobs/<id>?wait=S            same, once the job finishes or
                                         min(S, 30) seconds pass
    GET  /v1/jobs/<id>/result            result bytes (chunked download)
    POST /v1/jobs/<id>/cancel            cancel a queued job
    GET  /v1/chains                      chain list
    POST /v1/chains/<id>                 create chain (body: config JSON)
    GET  /v1/chains/<id>                 chain stats
    GET  /v1/chains/<id>/container       container bytes (chunked download)
    POST /v1/chains/<id>/compress        submit one state (wire array body)
    POST /v1/decompress                  submit container bytes

Uploads may use ``Transfer-Encoding: chunked`` (decoded manually -- see
:func:`repro.service.wire.read_chunked`) or a plain ``Content-Length``.
Errors are the :mod:`repro.errors` hierarchy mapped through
:func:`repro.errors.http_status`; a 429 carries ``Retry-After``.  The
server is a ``ThreadingHTTPServer``: each request runs on its own thread
while the actual compression work runs on the job queue's worker pool, so
slow encodes never block status requests.  A status request with
``?wait=S`` is a long-poll: it holds its thread on the job's ``finished``
event and answers the moment the job reaches a terminal state, so a
client learns of completion in one request instead of polling.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    ConfigError,
    NumarckError,
    QueueFullError,
    http_status,
)
from repro.service.app import CompressionService, ServiceConfig
from repro.service.wire import read_chunked
from repro.telemetry.tracer import get_telemetry, use

__all__ = ["ServiceServer", "serve"]

_MAX_BODY = 1 << 31  # sanity bound on declared Content-Length

_DOWNLOAD_CHUNK = 1 << 16

#: longest a ``?wait=`` status request holds its thread, in seconds.
_MAX_STATUS_WAIT = 30.0


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the shared :class:`CompressionService`."""

    protocol_version = "HTTP/1.1"
    server_version = "numarck-service"

    # -- plumbing ------------------------------------------------------------

    @property
    def service(self) -> CompressionService:
        return self.server.service  # type: ignore[attr-defined]

    def handle(self) -> None:
        # Requests trace through the telemetry ambient where the server
        # was built, which the job queue's workers tee into as well.
        with use(self.server.telemetry):  # type: ignore[attr-defined]
            super().handle()

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        except ConnectionError:
            # The client hung up, mid-request or while the connection sat
            # idle between two: nobody reads an answer, so write none.
            self.close_connection = True

    def log_message(self, fmt: str, *args: Any) -> None:
        # Access logging is off: the base class would write every request
        # to stderr, and requests open no telemetry span either.
        pass

    def _read_body(self) -> bytes:
        if self.headers.get("Transfer-Encoding", "").lower() == "chunked":
            return read_chunked(self.rfile)
        length = int(self.headers.get("Content-Length", 0) or 0)
        if not 0 <= length < _MAX_BODY:
            raise ConfigError(f"unreasonable Content-Length {length}")
        return self.rfile.read(length) if length else b""

    def _send_json(self, obj: Any, status: int = 200,
                   headers: dict[str, str] | None = None) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_bytes(self, data: bytes) -> None:
        """Stream a binary result with chunked transfer encoding."""
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for off in range(0, len(data), _DOWNLOAD_CHUNK):
            chunk = data[off : off + _DOWNLOAD_CHUNK]
            self.wfile.write(f"{len(chunk):x}\r\n".encode("ascii"))
            self.wfile.write(chunk)
            self.wfile.write(b"\r\n")
        self.wfile.write(b"0\r\n\r\n")

    def _send_error(self, exc: Exception) -> None:
        status = http_status(exc)
        headers: dict[str, str] = {}
        if isinstance(exc, QueueFullError):
            headers["Retry-After"] = f"{exc.retry_after:.3f}"
        self._send_json(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            status=status, headers=headers,
        )

    def _respond(self, method: str) -> None:
        try:
            handled = self._route(method)
        except NumarckError as exc:
            self._send_error(exc)
            return
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_json(
                {"error": {"type": type(exc).__name__, "message": str(exc)}},
                status=500,
            )
            return
        if not handled:
            self._send_json(
                {"error": {"type": "NotFound",
                           "message": f"no route {method} {self.path}"}},
                status=404,
            )

    # -- routing -------------------------------------------------------------

    def _route(self, method: str) -> bool:
        path = self.path.split("?", 1)[0].rstrip("/")
        parts = [p for p in path.split("/") if p]
        svc = self.service

        if method == "GET" and parts == ["healthz"]:
            self._send_json(svc.health())
            return True
        if not parts or parts[0] != "v1":
            return False
        parts = parts[1:]

        if method == "GET" and parts == ["jobs"]:
            self._send_json({"jobs": svc.list_jobs()})
            return True
        if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            self._send_json(svc.job_status(parts[1], self._status_wait()))
            return True
        if len(parts) == 3 and parts[0] == "jobs":
            if parts[2] == "result" and method == "GET":
                self._send_bytes(svc.job_result(parts[1]))
                return True
            if parts[2] == "cancel" and method == "POST":
                self._read_body()
                self._send_json(svc.cancel_job(parts[1]))
                return True
            return False

        if method == "GET" and parts == ["chains"]:
            self._send_json({"chains": svc.list_chains()})
            return True
        if len(parts) == 2 and parts[0] == "chains":
            if method == "POST":
                body = self._read_body()
                config = self._parse_config(body)
                self._send_json(svc.create_chain(parts[1], config),
                                status=201)
                return True
            if method == "GET":
                self._send_json(svc.chain_stats(parts[1]))
                return True
            return False
        if len(parts) == 3 and parts[0] == "chains":
            if parts[2] == "container" and method == "GET":
                self._send_bytes(svc.chain_container(parts[1]))
                return True
            if parts[2] == "compress" and method == "POST":
                body = self._read_body()
                job = svc.submit_compress(parts[1], body,
                                          self._header_config())
                self._send_json(job.to_dict(), status=202)
                return True
            return False

        if method == "POST" and parts == ["decompress"]:
            body = self._read_body()
            job = svc.submit_decompress(body, self._header_config())
            self._send_json(job.to_dict(), status=202)
            return True
        return False

    def _status_wait(self) -> float:
        """The ``?wait=`` long-poll time in seconds, capped; 0 if absent."""
        values = parse_qs(urlsplit(self.path).query,
                          keep_blank_values=True).get("wait")
        if values is None:
            return 0.0
        try:
            wait = float(values[-1])
        except ValueError:
            raise ConfigError(
                f"wait must be a number of seconds, got {values[-1]!r}"
            ) from None
        if not math.isfinite(wait) or wait < 0:
            raise ConfigError(f"wait must be finite and >= 0, got {wait}")
        return min(wait, _MAX_STATUS_WAIT)

    def _header_config(self) -> dict[str, Any] | None:
        """Compression config rides the ``X-Numarck-Config`` header (the
        body is the binary payload)."""
        raw = self.headers.get("X-Numarck-Config")
        if raw is None:
            return None
        return self._parse_config(raw.encode("utf-8"))

    @staticmethod
    def _parse_config(body: bytes) -> dict[str, Any] | None:
        if not body:
            return None
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config body is not valid JSON: {exc}") \
                from exc
        if parsed is None:
            return None
        if not isinstance(parsed, dict):
            raise ConfigError("config body must be a JSON object")
        # Accept both a bare config dict and {"config": {...}}.
        inner = parsed.get("config", parsed)
        if not isinstance(inner, dict):
            raise ConfigError("config must be a JSON object")
        return inner or None

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._respond("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._respond("POST")


class ServiceServer:
    """A :class:`CompressionService` bound to a listening HTTP socket.

    ``port=0`` binds an ephemeral port (the default; read :attr:`port`
    after construction).  Use as a context manager::

        with ServiceServer(ServiceConfig(workers=4)) as srv:
            client = ServiceClient(port=srv.port)
            ...
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = CompressionService(config)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._httpd.telemetry = get_telemetry()  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def start(self) -> "ServiceServer":
        self.service.start()
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="numarck-http", daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.close()

    def serve_forever(self) -> None:
        """Run in the foreground (the CLI path); Ctrl-C shuts down."""
        self.service.start()
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self._httpd.server_close()
            self.service.close()


def serve(config: ServiceConfig | None = None, *, host: str = "127.0.0.1",
          port: int = 8765) -> None:
    """Blocking entry point used by ``repro serve``."""
    server = ServiceServer(config, host=host, port=port)
    print(f"numarck service listening on http://{server.host}:{server.port}"
          f" (workers={server.service.config.workers},"
          f" capacity={server.service.config.capacity})")
    server.serve_forever()
