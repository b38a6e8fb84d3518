"""Transport-agnostic core of the compression service.

:class:`CompressionService` wires the three service pieces together --
the bounded :class:`~repro.service.jobs.JobQueue`, the per-tenant
:class:`~repro.service.chains.ChainRegistry` and the wire framing -- and
exposes plain-Python methods the HTTP layer (and tests, and embedders)
call directly.  Every failure is an exception from :mod:`repro.errors`;
nothing here knows about status codes.

Semantics of the two job kinds:

``compress``
    Body is one wire-framed array.  The first job on a chain stores it as
    the full checkpoint; later jobs append an encoded delta against the
    chain tail, reusing the chain's cached bin model when the config is
    adaptive.  The job result is a JSON summary; a download serves the
    chain's container bytes as they were written, never re-encoded.

``decompress``
    Body is container bytes (a chain download, or ``save_chain`` output).
    The job decodes each delta once; its result is a wire payload of
    *every* decoded state, full checkpoint first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.core.config import NumarckConfig
from repro.errors import ConfigError
from repro.service.chains import ChainRegistry
from repro.service.jobs import Job, JobQueue
from repro.service.wire import pack_arrays, unpack_arrays
from repro.telemetry.tracer import get_telemetry

__all__ = ["ServiceConfig", "CompressionService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (all keyword-usable, validated)."""

    workers: int = 2
    capacity: int = 32
    retry_after: float = 0.05
    store_dir: str | None = None
    #: default compression config for chains created without one.
    codec: NumarckConfig | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {self.capacity}")
        if self.retry_after <= 0:
            raise ConfigError(
                f"retry_after must be > 0, got {self.retry_after}"
            )


class CompressionService:
    """The service core: submit work, wait on jobs, read chains.

    Use as a context manager (or call :meth:`start` / :meth:`close`); job
    spans tee into the telemetry ambient where :meth:`start` is called,
    and no other thread's telemetry changes.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.queue = JobQueue(capacity=self.config.capacity,
                              workers=self.config.workers,
                              retry_after=self.config.retry_after)
        self.chains = ChainRegistry(self.config.codec,
                                    store_dir=self.config.store_dir)

    def __enter__(self) -> "CompressionService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def start(self) -> "CompressionService":
        self.queue.start()
        return self

    def close(self) -> None:
        self.queue.close()
        self.chains.close()

    # -- job submission ------------------------------------------------------

    def submit_compress(self, chain_id: str, body: bytes,
                        config: dict[str, Any] | None = None) -> Job:
        """Queue a compress job for one wire-framed state array.

        ``config`` (a :meth:`NumarckConfig.to_dict` dict) only applies when
        it creates the chain; submitting a conflicting config to an
        existing chain is a 409.
        """
        cfg = NumarckConfig.from_dict(config) if config is not None else None
        arrays = unpack_arrays(body)
        if len(arrays) != 1:
            raise ConfigError(
                f"compress body must frame exactly one array, "
                f"got {len(arrays)}"
            )
        chain = self.chains.get_or_create(chain_id, cfg)
        state = arrays[0]

        def run() -> bytes:
            with get_telemetry().span("service.job.compress",
                                      chain=chain_id):
                summary = chain.append_state(state)
            return json.dumps(summary).encode("utf-8")

        return self.queue.submit("compress", run, chain_id=chain_id)

    def submit_decompress(self, body: bytes,
                          config: dict[str, Any] | None = None) -> Job:
        """Queue a decompress job for container bytes; result is the wire
        payload of every decoded state."""
        cfg = NumarckConfig.from_dict(config) if config is not None else None
        if not body:
            raise ConfigError("decompress body is empty")

        def run() -> bytes:
            # Imported via repro.io.container lazily inside the job so a
            # corrupt body fails the *job* (observable state + mapped
            # status on result fetch), not the submit.
            from repro.io.container import chain_from_bytes

            with get_telemetry().span("service.job.decompress",
                                      bytes_in=len(body)):
                chain = chain_from_bytes(body, cfg)
                return pack_arrays(chain.iter_states())

        return self.queue.submit("decompress", run)

    # -- jobs ----------------------------------------------------------------

    def job_status(self, job_id: str, wait: float = 0.0) -> dict[str, Any]:
        """Status of a job, after blocking up to ``wait`` seconds for it
        to finish (returns at once when it already has)."""
        job = self.queue.get(job_id)
        if wait > 0:
            job.finished.wait(wait)
        return job.to_dict()

    def job_result(self, job_id: str) -> bytes:
        return self.queue.result(job_id)

    def cancel_job(self, job_id: str) -> dict[str, Any]:
        return self.queue.cancel(job_id).to_dict()

    def list_jobs(self) -> list[dict[str, Any]]:
        return [j.to_dict() for j in self.queue.jobs()]

    # -- chains --------------------------------------------------------------

    def create_chain(self, chain_id: str,
                     config: dict[str, Any] | None = None) -> dict[str, Any]:
        cfg = NumarckConfig.from_dict(config) if config is not None else None
        return self.chains.create(chain_id, cfg).stats()

    def chain_stats(self, chain_id: str) -> dict[str, Any]:
        return self.chains.get(chain_id).stats()

    def list_chains(self) -> list[dict[str, Any]]:
        return self.chains.list()

    def chain_container(self, chain_id: str) -> bytes:
        return self.chains.get(chain_id).container_bytes()

    # -- health --------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Liveness plus graceful-degradation signal.

        ``status`` is ``"ok"`` while the queue accepts work and
        ``"degraded"`` when it is saturated (clients should back off; the
        HTTP layer still answers 200 so orchestrators don't kill a busy
        server).
        """
        q = self.queue.stats()
        return {
            "status": "ok" if q["accepting"] else "degraded",
            "queue": q,
            "chains": len(self.chains),
            "store_dir": self.config.store_dir,
        }
