"""Unified public exception hierarchy for the NUMARCK library.

Every error the library raises on purpose derives from :class:`NumarckError`,
so ``except NumarckError`` at any boundary (CLI, service, embedding
application) catches exactly the library's own failures and nothing else.
This module is the single home of the hierarchy;
:class:`RankFailureError` is also importable from ``repro.parallel.faults``,
as the same class.

Each concrete error also keeps its historical builtin base
(:class:`ConfigError` is still a :class:`ValueError`,
:class:`RankFailureError` still a :class:`RuntimeError`), so pre-hierarchy
``except`` clauses keep working unchanged.

The compression service (:mod:`repro.service`) maps this hierarchy onto
HTTP status codes through :func:`http_status` -- the mapping lives here,
next to the classes, so adding an error type and choosing its status code
is one edit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "NumarckError",
    "ConfigError",
    "FormatError",
    "SalvageError",
    "SalvageReport",
    "StateError",
    "RankFailureError",
    "ServiceError",
    "JobNotFoundError",
    "ChainNotFoundError",
    "QueueFullError",
    "JobCancelledError",
    "ServiceUnavailableError",
    "http_status",
]


class NumarckError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(NumarckError, ValueError):
    """Invalid compression configuration (bad error bound, bit width, ...)."""


class FormatError(NumarckError, ValueError):
    """Corrupt or incompatible serialized checkpoint data."""


class SalvageError(FormatError):
    """A salvage-mode read found nothing recoverable.

    Raised by ``load_chain(..., recover="tail")`` and friends when the
    file's header is invalid or no complete record survives -- there is no
    valid prefix to return.  Subclasses :class:`FormatError`, so strict
    callers keep working unchanged.
    """


class StateError(NumarckError, RuntimeError):
    """An operation was issued against an object in the wrong state
    (e.g. persisting a restart manager that never recorded a checkpoint)."""


class RankFailureError(NumarckError, RuntimeError):
    """A peer rank was lost (died, hung past the deadline, or its channel
    is irrecoverably corrupt).

    Raised on every survivor instead of deadlocking.  ``rank`` is the
    lost peer, ``phase`` the pipeline phase the detecting rank was in
    (empty when none was declared), ``reason`` the detection evidence.
    """

    def __init__(self, rank: int, reason: str, phase: str = "") -> None:
        self.rank = rank
        self.reason = reason
        self.phase = phase
        where = f" during {phase}" if phase else ""
        super().__init__(f"rank {rank} lost{where}: {reason}")


# -- service-facing errors ---------------------------------------------------


class ServiceError(NumarckError):
    """Base class for compression-service failures (:mod:`repro.service`)."""


class JobNotFoundError(ServiceError, KeyError):
    """No job with the requested id (unknown, or already evicted)."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class ChainNotFoundError(ServiceError, KeyError):
    """No checkpoint chain with the requested id."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class QueueFullError(ServiceError):
    """The job queue is at capacity; the submission was *not* accepted.

    ``retry_after`` is the server's estimate (in seconds) of when capacity
    frees up -- the HTTP layer forwards it as a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class JobCancelledError(ServiceError):
    """Raised inside a job that observed its cancellation flag, and by
    operations that require a non-cancelled job."""


class ServiceUnavailableError(ServiceError):
    """The service is shutting down or degraded and cannot accept work."""


#: hierarchy -> HTTP status, most specific class first.  The single source
#: of truth for the service's error responses: :func:`http_status` walks
#: this table with ``isinstance``, so subclasses inherit their parent's
#: status unless listed explicitly.
HTTP_STATUS: tuple[tuple[type[Exception], int], ...] = (
    (QueueFullError, 429),
    (JobNotFoundError, 404),
    (ChainNotFoundError, 404),
    (JobCancelledError, 409),
    (ServiceUnavailableError, 503),
    (ConfigError, 400),
    (FormatError, 422),        # covers SalvageError
    (StateError, 409),
    (RankFailureError, 500),
    (ServiceError, 500),
    (NumarckError, 500),
)


def http_status(exc: BaseException) -> int:
    """HTTP status code for a library error (500 for anything unmapped)."""
    for cls, status in HTTP_STATUS:
        if isinstance(exc, cls):
            return status
    return 500


@dataclass(frozen=True)
class SalvageReport:
    """Outcome of a salvage-mode read or an on-disk repair.

    A *torn tail* (the damage crash-consistent appends can leave behind)
    loses at most the record being written when the crash hit; the report
    records exactly what was kept and what was cut.  Framing is lost at the
    first bad byte, so ``records_dropped`` is 0 for a clean file and 1 when
    a damaged trailing region was discarded -- the region may have held a
    partial record or one whole corrupt record, never more that could be
    counted.
    """

    path: str
    records_kept: int
    records_dropped: int
    bytes_truncated: int
    reason: str | None = None

    @property
    def clean(self) -> bool:
        """True when the file needed no salvage at all."""
        return self.reason is None

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.clean:
            return f"{self.path}: clean ({self.records_kept} records)"
        return (f"{self.path}: kept {self.records_kept} records, dropped "
                f"{self.records_dropped} damaged trailing region "
                f"({self.bytes_truncated} bytes): {self.reason}")
