"""Durable write primitives: atomic replace and bounded retry.

Checkpoint files are the last line of defence against a crash, so the
writes that produce them must themselves survive a crash.  Two building
blocks implement the standard POSIX recipe:

* :func:`atomic_write` -- write into a temporary file in the *same*
  directory, flush, ``fsync``, then :func:`os.replace` over the target
  (and ``fsync`` the directory so the rename itself is durable).  A crash
  at any point leaves either the complete old file or the complete new
  file, never a torn mixture.
* :func:`retry_io` -- call an I/O action again after *transient*
  ``OSError``\\ s (``EINTR``, ``EAGAIN``, ``EIO``, ...) with bounded
  exponential backoff, while letting permanent failures (``ENOENT``,
  ``EACCES``, ``ENOSPC``, ...) surface immediately.

:meth:`~repro.io.container.CheckpointFile.save` -- behind
:func:`~repro.io.container.save_chain`,
:func:`~repro.io.container.save_chains` and
:func:`~repro.io.streamed.save_streamed` -- goes through these helpers;
append-mode persistence (:meth:`~repro.io.container.CheckpointFile.append`)
relies on per-record ``fsync`` instead, because an append never rewrites
already-durable records.
"""

from __future__ import annotations

import errno
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TypeVar

__all__ = ["atomic_write", "retry_io", "fsync_dir", "is_transient_oserror"]

T = TypeVar("T")

#: errno values treated as *permanent*: retrying cannot help, so
#: :func:`retry_io` re-raises these immediately.
_PERMANENT_ERRNOS = frozenset({
    errno.ENOENT,
    errno.EACCES,
    errno.EPERM,
    errno.EROFS,
    errno.EISDIR,
    errno.ENOTDIR,
    errno.ENOSPC,
    errno.ENAMETOOLONG,
    errno.EEXIST,
    errno.EBADF,
})


def is_transient_oserror(exc: OSError) -> bool:
    """Whether an ``OSError`` is worth retrying (see :func:`retry_io`)."""
    return exc.errno not in _PERMANENT_ERRNOS


def retry_io(fn: Callable[[], T], *,
             attempts: int = 4,
             base_delay: float = 0.01,
             max_delay: float = 0.5,
             transient: Callable[[OSError], bool] | None = None,
             sleep: Callable[[float], None] | None = None) -> T:
    """Call ``fn`` with bounded exponential backoff on transient errors.

    ``fn`` is attempted up to ``attempts`` times.  A transient ``OSError``
    (per the ``transient`` predicate, default
    :func:`is_transient_oserror`) triggers a ``sleep`` (default
    :func:`time.sleep`) of ``base_delay * 2**k`` seconds, capped at
    ``max_delay``; a permanent ``OSError`` -- or exhaustion of the attempt
    budget -- re-raises.  Non-``OSError`` exceptions propagate
    immediately.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if transient is None:
        transient = is_transient_oserror
    if sleep is None:
        sleep = time.sleep
    delay = base_delay
    for attempt in range(attempts):
        try:
            return fn()
        except OSError as exc:
            if attempt == attempts - 1 or not transient(exc):
                raise
            sleep(min(delay, max_delay))
            delay *= 2
    raise AssertionError("unreachable")  # pragma: no cover


def fsync_dir(path: str | Path) -> None:
    """``fsync`` a directory so a rename inside it is durable (POSIX only).

    Best-effort: platforms or filesystems that cannot fsync a directory
    are silently skipped -- the rename is still atomic, just not yet
    guaranteed on stable storage.
    """
    if os.name != "posix":  # pragma: no cover - POSIX-only container
        return
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - unreadable parent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on NFS dirs
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: str | Path, *, sync: bool = True) -> Iterator[BinaryIO]:
    """Context manager yielding a binary handle whose contents replace
    ``path`` atomically on success.

    The handle points at a temporary file in ``path``'s directory.  On a
    clean exit the file is flushed, ``fsync``\\ ed (when ``sync``), closed,
    and renamed over ``path`` with :func:`os.replace`; the directory is
    then fsynced so the rename survives a power loss.  On *any* exception
    the temporary file is removed and ``path`` is left untouched.
    """
    target = Path(path)
    parent = target.parent if str(target.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(dir=parent, prefix=f".{target.name}.",
                                    suffix=".tmp")
    fh = os.fdopen(fd, "wb")
    try:
        yield fh
        fh.flush()
        if sync:
            os.fsync(fh.fileno())
    except BaseException:
        fh.close()
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already gone
            pass
        raise
    fh.close()
    os.replace(tmp_name, target)
    if sync:
        fsync_dir(parent)
