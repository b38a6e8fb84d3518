"""Outside-in span recording for the end-to-end benchmark.

The benchmark measures each repro layer from the outside: it swaps a
public function or method for a thin timing wrapper and records one span
per call.  Nothing under ``src/`` is edited, and the library's own
telemetry stays off.  Spans are kept in memory and written once, when the
process is done, as JSONL records in the :mod:`repro.telemetry` format
(``type``, ``name``, ``id``, ``parent``, ``t_start``, ``wall_s``,
``cpu_s``, ``attrs``), so ``python -m repro stats`` and
:mod:`repro.telemetry.analysis` read them unchanged.

A span's parent is the wrapped call that encloses it on the same thread;
self time is therefore "time in this layer, not in a wrapped layer below".
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["SpanRecorder"]

#: ``attrs(args, kwargs, result) -> dict`` evaluated after a successful call.
AttrsFn = Callable[[tuple, dict, Any], dict]


class SpanRecorder:
    """Wraps callables, collects their spans, and undoes every patch."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str,
             attrs: dict[str, Any] | None = None) -> Iterator[dict]:
        """Time the ``with`` body as one span.  ``attrs`` is stored by
        reference, so a caller may still add to it after the span ends."""
        stack = self._stack()
        record = {"type": "span", "name": name, "id": next(self._ids),
                  "parent": stack[-1]["id"] if stack else None,
                  "attrs": attrs if attrs is not None else {}}
        stack.append(record)
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            record["wall_s"] = time.perf_counter() - t0
            record["cpu_s"] = time.thread_time() - cpu0
            record["t_start"] = t0
            stack.pop()
            self.records.append(record)  # list.append is atomic

    def wrap(self, name: str, fn: Callable,
             attrs: AttrsFn | None = None) -> Callable:
        """``fn`` with every call recorded as a span ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                record["attrs"].update(attrs(args, kwargs, result))
            return result

        return wrapper

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap` for a generator function: each item the
        returned iterator produces is recorded as one span, so the span
        covers the work done, not the generator's creation."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                with self.span(name):
                    item = next(inner, _DONE)
                if item is _DONE:
                    return
                yield item

        return wrapper

    # -- patching ------------------------------------------------------------

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr = value`` until :meth:`uninstall`.  An inherited
        method is set on ``owner`` itself; undo then deletes it."""
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch_function(self, fn: Callable, name: str,
                       attrs: AttrsFn | None = None, *,
                       iterator: bool = False) -> None:
        """Swap ``fn`` for its wrapper in every loaded ``repro`` module that
        holds it (the defining module and each ``from ... import``)."""
        wrapper = (self.wrap_iter(name, fn) if iterator
                   else self.wrap(name, fn, attrs))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: str,
                     attrs: AttrsFn | None = None) -> None:
        """Wrap ``cls.attr`` in place; classmethods stay classmethods."""
        raw = next(k.__dict__[attr] for k in cls.__mro__ if attr in k.__dict__)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, attrs))
        else:
            wrapped = self.wrap(name, raw, attrs)
        self.replace(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def export(self, path) -> None:
        """Write the recorded spans as a JSONL trace."""
        from repro.telemetry.sink import JsonlSink

        with JsonlSink(path, append=False) as sink:
            for record in list(self.records):
                sink.write(record)


_DONE = object()
_MISSING = object()
