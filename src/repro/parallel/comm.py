"""Communicator abstraction and fault-tolerant SPMD process harness.

Two implementations of the same protocol:

* :class:`SerialComm` -- ``size == 1``; every collective returns its
  input.  This is the default communicator for every algorithm in the
  library, so nothing here forces callers to pay process-spawn costs.
* :class:`PipeComm` -- each rank is an OS process (``multiprocessing``,
  default start method) holding one duplex
  :class:`multiprocessing.connection.Connection` to every other rank.

There is one collective family, written once on :class:`Comm` over
point-to-point ``send``/``recv``: :meth:`~Comm.gather`,
:meth:`~Comm.bcast` and :meth:`~Comm.allreduce`, the three
root-coordinated steps of an in-situ encode (gather a sample, broadcast
the bin table, allreduce the counts).  Each is rooted at rank 0 and
absorbs peer failures: rank 0 keeps going with the survivors and
piggybacks its lost-rank set on the allreduce result, so every survivor
leaves with the same view of the membership.  Loss of rank 0 itself is
always fatal (fail loudly).  The linear algorithms are plenty for the
rank counts (2--8) exercised here.

:class:`PipeComm` runs a small reliable-delivery protocol with bounded
waits everywhere:

* every payload is pickled and framed with a sequence number and CRC32;
* every DATA frame is acknowledged; the receiver NAKs corrupt frames and
  the sender resends (bounded by ``max_resends``), which also recovers
  silently dropped messages via an ack-timeout retransmit;
* transient ``OSError`` on a pipe operation is retried with exponential
  backoff, and deadline expiry raises
  :class:`~repro.parallel.faults.RankFailureError` instead of blocking
  forever;
* a peer whose connection closes (EOF -- the OS closes a dead rank's
  pipe ends, so death is usually detected instantly) has *departed*.
  That is a failure only once this rank still needs the peer: a later
  ``send`` to it, or a ``recv`` from it with no message left in the
  inbox.  A rank that finished and exited is therefore never reported
  lost.  Control frames (ACK, NAK, heartbeat) ignore a closed link, so
  they never decide a loss;
* a :class:`~repro.parallel.faults.RankFaultInjector` can be hooked into
  the frame path to inject crash / hang / drop / bit-flip / transient
  faults for chaos testing, mirroring the disk write hook.

One caveat: pipe writes larger than the kernel buffer to a peer that is
*alive but not draining* can block in the OS; the ``run_spmd`` parent
deadline is the backstop that reaps such ranks.

Payloads are arbitrary picklable objects; NumPy arrays ride through
pickle protocol 5 efficiently.
"""

from __future__ import annotations

import operator
import pickle
import struct
import time
import traceback
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce as _functools_reduce
from multiprocessing import Pipe, get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Iterator, Sequence

from repro.parallel.faults import DROP, CommEvent, RankFailureError
from repro.telemetry.tracer import get_telemetry

__all__ = ["Comm", "SerialComm", "PipeComm", "RankOutcome", "run_spmd"]


class Comm:
    """Protocol for a communicator.

    Concrete subclasses provide :attr:`rank`, :attr:`size` and point-to-point
    ``send``/``recv``; the three collectives below are written once on top
    of those, rooted at rank 0 (the recovery coordinator), and absorb the
    loss of any other rank.
    """

    rank: int
    size: int
    #: pipeline phase label, settable via :meth:`phase`; used by fault
    #: injection targeting and failure diagnostics.
    _phase: str = ""

    # -- point to point -------------------------------------------------
    def send(self, obj: Any, dest: int) -> None:
        raise NotImplementedError

    def recv(self, source: int) -> Any:
        raise NotImplementedError

    # -- phase / failure bookkeeping -------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Label subsequent operations as belonging to pipeline ``name``."""
        previous = self._phase
        self._phase = name
        try:
            yield
        finally:
            self._phase = previous

    @property
    def lost_ranks(self) -> tuple[int, ...]:
        """Ranks this communicator has detected as lost (sorted)."""
        return ()

    def note_lost(self, ranks: Sequence[int]) -> None:
        """Record peer failures learned out-of-band (e.g. from a root
        broadcast); a no-op for communicators without peers."""

    # -- collectives -----------------------------------------------------
    def gather(self, obj: Any) -> list[Any] | None:
        """Gather one object from every rank to rank 0 (``None`` elsewhere).

        Rank 0 absorbs peer failures: a lost rank contributes ``None`` and
        is recorded in :attr:`lost_ranks`.  Loss of rank 0 raises.
        """
        if self.rank != 0:
            self.send(obj, 0)
            return None
        out: list[Any] = [None] * self.size
        out[0] = obj
        for src in range(1, self.size):
            if src in self.lost_ranks:
                continue
            try:
                out[src] = self.recv(src)
            except RankFailureError:
                pass  # recorded in lost_ranks; the survivors keep going
        return out

    def bcast(self, obj: Any) -> Any:
        """Broadcast rank 0's ``obj`` to every rank; returns the object.

        Rank 0 skips ranks already known lost and absorbs fresh send
        failures.  Loss of rank 0 raises.
        """
        if self.rank != 0:
            return self.recv(0)
        for dst in range(1, self.size):
            if dst in self.lost_ranks:
                continue
            try:
                self.send(obj, dst)
            except RankFailureError:
                pass
        return obj

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = operator.add) -> Any:
        """Reduce ``obj`` over the surviving ranks and return it on every rank.

        ``op`` must be associative; application order is by ascending rank.
        The broadcast result piggybacks rank 0's lost-rank set, so all
        survivors leave the call agreeing on the membership.
        """
        gathered = self.gather(obj)
        payload = None
        if gathered is not None:
            lost = self.lost_ranks
            payload = (_functools_reduce(op, [v for r, v in enumerate(gathered)
                                              if r not in lost]), lost)
        value, lost = self.bcast(payload)
        self.note_lost(lost)
        return value


class SerialComm(Comm):
    """Single-process communicator: every collective returns its input."""

    def __init__(self) -> None:
        self.rank = 0
        self.size = 1

    def send(self, obj: Any, dest: int) -> None:  # pragma: no cover - guarded
        raise RuntimeError("SerialComm has no peers to send to")

    def recv(self, source: int) -> Any:  # pragma: no cover - guarded
        raise RuntimeError("SerialComm has no peers to receive from")


# -- framed reliable-delivery protocol over pipes ------------------------

_DATA, _ACK, _NAK, _HB = 1, 2, 3, 4
#: what a pipe operation raises once the peer has closed its end.
_CLOSED = (BrokenPipeError, ConnectionResetError, EOFError)
#: frame header: kind, sequence number, CRC32 of the payload.
_FRAME = struct.Struct("<BII")

# -- pickle protocol-5 out-of-band serialisation -------------------------
#
# Large NumPy payloads dominate the wire cost of parallel encode.  Plain
# ``pickle.dumps`` copies every array into the pickle stream; protocol 5
# with a ``buffer_callback`` instead emits the array *metadata* in the
# stream and hands the raw buffers out separately, so assembly is a
# single ``b"".join`` over the original memory (zero-copy on the send
# side).  Wire layout, distinguished from a plain pickle stream by its
# first byte (pickle streams always start with 0x80):
#
#     0x05  n_buffers:u32  head_len:u32  buf_lens:u64[n_buffers]
#     pickle_head:bytes  raw_buffer_bytes...
#
# ``_loads`` copies the buffer region into one writable ``bytearray`` and
# reconstructs arrays as views into it, so the result owns its memory
# without a second per-array copy.

_OOB_MAGIC = 0x05
_OOB_HEAD = struct.Struct("<II")


def _dumps(obj: Any) -> bytes:
    buffers: list[pickle.PickleBuffer] = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    if not buffers:
        return head
    try:
        raws = [b.raw() for b in buffers]
    except BufferError:
        # Non-contiguous out-of-band buffer: fall back to in-band pickle.
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    lens = struct.pack(f"<{len(raws)}Q", *(r.nbytes for r in raws))
    return b"".join(
        [bytes([_OOB_MAGIC]), _OOB_HEAD.pack(len(raws), len(head)),
         lens, head, *raws])


def _loads(data: bytes) -> Any:
    if not data or data[0] != _OOB_MAGIC:
        return pickle.loads(data)
    n_buffers, head_len = _OOB_HEAD.unpack_from(data, 1)
    off = 1 + _OOB_HEAD.size
    lens = struct.unpack_from(f"<{n_buffers}Q", data, off)
    off += 8 * n_buffers
    head = bytes(data[off : off + head_len])
    off += head_len
    # One writable copy backs every reconstructed array.
    region = bytearray(data[off:])
    view = memoryview(region)
    buffers = []
    pos = 0
    for length in lens:
        buffers.append(view[pos : pos + length])
        pos += length
    return pickle.loads(head, buffers=buffers)

#: histogram buckets for failure-detection latency (seconds).
_DETECT_BUCKETS = (0.01, 0.05, 0.25, 1.0, 2.0, 5.0, 15.0, 60.0)


class PipeComm(Comm):
    """Fault-tolerant communicator over a full mesh of duplex pipes.

    Built by :func:`run_spmd`; constructable directly (one instance per
    process or thread, plus a ``links`` dict of peer connections) for
    in-process protocol tests.

    Parameters
    ----------
    timeout:
        Per-message deadline (seconds) for both ``recv`` and the
        acknowledgement wait in ``send``.  Expiry raises
        :class:`RankFailureError` -- the failure detector of last resort
        when pipe EOF does not surface a dead peer.
    resend_wait:
        Ack-timeout after which an unacknowledged DATA frame is
        retransmitted (recovers dropped messages).  Defaults to a quarter
        of ``timeout``, clamped to [0.05, 1.0].
    max_resends:
        Retransmission budget per message (silence- and NAK-triggered
        combined); exhausting it on NAKs marks the channel corrupt.
    transient_retries / backoff_base:
        Retry budget and initial exponential-backoff delay for transient
        ``OSError`` on pipe operations.
    fault_injector:
        Optional :class:`~repro.parallel.faults.RankFaultInjector` whose
        ``apply`` hook sees every frame transmission and receive wait.
    """

    def __init__(self, rank: int, size: int, links: dict[int, Any], *,
                 timeout: float = 30.0,
                 resend_wait: float | None = None,
                 max_resends: int = 3,
                 transient_retries: int = 4,
                 backoff_base: float = 0.05,
                 fault_injector=None) -> None:
        self.rank = rank
        self.size = size
        self._links = links
        self.timeout = float(timeout)
        if resend_wait is None:
            resend_wait = min(max(self.timeout / 4.0, 0.05), 1.0)
        self.resend_wait = float(resend_wait)
        self.max_resends = int(max_resends)
        self.transient_retries = int(transient_retries)
        self.backoff_base = float(backoff_base)
        self._injector = fault_injector
        self._send_seq = {r: 0 for r in links}
        #: last delivered DATA sequence number per source (for dedup).
        self._recv_seq = {r: 0 for r in links}
        #: in-order, already-acknowledged payloads awaiting a ``recv`` call.
        self._inbox: dict[int, list[bytes]] = {r: [] for r in links}
        #: (kind, seq) ACK/NAK verdicts read while servicing links.
        self._ctrl: dict[int, list[tuple[int, int]]] = {r: [] for r in links}
        #: consecutive resend requests per peer, reset on clean delivery.
        self._nak_sent = {r: 0 for r in links}
        #: monotonic time of the last frame (any kind) heard per peer --
        #: the failure detector measures *silence*, not message absence.
        self._last_heard = {r: 0.0 for r in links}
        self._hb_interval = self.resend_wait / 2.0
        self._last_hb = 0.0
        #: peers whose connection closed; lost only once a send or recv
        #: still needs them.
        self._departed: set[int] = set()
        self._dead: dict[int, str] = {}

    # -- failure bookkeeping ---------------------------------------------

    @property
    def lost_ranks(self) -> tuple[int, ...]:
        return tuple(sorted(self._dead))

    def note_lost(self, ranks: Sequence[int]) -> None:
        for r in ranks:
            if r != self.rank:
                self._dead.setdefault(int(r), "reported by root")

    def _mark_failed(self, peer: int, reason: str,
                     detect_s: float) -> RankFailureError:
        """Record a peer loss (first detection emits telemetry) and build
        the error for the caller to raise."""
        if peer not in self._dead:
            self._dead[peer] = reason
            tel = get_telemetry()
            tel.metrics.counter("comm.rank_failures").inc()
            tel.metrics.histogram("comm.failure_detect_s",
                                  buckets=_DETECT_BUCKETS).observe(detect_s)
            with tel.span("comm.rank_failure", peer=peer, rank=self.rank,
                          phase=self._phase, reason=reason,
                          detect_s=round(detect_s, 6)):
                pass
        return RankFailureError(peer, reason, self._phase)

    def _check_alive(self, peer: int, t0: float) -> None:
        """Raise if ``peer`` is lost; a departed peer is lost from here on,
        because the caller still needs it."""
        if peer in self._departed:
            raise self._mark_failed(peer, f"rank {peer} closed its connection",
                                    time.monotonic() - t0)
        if peer in self._dead:
            raise RankFailureError(peer, self._dead[peer], self._phase)

    # -- low-level pipe operations with transient-error retry -------------

    def _with_retries(self, peer: int, fn: Callable[[], Any], what: str,
                      t0: float) -> Any:
        """Call ``fn``, retrying transient ``OSError`` with exponential
        backoff; a closed link (:data:`_CLOSED`) propagates unchanged."""
        delay = self.backoff_base
        for i in range(self.transient_retries + 1):
            try:
                return fn()
            except _CLOSED:
                raise
            except OSError as exc:
                if i == self.transient_retries:
                    raise self._mark_failed(
                        peer, f"persistent I/O error during {what}: {exc!r}",
                        time.monotonic() - t0)
                get_telemetry().metrics.counter("comm.transient_retries").inc()
                time.sleep(delay)
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def _read_frame(self, conn: Any, peer: int,
                    t0: float) -> tuple[int, int, int, bytes]:
        buf = self._with_retries(peer, conn.recv_bytes, "recv", t0)
        if len(buf) < _FRAME.size:  # pragma: no cover - frames keep length
            return (0, 0, 0, b"")
        kind, seq, crc = _FRAME.unpack_from(buf)
        return kind, seq, crc, buf[_FRAME.size:]

    @staticmethod
    def _send_control(conn: Any, kind: int, seq: int) -> None:
        """Write an ACK, NAK or heartbeat; a failed write is ignored.

        A peer that wrote its last frame and exited may still have that
        frame unread in the pipe, so the EOF after it -- not this write --
        decides whether the peer is gone.  A lost ACK or NAK is recovered
        by the sender's ack-timeout resend.
        """
        try:
            conn.send_bytes(_FRAME.pack(kind, seq, 0))
        except OSError:
            pass

    # -- frame intake ------------------------------------------------------

    def _intake(self, conn: Any, peer: int, t0: float) -> None:
        """Read and process one frame from ``peer``.

        In-order valid DATA is acknowledged immediately and queued for
        ``recv``; duplicates are re-acknowledged (their ACK was lost);
        out-of-order or corrupt frames trigger a bounded NAK/resend cycle;
        ACK/NAK verdicts are queued for the sender side.
        """
        kind, rseq, crc, payload = self._read_frame(conn, peer, t0)
        self._last_heard[peer] = time.monotonic()
        if kind in (_ACK, _NAK):
            self._ctrl[peer].append((kind, rseq))
            return
        if kind != _DATA:
            return  # heartbeat (or unknown): liveness evidence only
        if rseq <= self._recv_seq[peer]:
            self._send_control(conn, _ACK, rseq)
            return
        expect = self._recv_seq[peer] + 1
        if rseq != expect or zlib.crc32(payload) != crc:
            get_telemetry().metrics.counter("comm.crc_errors").inc()
            self._nak_sent[peer] += 1
            if self._nak_sent[peer] > self.max_resends:
                raise self._mark_failed(
                    peer, f"message {expect} still corrupt after "
                          f"{self._nak_sent[peer]} resend requests",
                    time.monotonic() - t0)
            self._send_control(conn, _NAK, expect)
            return
        self._send_control(conn, _ACK, rseq)
        self._recv_seq[peer] = rseq
        self._nak_sent[peer] = 0
        self._inbox[peer].append(payload)

    def _service_links(self, wait_s: float, t0: float) -> None:
        """Wait up to ``wait_s`` for traffic on any live link and process it.

        Every blocking wait in the protocol funnels through here, so a rank
        stuck in a long ``recv`` still feeds ACKs to its *other* live
        peers.  Without this, a root waiting out a dead rank's deadline in
        a gather would starve the remaining senders of ACKs for a full
        ``timeout`` and they would spuriously declare the root lost.
        Nothing is raised here: a peer whose connection closed is recorded
        as departed, other failures as lost, and the caller checks the one
        peer it waits on.

        While waiting, a tiny heartbeat frame goes to every live peer each
        ``_hb_interval``, so peers watching *us* see liveness evidence even
        when we have nothing to say (e.g. while we absorb a dead rank's
        silence).  Peer silence therefore only accumulates across genuine
        death, hangs, and compute phases -- which is why ``timeout`` must
        exceed the longest single compute phase of the algorithm.
        """
        conns = {c: p for p, c in self._links.items()
                 if p not in self._dead and p not in self._departed}
        now = time.monotonic()
        if now - self._last_hb >= self._hb_interval:
            self._last_hb = now
            for conn in conns:
                self._send_control(conn, _HB, 0)
        if not conns:
            if wait_s > 0:
                time.sleep(min(wait_s, 0.005))
            return
        try:
            ready = _conn_wait(list(conns), max(wait_s, 0.0))
        except OSError:  # pragma: no cover - transient wait failure
            time.sleep(min(max(wait_s, 0.0), self.backoff_base))
            return
        for conn in ready:
            peer = conns[conn]
            try:
                self._intake(conn, peer, t0)
            except _CLOSED:
                self._departed.add(peer)
            except RankFailureError:
                pass  # recorded in _dead by _mark_failed

    # -- point to point ----------------------------------------------------

    def send(self, obj: Any, dest: int) -> None:
        if dest == self.rank:
            raise ValueError("cannot send to self")
        t0 = time.monotonic()
        self._check_alive(dest, t0)
        conn = self._links[dest]
        self._send_seq[dest] += 1
        seq = self._send_seq[dest]
        payload = _dumps(obj)
        frame = _FRAME.pack(_DATA, seq, zlib.crc32(payload)) + payload
        transmissions = 0
        want_send = True
        while True:
            if want_send:
                def transmit() -> None:
                    data: Any = frame
                    if self._injector is not None:
                        out = self._injector.apply(CommEvent(
                            "send", dest, self._phase, frame))
                        if out is DROP:
                            return
                        if out is not None:
                            data = out
                    conn.send_bytes(data)
                try:
                    self._with_retries(dest, transmit, "send", t0)
                except _CLOSED as exc:
                    raise self._mark_failed(
                        dest, f"connection lost during send: {exc!r}",
                        time.monotonic() - t0)
                transmissions += 1
                if transmissions > 1:
                    get_telemetry().metrics.counter("comm.resends").inc()
            verdict = self._await_ack(dest, seq, t0)
            if verdict == "ack":
                return
            if verdict == "nak" and transmissions > self.max_resends:
                raise self._mark_failed(
                    dest, f"message {seq} still rejected after "
                          f"{transmissions} transmissions",
                    time.monotonic() - t0)
            # Silence past the resend budget: keep waiting (a slow but
            # live peer must not be declared dead before the deadline).
            want_send = transmissions <= self.max_resends

    def _await_ack(self, dest: int, seq: int, t0: float) -> str:
        """Wait for the ACK/NAK of message ``seq`` sent to ``dest``.

        Returns ``"ack"`` / ``"nak"``, or ``"silent"`` after
        ``resend_wait`` with no verdict; raises once ``dest`` is lost or
        has been silent (no frames of any kind, heartbeats included) for
        ``timeout``.
        """
        wait_until = time.monotonic() + self.resend_wait
        while True:
            verdict = None
            for kind, rseq in self._ctrl[dest]:
                if rseq == seq:
                    verdict = "ack" if kind == _ACK else "nak"
                    break
            # Verdicts for earlier messages are stale: drop them too.
            self._ctrl[dest] = [kn for kn in self._ctrl[dest]
                                if kn[1] > seq]
            if verdict is not None:
                return verdict
            self._check_alive(dest, t0)
            now = time.monotonic()
            deadline = max(t0, self._last_heard[dest]) + self.timeout
            if now >= deadline:
                raise self._mark_failed(
                    dest, f"rank {dest} silent for "
                          f"{now - deadline + self.timeout:.2f}s"
                          f" awaiting acknowledgement of message {seq}",
                    now - t0)
            if now >= wait_until:
                return "silent"
            self._service_links(min(wait_until, deadline) - now, t0)

    def recv(self, source: int) -> Any:
        if source == self.rank:
            raise ValueError("cannot receive from self")
        t0 = time.monotonic()
        if self._injector is not None:
            self._with_retries(
                source,
                lambda: self._injector.apply(CommEvent(
                    "recv", source, self._phase)),
                "recv", t0)
        while True:
            # A message the peer sent before it left is still delivered.
            if self._inbox[source]:
                return _loads(self._inbox[source].pop(0))
            self._check_alive(source, t0)
            now = time.monotonic()
            deadline = max(t0, self._last_heard[source]) + self.timeout
            if now >= deadline:
                raise self._mark_failed(
                    source, f"rank {source} silent for {self.timeout:.2f}s"
                            f" waiting for message {self._recv_seq[source] + 1}",
                    now - t0)
            self._service_links(min(deadline - now, self.resend_wait), t0)


@dataclass
class RankOutcome:
    """Per-rank outcome of a :func:`run_spmd` run, as a rank reports it.

    ``error`` carries ``"ExcType: message"`` and ``traceback`` the full
    formatted traceback from the rank process; ``timed_out`` is set when
    the rank produced nothing before the parent deadline (it was then
    terminated and reaped).
    """

    rank: int
    value: Any = None
    error: str | None = None
    traceback: str | None = None
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


def _spmd_child(rank: int, size: int, all_links: list[dict[int, Any]],
                result_conns: list[Any], fn: Callable[..., Any],
                args: tuple, kwargs: dict, comm_kwargs: dict,
                injector) -> None:
    # Close every inherited connection that belongs to another rank.  This
    # is what makes failure detection fast: once only the owning process
    # holds a pipe end, that process dying closes the pipe and peers see
    # EOF immediately instead of waiting out their deadline.
    for r, linkmap in enumerate(all_links):
        if r != rank:
            for conn in linkmap.values():
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
    for r, conn in enumerate(result_conns):
        if r != rank:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
    result_conn = result_conns[rank]
    comm = PipeComm(rank, size, all_links[rank], fault_injector=injector,
                    **comm_kwargs)
    try:
        value = fn(comm, *args, **kwargs)
        result_conn.send(RankOutcome(rank, value=value))
    except Exception as exc:  # noqa: BLE001 - relayed to the parent
        result_conn.send(RankOutcome(rank, error=f"{type(exc).__name__}: {exc}",
                                     traceback=traceback.format_exc()))
    finally:
        result_conn.close()


def _reap(procs: list, result_parents: list[Any]) -> None:
    """Terminate stragglers, reap every child, close every parent conn."""
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(2.0)
            if p.is_alive():  # pragma: no cover - terminate() suffices
                p.kill()
                p.join(5.0)
        else:
            p.join()  # reap the zombie
        try:
            p.close()
        except ValueError:  # pragma: no cover - still alive after kill
            pass
    for conn in result_parents:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


def _run(fn: Callable[..., Any], nprocs: int, args: tuple, kwargs: dict,
         timeout: float, comm_kwargs: dict,
         faults: dict | None) -> list[RankOutcome]:
    ctx = get_context()
    # links[i][j]: connection rank i uses to talk to rank j.
    links: list[dict[int, Any]] = [dict() for _ in range(nprocs)]
    for i in range(nprocs):
        for j in range(i + 1, nprocs):
            a, b = Pipe(duplex=True)
            links[i][j] = a
            links[j][i] = b
    result_parents = []
    result_children = []
    for _ in range(nprocs):
        parent_conn, child_conn = Pipe(duplex=False)
        result_parents.append(parent_conn)
        result_children.append(child_conn)

    procs = []
    for rank in range(nprocs):
        p = ctx.Process(
            target=_spmd_child,
            args=(rank, nprocs, links, result_children, fn, args, kwargs,
                  comm_kwargs, (faults or {}).get(rank)),
            daemon=True,
        )
        procs.append(p)
        p.start()

    if ctx.get_start_method() == "fork":
        # Drop the parent's copies of every child-side pipe end, so a rank
        # dying leaves nobody holding its connections open (EOF-based
        # failure detection).  Under spawn the fds travel lazily through
        # the resource sharer, so the parent must keep them; peers then
        # fall back to deadline-based detection.
        for linkmap in links:
            for conn in linkmap.values():
                conn.close()
        for conn in result_children:
            conn.close()

    outcomes = [RankOutcome(rank=r, timed_out=True,
                            error=f"no result within {timeout}s")
                for r in range(nprocs)]
    pending = {conn: r for r, conn in enumerate(result_parents)}
    deadline = time.monotonic() + timeout

    def deliver(conn: Any, r: int) -> None:
        try:
            outcomes[r] = conn.recv()
        except (EOFError, OSError):
            code = procs[r].exitcode
            outcomes[r] = RankOutcome(
                r, error=f"rank process died without a result "
                         f"(exitcode {code})")

    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        sentinels = {procs[r].sentinel: r for r in pending.values()
                     if procs[r].is_alive()}
        ready = _conn_wait(list(pending) + list(sentinels),
                          timeout=remaining)
        if not ready:
            break
        for obj in ready:
            if obj in pending:
                deliver(obj, pending.pop(obj))
        for obj in ready:
            r = sentinels.get(obj)
            if r is None:
                continue
            conn = result_parents[r]
            if conn not in pending:
                continue
            # The process exited; give a just-flushed result one chance.
            procs[r].join()
            if conn.poll(0.1):
                deliver(conn, pending.pop(conn))
            else:
                code = procs[r].exitcode
                outcomes[r] = RankOutcome(
                    r, error=f"rank process died without a result "
                             f"(exitcode {code})")
                del pending[conn]

    _reap(procs, result_parents)
    return outcomes


def run_spmd(fn: Callable[..., Any], nprocs: int, *args: Any,
             timeout: float = 120.0,
             comm_timeout: float | None = None,
             faults: dict | None = None,
             strict: bool = True,
             **kwargs: Any) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` ranks; return all results.

    Spawns ``nprocs`` OS processes wired into a full pipe mesh, calls ``fn``
    on each with its :class:`PipeComm`, and returns the per-rank return
    values ordered by rank.  Ranks that miss the ``timeout`` deadline are
    terminated (killed if necessary) and reaped -- the harness never leaks
    live children or zombies.

    ``comm_timeout`` sets the per-message deadline of every rank's
    :class:`PipeComm` (default 30 s); ``faults`` maps rank numbers to
    :class:`~repro.parallel.faults.RankFaultInjector` instances for chaos
    testing.

    With ``strict=True`` (default) any rank failure raises a
    ``RuntimeError`` naming the failing ranks and carrying their full
    tracebacks.  With ``strict=False`` the call never raises on rank
    failures and instead returns a list of :class:`RankOutcome`, so chaos
    tests can inspect survivors and casualties side by side.

    ``nprocs == 1`` short-circuits to an in-process call with a
    :class:`SerialComm`, which keeps tests fast and debuggable.
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    if nprocs == 1:
        if strict:
            return [fn(SerialComm(), *args, **kwargs)]
        try:
            return [RankOutcome(0, value=fn(SerialComm(), *args, **kwargs))]
        except Exception as exc:  # noqa: BLE001 - mirrored from child path
            return [RankOutcome(0, error=f"{type(exc).__name__}: {exc}",
                                traceback=traceback.format_exc())]

    comm_kwargs = {} if comm_timeout is None else {"timeout": comm_timeout}
    with get_telemetry().span("spmd.run", nprocs=nprocs) as sp:
        outcomes = _run(fn, nprocs, args, kwargs, timeout, comm_kwargs, faults)
        failures = [o for o in outcomes if not o.ok]
        sp.set(failed_ranks=len(failures))

    if not strict:
        return outcomes
    if failures:
        summary = "; ".join(f"rank {o.rank}: {o.error}" for o in failures)
        tracebacks = "".join(
            f"\n--- rank {o.rank} traceback ---\n{o.traceback}"
            for o in failures if o.traceback)
        raise RuntimeError(f"SPMD execution failed: {summary}{tracebacks}")
    return [o.value for o in outcomes]
