"""Process backend for the simulated MPI runtime.

Threads share one GIL, so the thread backend of :mod:`repro.simmpi` can
*model* — but never *measure* — intranode parallel speedup.  This module
provides the measured path: one resident OS process per rank
(:class:`ProcessWorld`: forked once, commanded many times) and one
one-way pipe per ordered rank pair, the only thing two ranks share.
Every message is pickled onto its pipe, ghost slabs included: a
registered halo channel packs the slab into a slot on the sender's heap
and its notify carries the packed prefix in the message frame, the way
the paper packs each neighbour's ghost layers into one MPI message.  The
one array caller and ranks both address is
:meth:`ProcessWorld.shared_array`, an anonymous mapping inherited
through ``fork``.

Semantics mirror the thread backend's :class:`~repro.simmpi.comm.
Communicator`: ``(source, tag)`` matching with ``ANY_SOURCE`` /
``ANY_TAG`` wildcards, FIFO ordering per sender/receiver pair, the same
binomial-tree collectives (inherited — they are built purely on
``send``/``recv``), and world-abort failure propagation with
``simmpi_rank`` annotation on the re-raised exception.

An OS pipe holds only 64 KiB, so the one rule that keeps the pipes
deadlock-free is that **no rank issues a pipe write that can block**.
A message goes out as one frame — a 4-byte length, then the pickle —
written to the non-blocking pipe with as many ``os.write`` calls as it
takes: a write takes what fits, and when nothing fits the sender drains
its own incoming pipes (completing posted receives, holding the rest)
until the peer has made room.  A rank waiting to send thus never stops
reading, so two ranks bursting at each other both make progress,
whether or not their receives were posted first.  The barrier is made
of pipe tokens, so a rank waiting in it keeps reading too; a peer that
never reads at all is bounded by the ``"send"`` deadline.
"""

from __future__ import annotations

import logging
import mmap
import os
import pickle
import select
import struct
import threading
import time
import traceback
from multiprocessing import connection as _mpc
from typing import NamedTuple

import numpy as np

from repro.simmpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    CommStats,
    Communicator,
    HaloRecvChannel,
    HaloSendChannel,
    RankTimeout,
    RemoteError,
    _TAG_BARRIER,
    _copy_payload,
    raise_selected,
)
from repro.settings import Settings
from repro.simmpi.liveness import LivenessBeacon, RankMonitor

__all__ = [
    "ProcessCommunicator",
    "ProcessRequest",
    "ProcessWorld",
    "RankTransport",
]

logger = logging.getLogger(__name__)

#: Frame header: the length of the pickle that follows.
_LENGTH = struct.Struct("<I")

#: Bytes one ``os.read`` of a ready pipe asks for: what the pipe holds.
_READ = 1 << 16

#: Seconds between failure-flag checks while blocked.
_POLL = 0.05

#: Parent-side grace period before surviving children are terminated.
_JOIN_GRACE = 30.0

def _matches(want_source: int, want_tag: int, source: int, tag: int) -> bool:
    return (want_source in (ANY_SOURCE, source)
            and want_tag in (ANY_TAG, tag))


class ProcessRequest:
    """A posted receive (``MPI_Irecv`` style) and its request handle
    (mirrors :class:`Request`).

    The transport completes posted receives wherever it drains its
    pipes — in ``recv``/``wait`` and while a send waits for room — so a
    posted payload never waits in the held list.
    """

    __slots__ = ("_transport", "source", "tag", "done", "payload")

    def __init__(self, transport: "RankTransport", source: int, tag: int):
        self._transport = transport
        self.source = source
        self.tag = tag
        self.done = False
        self.payload = None

    def wait(self):
        """Complete the receive; returns the payload."""
        return self._transport.complete(self)

    def test(self) -> bool:
        """Non-destructive readiness check."""
        self._transport.progress(block=False)
        return self.done


class RankTransport:
    """Per-rank message engine over one one-way pipe per rank pair.

    Each rank is one process running one thread (plus, under fault
    injection, delayed-delivery timers that only ever send).  Every
    message is one pickled ``(source, tag, payload)`` tuple — pickling
    at send time snapshots the payload — and travels as one frame,
    ``<u32 length><pickle>``, which the receiver cuts out of the bytes
    it reads from each incoming pipe.  One reserved tag belongs to the
    transport: ``_TAG_BARRIER`` marks a barrier token
    (:meth:`barrier_wait`), counted, not matched.

    With a :class:`~repro.telemetry.timing.TimingTree` attached
    (:meth:`attach_timing`), the pipe phases are timed under
    ``comm/pipe``: ``send`` (message writes, including waits for a full
    pipe to drain) and ``recv`` (progress-engine drains, including poll
    waits and the drains a waiting send makes).  This is the
    process-backend transport overhead the fig7 RunReport quantifies,
    and with tracing on (:mod:`repro.telemetry.tracing`) each phase call
    becomes a ``comm/pipe/*`` span feeding the pipe-latency histogram.
    """

    def __init__(self, rank: int, size: int, readers: dict, writers: dict,
                 failed, settings: Settings) -> None:
        self.rank = rank
        self.size = size
        self._sources = {fd: src for src, fd in readers.items()}
        self._inbox = select.poll()     # POLLIN on every read end
        for fd in self._sources:
            self._inbox.register(fd, select.POLLIN)
        # source rank -> bytes read that do not yet end a frame
        self._unread = {src: bytearray() for src in readers}
        self._writers = dict(writers)   # dest rank -> write fd
        for fd in self._writers.values():
            os.set_blocking(fd, False)  # a full pipe: partial write, EAGAIN
        self._failed = failed           # mp.Event: world abort flag
        self.settings = settings
        self.deadlines = settings.deadlines
        self.stats = CommStats()
        self._held: list[tuple] = []            # arrived, not yet matched
        self._posted: list[ProcessRequest] = []  # posted, not yet arrived
        self._tokens = [0] * size               # barrier tokens per source
        #: Every message posted to a pipe (the fig7 message-count
        #: story).  The solver snapshots it around the step loop, so
        #: RunReports carry *steady-state* per-step costs.
        self.ctrl_sent = 0
        self._timing = None                     # optional TimingTree
        #: Monotonic liveness counter: bumped by every send, every pipe
        #: write or read (so a long message is progress on both ends)
        #: and every solver step (:meth:`note_progress`).  The
        #: watchdog reads it through the heartbeat stream — frozen
        #: counter = hang suspect.  The stamp records *when*
        #: (CLOCK_MONOTONIC, comparable across processes on one host) the
        #: counter last moved, so the parent can order freezes exactly
        #: instead of by quantized heartbeat arrival.
        self.progress_count = 0
        self.progress_stamp = time.monotonic()
        # Held across a whole frame, so its bytes are contiguous on the
        # pipe even when a delayed-delivery fault timer sends too.
        self._post_lock = threading.Lock()

    def attach_timing(self, tree) -> None:
        """Time the pipe phases (send/recv) into *tree* under
        ``comm/pipe``; ``None`` detaches and restores the untimed path."""
        self._timing = tree

    def note_progress(self) -> None:
        """Bump the liveness counter (called by drivers once per step)."""
        self.progress_count += 1
        self.progress_stamp = time.monotonic()

    # -- sending -------------------------------------------------------------

    def _timed(self, path: str, fn, *args):
        """``fn(*args)``, timed into the attached tree under *path*."""
        if self._timing is None:
            return fn(*args)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._timing.record(path, time.perf_counter() - t0)

    def send(self, obj, dest: int, tag: int) -> None:
        """Send with thread-backend semantics: payload snapshot at call time."""
        self._timed("comm/pipe/send", self._send, obj, dest, tag)

    def _send(self, obj, dest: int, tag: int) -> None:
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        self.stats.account_send(obj)
        self.note_progress()
        if dest == self.rank:
            # Self-send: deliver through the normal dispatch path so it
            # can complete a posted receive or join the held list.
            self._dispatch((self.rank, tag, _copy_payload(obj)))
            return
        self._post(dest, tag, obj)

    def send_inline(self, obj, dest: int, tag: int) -> None:
        """Thread-safe out-of-band send.

        Used by delayed-delivery fault timers, which run on a side
        thread: the message rides the pipe like any other, serialized by
        the post lock, but a full pipe is waited out without draining —
        the progress engine belongs to the rank's own thread.
        """
        if dest == self.rank:
            raise ValueError("send_inline cannot target the own rank")
        self._post(dest, tag, obj, drain=False)

    def _post(self, dest: int, tag: int, obj, drain: bool = True) -> None:
        buf = pickle.dumps((self.rank, tag, obj),
                           protocol=pickle.HIGHEST_PROTOCOL)
        frame = memoryview(_LENGTH.pack(len(buf)) + buf)
        fd = self._writers[dest]
        try:
            with self._post_lock:
                while frame:
                    try:
                        frame = frame[os.write(fd, frame):]
                    except BlockingIOError:
                        self._wait_for_room(dest, drain)
                        continue
                    self.note_progress()
                self.ctrl_sent += 1
        except OSError:
            # Peer process is gone; surface as a secondary failure so the
            # launcher's primary-error selection stays meaningful.
            self._check_failed()
            raise RemoteError(f"rank {dest} is unreachable") from None

    def _wait_for_room(self, dest: int, drain: bool) -> None:
        """Wait until the full pipe to *dest* polls writable again.

        With *drain* this rank keeps emptying its own incoming pipes
        meanwhile, so a peer that waits for room towards this rank gets
        it: no two ranks can wait on each other here.  Draining writes
        nothing, which is what makes it safe inside a send.
        """
        deadline = self.deadlines.start("send", peers=(dest,))
        fd = self._writers[dest]
        watch = select.poll()
        watch.register(fd, select.POLLOUT)
        for reader in self._sources if drain else ():
            watch.register(reader, select.POLLIN)
        while True:
            self._check_failed()
            if deadline is not None:
                deadline.check()
            if drain:
                self.progress(block=False)
            if any(ready == fd for ready, _ in watch.poll(_POLL * 1000)):
                return

    # -- receiving -----------------------------------------------------------

    def recv(self, source: int, tag: int):
        """Blocking receive; returns the payload."""
        return self.complete(self.irecv(source, tag))

    def irecv(self, source: int, tag: int) -> ProcessRequest:
        """Eagerly posted receive (unlike the thread backend's lazy one):
        whatever drains this rank's pipes completes it."""
        posted = ProcessRequest(self, source, tag)
        msg = self._take_held(source, tag)
        if msg is None:
            self._posted.append(posted)
        else:
            posted.payload, posted.done = msg[2], True
            self.stats.recvs += 1
        return posted

    def complete(self, posted: ProcessRequest):
        """Drive progress until *posted* is done; returns its payload."""
        deadline = self.deadlines.start(
            "recv", peers=(posted.source,) if posted.source >= 0 else ()
        )
        while not posted.done:
            self.progress(block=False)
            if posted.done:
                break
            self._check_failed()
            if deadline is not None:
                deadline.check()
            self.progress(block=True)
        return posted.payload

    def probe(self, source: int, tag: int) -> bool:
        self.progress(block=False)
        return any(_matches(source, tag, m[0], m[1]) for m in self._held)

    def _take_held(self, source: int, tag: int):
        for i, msg in enumerate(self._held):
            if _matches(source, tag, msg[0], msg[1]):
                return self._held.pop(i)
        return None

    # -- progress engine -----------------------------------------------------

    def progress(self, block: bool) -> None:
        """Drain every readable pipe, dispatching each whole message."""
        self._timed("comm/pipe/recv", self._progress, block)

    def _progress(self, block: bool) -> None:
        timeout = _POLL * 1000 if block else 0
        while ready := self._inbox.poll(timeout):   # one read per pipe
            timeout = 0
            for fd, _ in ready:
                src = self._sources[fd]
                try:
                    data = os.read(fd, _READ)
                except OSError:
                    data = b""
                if not data:   # every write end closed: the peer is gone
                    self._inbox.unregister(fd)
                    del self._sources[fd]
                    if not self._failed.is_set():
                        raise RemoteError(
                            f"rank {src} closed its channel unexpectedly"
                        )
                    continue
                self.note_progress()
                unread = self._unread[src]
                unread += data
                end = 0
                with memoryview(unread) as view:   # frames decode in place
                    while len(unread) - end >= _LENGTH.size:
                        start = end + _LENGTH.size
                        stop = start + _LENGTH.unpack_from(view, end)[0]
                        if len(unread) < stop:
                            break
                        self._dispatch(pickle.loads(view[start:stop]))
                        end = stop
                del unread[:end]   # only once the view is released

    def _dispatch(self, msg: tuple) -> None:
        source, tag, payload = msg
        if tag == _TAG_BARRIER:
            self._tokens[source] += 1
            return
        for posted in self._posted:
            if not posted.done and _matches(posted.source, posted.tag,
                                            source, tag):
                posted.payload = payload
                posted.done = True
                self._posted.remove(posted)
                self.stats.recvs += 1
                return
        self._held.append(msg)

    def _check_failed(self) -> None:
        if self._failed.is_set():
            raise RemoteError("a peer rank failed while this rank waited")

    # -- synchronization -----------------------------------------------------

    def barrier_wait(self) -> None:
        """Dissemination barrier over the pipes.

        In round *k* (1, 2, 4, … below the world size) each rank sends a
        token to ``rank + k`` and waits for the one from ``rank - k``;
        after the last round every rank has heard, directly or not, from
        every other.  Waiting drains this rank's pipes like a receive
        does, so a peer whose send needs room in a pipe towards this rank
        gets it while this rank sits in the barrier.  Tokens are counted
        per source, never matched, so no receive can take one; a source
        only ever sends this rank the tokens of one round, so a fast
        rank's token for the next barrier just waits in the count.
        """
        deadline = self.deadlines.start("barrier")
        k = 1
        while k < self.size:
            self._post((self.rank + k) % self.size, _TAG_BARRIER, None)
            source = (self.rank - k) % self.size
            while not self._tokens[source]:
                self._check_failed()
                if deadline is not None:
                    deadline.check()
                self.progress(block=True)
            self._tokens[source] -= 1
            k *= 2

    def counters(self) -> dict:
        """Control-traffic totals since transport creation.

        ``pipe_messages`` counts every message this rank wrote to a
        pipe, however many writes it took: messages to peers and, one
        per call of the world, the result sent to the caller.  The solver
        snapshots this dict immediately before and after the step loop;
        the difference divided by step count is the steady-state per-step
        message cost the fig7 report gates on.
        """
        return {"pipe_messages": self.ctrl_sent}


class _ProcessHaloSend(HaloSendChannel):
    """Process-backend sender endpoint: every notify carries its slab.

    The slots are this rank's heap memory, which no other process can
    read, so the registration hands over no slot array and each
    :meth:`message` is ``(seq, packed prefix of the slot)``: one frame
    on the pipe per channel per round.  The prefix is a view, pickled
    when the frame is written; a delayed notify (``msg_delay``) pickles
    it from its timer after :meth:`notify` returned, which is why the
    channel keeps two slots.
    """

    def _handle(self):
        return None   # the slab travels in every notify

    def message(self, used: int | None = None):
        return self.seq, self.slot()[:used]


class _ProcessHaloRecv(HaloRecvChannel):
    """Process-backend receiver endpoint: :meth:`wait` checks the
    notify's sequence number and returns the slab the frame carried."""

    def wait(self) -> np.ndarray:
        seq, slab = self._comm.recv(self.source, tag=self.notify_tag)
        self._advance(seq)
        return slab


class ProcessCommunicator(Communicator):
    """Rank-local communicator of the process backend.

    Point-to-point, probe and barrier delegate to the
    :class:`RankTransport`; ``isend``/``sendrecv`` and the binomial-tree
    collectives are inherited from :class:`Communicator` — they are
    written purely in terms of ``self.send`` / ``self.recv``, so the
    algorithms run identically on both backends.
    """

    def __init__(self, transport: RankTransport):
        self._transport = transport
        self.rank = transport.rank
        self.size = transport.size
        self.settings = transport.settings
        self.deadlines = transport.deadlines
        self.resident: dict = {}

    def send(self, obj, dest: int, tag: int = 0) -> None:
        self._transport.send(obj, dest, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        return self._transport.recv(source, tag)

    def irecv(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> ProcessRequest:
        return self._transport.irecv(source, tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        return self._transport.probe(source, tag)

    def register_halo(self, dest: int, channel_id: int, capacity: int,
                      dtype=np.float64) -> HaloSendChannel:
        """Sender endpoint of a halo channel; slabs ride its notifies."""
        return _ProcessHaloSend(self, dest, channel_id, capacity, dtype)

    def accept_halo(self, source: int, channel_id: int) -> HaloRecvChannel:
        """Receiver endpoint of a halo channel."""
        return _ProcessHaloRecv(self, source, channel_id)

    def transport_counters(self) -> dict:
        """Real control-traffic totals (see :meth:`RankTransport.counters`)."""
        return self._transport.counters()

    def barrier(self) -> None:
        self._transport.barrier_wait()

    def aborted(self) -> bool:
        """True once any rank failed (world-abort flag set)."""
        return self._transport._failed.is_set()

    @property
    def stats(self) -> CommStats:
        return self._transport.stats

    def attach_timing(self, tree) -> None:
        """Time the transport's pipe phases into *tree* (``comm/pipe/*``)."""
        self._transport.attach_timing(tree)

    def note_progress(self) -> None:
        """Bump the transport's liveness counter (watchdog heartbeat)."""
        self._transport.note_progress()


# -- resident world ----------------------------------------------------------


def _transportable(exc: BaseException, rank: int) -> BaseException:
    """Make *exc* safe to ship to the parent, keeping its type if possible."""
    try:
        exc.simmpi_rank = rank
    except Exception:
        pass
    try:
        if pickle.loads(pickle.dumps(exc)) is not None:
            return exc
    except Exception:
        pass
    text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    wrapped = RuntimeError(
        f"rank {rank} raised unpicklable {type(exc).__name__}: {exc}\n{text}"
    )
    wrapped.simmpi_rank = rank
    return wrapped


def _find_fault_plan(args, kwargs):
    """Duck-typed FaultPlan lookup in an SPMD call's arguments.

    Kept structural (``fires`` + ``mark_fired``) so the transport layer
    does not import :mod:`repro.resilience`.
    """
    for obj in list(args) + list(kwargs.values()):
        if hasattr(obj, "fires") and hasattr(obj, "mark_fired"):
            return obj
    return None


#: Command payload that ends a rank's command loop.
_SHUTDOWN = b""


class _RankEnds(NamedTuple):
    """The pipe ends one rank process owns."""

    commands: object   # read end: pickled commands from the parent
    results: object    # write end: results, heartbeats, fault notes
    readers: dict      # source rank -> read fd of its message pipe
    writers: dict      # dest rank -> write fd of the message pipe

    def close(self) -> None:
        self.commands.close()
        self.results.close()
        for fd in (*self.readers.values(), *self.writers.values()):
            os.close(fd)


def _rank_process(rank, size, command, ends, parent_ends, failed,
                  settings) -> None:
    """Body of one resident rank process: serve commands until told to stop.

    *command* — ``(fn, args, kwargs)`` — is the world's first call,
    inherited through ``fork`` so closures and lambdas work; every later
    one arrives pickled on the command pipe.  The loop ends on the
    shutdown command, on EOF of the command pipe (the parent is gone —
    fork handed this process every pipe end of the world, so all but its
    own are closed first, or the EOF would never come) and after any
    command that raised: a failed call destroys the world.  The rank
    owns nothing outside its own process but pipe ends, so however it
    ends — terminated or killed included — it leaves nothing behind.

    The result pipe doubles as the liveness channel: with an armed
    watchdog a :class:`~repro.simmpi.liveness.LivenessBeacon` streams
    ``("hb", rank, progress)`` for the duration of each command — never
    while the rank idles, when nobody reads the pipe — and a fault plan
    found in the arguments notifies ``("fault", rank, (kind, step,
    rank))`` at fire time so the parent's copy stays in sync.
    """
    for conn in parent_ends:
        conn.close()
    for other in range(size):
        if other != rank:
            ends[other].close()
    mine = ends[rank]
    transport = RankTransport(rank, size, mine.readers, mine.writers,
                              failed, settings)
    comm = ProcessCommunicator(transport)
    result_lock = threading.Lock()

    def report(msg) -> bool:
        try:
            with result_lock:
                mine.results.send(msg)
            return True
        except Exception:
            return False

    def fail(exc: BaseException) -> None:
        failed.set()   # ranks blocked in communication give up
        if not isinstance(exc, RemoteError):
            logger.error("rank %d failed: %r", rank, exc)
        report(("err", rank, _transportable(exc, rank)))

    def serve(command) -> bool:
        """Run one command and report it; False once the rank must exit."""
        beacon = None
        try:
            if isinstance(command, bytes):
                command = pickle.loads(command)
            fn, args, kwargs = command
            plan = _find_fault_plan(args, kwargs)
            if plan is not None:
                plan.on_fire = lambda record: report(("fault", rank, record))
            if settings.watchdog.enabled:
                beacon = LivenessBeacon(
                    mine.results, result_lock, rank,
                    lambda: (transport.progress_count,
                             transport.progress_stamp),
                    settings.watchdog.heartbeat,
                )
                beacon.start()
            result = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            fail(exc)
            return False
        finally:
            if beacon is not None:
                beacon.stop()
        try:
            with result_lock:
                mine.results.send(("ok", rank, result))
        except Exception as exc:  # unpicklable/oversized result
            fail(exc)
            return False
        transport.ctrl_sent += 1
        return True

    try:
        while command is not None and serve(command):
            try:
                command = mine.commands.recv_bytes()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            if command == _SHUTDOWN:
                break
    finally:
        with result_lock:
            mine.results.close()


class ProcessWorld:
    """Resident world of the process backend: launch once, call many.

    The process-backend twin of :class:`repro.simmpi.runtime.ThreadWorld`
    with identical result and error semantics: per-rank return values in
    rank order, first non-:class:`RemoteError` exception re-raised with
    ``simmpi_rank`` set, secondary aborts suppressed (see
    :func:`~repro.simmpi.comm.raise_selected`).  Ranks are daemonic
    processes forked at the **first** :meth:`call` — which they inherit,
    closure and all — and kept until :meth:`close`; later calls are
    pickled commands.  Any exception leaving a call closes the world
    first, so no half-alive world is ever left behind.

    The watchdog of the world's *settings* (``REPRO_SIMMPI_HANG_TIMEOUT``)
    arms hang detection for the duration of
    each call: ranks heartbeat their transport progress counters, and a
    rank whose counter freezes beyond the hang timeout — while some peer
    still advanced, or past the grace factor — is killed and reported as
    a :class:`RankTimeout` naming it, which a campaign answers by
    re-forming its world without that rank.  Idle time between calls is
    never a freeze: the monitor is per call.
    """

    def __init__(self, n_ranks: int, settings: Settings) -> None:
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "the simmpi process backend needs the fork start method"
            )
        self.size = n_ranks
        self.closed = False
        self._ctx = mp.get_context("fork")
        self.settings = settings
        self._owner = os.getpid()
        self._procs: list = []       # forked at the first call
        self._commands: list = []    # write ends, one per rank
        self._results: list = []     # read ends, one per rank
        self._failed = self._ctx.Event()
        self._calling = False

    def shared_array(self, shape, dtype=np.float64) -> np.ndarray:
        """Array in an anonymous shared mapping.

        Must be allocated before the first :meth:`call`: ranks inherit
        the mapping through ``fork`` when the array is among that call's
        arguments.  It has no name, so there is nothing to unlink and
        nothing a killed process could leave behind; the memory goes
        when the last process holding the array drops it.
        """
        if self._procs:
            raise RuntimeError(
                "shared arrays must be allocated before the first call"
            )
        count = int(np.prod(shape))
        buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
        return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)

    def call(self, fn, *args, **kwargs) -> list:
        """Run ``fn(comm, *args, **kwargs)`` on every rank.

        The first call forks the ranks; later ones must be picklable.
        """
        if self.closed:
            raise RuntimeError("this simmpi world is closed")
        self._calling = True
        try:
            if not self._procs:
                self._spawn((fn, args, kwargs))
            else:
                payload = pickle.dumps((fn, args, kwargs),
                                       protocol=pickle.HIGHEST_PROTOCOL)
                for conn in self._commands:
                    try:
                        conn.send_bytes(payload)
                    except OSError:
                        pass  # dead rank: the liveness sweep reports it
            results = self._collect(_find_fault_plan(args, kwargs))
        except BaseException:
            self.close()
            raise
        self._calling = False
        return results

    def _spawn(self, command) -> None:
        n = self.size
        ctx = self._ctx
        # One one-way message pipe per ordered rank pair: readers[j][i]
        # is rank j's read fd of the i -> j channel.
        readers: list[dict] = [{} for _ in range(n)]
        writers: list[dict] = [{} for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    readers[j][i], writers[i][j] = os.pipe()
        ends = []
        for rank in range(n):
            cmd_r, cmd_w = ctx.Pipe(duplex=False)
            res_r, res_w = ctx.Pipe(duplex=False)
            self._commands.append(cmd_w)
            self._results.append(res_r)
            ends.append(_RankEnds(cmd_r, res_w, readers[rank], writers[rank]))
        parent_ends = self._commands + self._results
        self._procs = [
            ctx.Process(
                target=_rank_process,
                args=(rank, n, command, ends, parent_ends, self._failed,
                      self.settings),
                name=f"simmpi-rank-{rank}",
                daemon=True,
            )
            for rank in range(n)
        ]
        for proc in self._procs:
            proc.start()
        # Drop this process's copies of the rank ends so EOF on a result
        # pipe reflects its rank alone.
        for rank_ends in ends:
            rank_ends.close()

    def _collect(self, plan) -> list:
        """Wait for every rank's report of the current call."""
        n = self.size
        watchdog = self.settings.watchdog
        results: list = [None] * n
        errors: list = [None] * n
        pending = {self._results[r]: r for r in range(n)}
        monitor = RankMonitor(watchdog, n) if watchdog.enabled else None

        def record_error(rank: int, err: BaseException) -> None:
            err.simmpi_rank = rank
            errors[rank] = err
            if not isinstance(err, RemoteError):
                logger.error("rank %d failed: %r", rank, err)

        def consume(rank: int, msg: tuple) -> bool:
            """Handle one rank message; True when the rank has reported."""
            kind = msg[0]
            if kind == "hb":
                if monitor is not None:
                    monitor.beat(rank, msg[2])
                return False
            if kind == "fault":
                if plan is not None:
                    fkind, fstep, frank = msg[2]
                    plan.mark_fired(fkind, fstep, frank)
                return False
            if kind == "ok":
                results[rank] = msg[2]
                return True
            record_error(rank, msg[2])   # "err"
            return True

        wait_timeout = (
            0.25 if monitor is None else min(0.25, watchdog.heartbeat)
        )
        while pending:
            ready = _mpc.wait(list(pending), timeout=wait_timeout)
            for conn in ready:
                if conn not in pending:
                    continue
                rank = pending[conn]
                while True:
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        del pending[conn]
                        record_error(rank, RemoteError(
                            f"rank {rank} exited without reporting a result"
                        ))
                        break
                    if consume(rank, msg):
                        del pending[conn]
                        break
                    if not conn.poll():
                        break
            if not ready:
                # Liveness sweep: a hard-killed rank never sets the
                # failure flag itself, so the parent does it on its behalf.
                for conn, rank in list(pending.items()):
                    proc = self._procs[rank]
                    if not proc.is_alive() and not conn.poll():
                        record_error(rank, RemoteError(
                            f"rank {rank} died (exit code {proc.exitcode})"
                        ))
                        self._failed.set()
                        del pending[conn]
            if monitor is not None and pending:
                suspect = monitor.hung_rank(sorted(pending.values()))
                if suspect is not None:
                    conn = next(c for c, r in pending.items() if r == suspect)
                    # Drain queued messages first: fire notifications must
                    # not be lost, and a just-landed result supersedes the
                    # hang verdict.
                    finished = False
                    try:
                        while conn.poll():
                            finished = (consume(suspect, conn.recv())
                                        or finished)
                    except (EOFError, OSError):
                        pass
                    del pending[conn]
                    if not finished:
                        record_error(suspect, RankTimeout(
                            "liveness", watchdog.hang_timeout,
                            peers=(suspect,)
                        ))
                        self._failed.set()
                        proc = self._procs[suspect]
                        if proc.is_alive():
                            logger.error(
                                "watchdog: killing hung rank %d (pid %s)",
                                suspect, proc.pid,
                            )
                            proc.kill()
        raise_selected(errors)
        return results

    def close(self) -> None:
        """End the ranks; idempotent.

        Live ranks get the shutdown command; stragglers are terminated
        after the grace period, and killed if that does not end them.  A
        no-op in a forked copy of the world: only the process that
        opened it may close it.
        """
        if self.closed or os.getpid() != self._owner:
            return
        self.closed = True
        if self._calling:
            self._failed.set()   # interrupted mid-call: unblock waiting ranks
        for conn in self._commands:
            try:
                conn.send_bytes(_SHUTDOWN)
            except OSError:
                pass
            conn.close()
        deadline = time.monotonic() + _JOIN_GRACE
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                logger.warning("terminating straggler process %s", proc.name)
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._results:
            conn.close()

