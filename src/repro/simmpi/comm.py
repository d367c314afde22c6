"""Communicator with MPI point-to-point and collective semantics.

Messages are matched by ``(source, tag)`` like MPI; ``ANY_SOURCE`` /
``ANY_TAG`` wildcards are supported.  NumPy payloads are copied on send so
the receiver never aliases sender memory (mimicking buffer semantics —
mutating an array after ``isend`` must not corrupt the message).

Collectives are implemented on top of point-to-point using binomial trees
(``log2 P`` rounds), the same communication structure the paper's
hierarchical mesh reduction uses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.picklable import PicklableError
from repro.settings import Settings

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "HaloRecvChannel",
    "HaloSendChannel",
    "Request",
    "CommStats",
    "RemoteError",
    "RankFailure",
    "RankTimeout",
    "raise_selected",
]

ANY_SOURCE = -1
ANY_TAG = -1

#: Seconds between deadlock/failure checks while blocked in recv/barrier.
_POLL = 0.05


class RemoteError(PicklableError, RuntimeError):
    """Raised on ranks blocked in communication when a peer rank failed."""


class RankFailure(RemoteError):
    """A failure that names the peer rank(s) to blame; raised as its
    subclass :class:`RankTimeout`.

    :attr:`failed_ranks` is what a campaign reads to decide which ranks
    its re-formed world leaves out (see
    :func:`repro.resilience.campaign.run_campaign`).
    """

    def __init__(self, failed_ranks):
        self.failed_ranks = tuple(sorted(set(failed_ranks)))
        super().__init__(f"peer rank(s) {list(self.failed_ranks)} failed")


class RankTimeout(RankFailure):
    """A blocking operation exceeded its configured deadline.

    Raised instead of hanging when a :class:`~repro.simmpi.deadline.
    DeadlinePolicy` bounds the operation (``REPRO_SIMMPI_TIMEOUT``) or
    when the process-backend watchdog declares a rank hung.  It aborts
    the world like any rank failure, and :func:`raise_selected` prefers
    it over the peers' generic :class:`RemoteError` echoes, so a
    campaign restart treats a hang exactly like a rank death;
    :attr:`failed_ranks` carries the blamed peer(s) (may be empty when
    no specific peer can be identified).
    """

    def __init__(self, op: str, timeout: float, *, peers=()):
        self.op = op
        self.timeout = float(timeout)
        self.failed_ranks = tuple(sorted(set(peers)))
        blame = (
            f" waiting on rank(s) {list(self.failed_ranks)}"
            if self.failed_ranks else ""
        )
        RuntimeError.__init__(
            self,
            f"simmpi {op} exceeded its {self.timeout:.3g}s deadline"
            f"{blame}; treating the stalled peer as failed",
        )


def raise_selected(errors) -> None:
    """Re-raise the exception a world reports for one call's per-rank
    *errors* (``None`` entries are ranks that succeeded); a no-op when no
    rank failed.

    The first primary failure (anything but a :class:`RemoteError`) wins;
    among the secondary aborts a typed :class:`RankFailure` — a deadline
    or watchdog verdict naming the stalled peer — beats a generic
    :class:`RemoteError` echo, so containment decisions survive error
    selection.  The raised exception carries the whole list as
    ``simmpi_errors``: what the other ranks had to say is not lost.
    """
    raised = [e for e in errors if e is not None]
    for wanted in (
        lambda e: not isinstance(e, RemoteError),
        lambda e: isinstance(e, RankFailure),
        lambda e: True,
    ):
        chosen = next((e for e in raised if wanted(e)), None)
        if chosen is not None:
            chosen.simmpi_errors = list(errors)
            raise chosen


def _copy_payload(obj):
    if isinstance(obj, np.ndarray):
        return obj.copy()
    return obj


@dataclass
class CommStats:
    """Per-rank message accounting (drives the Fig. 8 byte-count model)."""

    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0

    def account_send(self, payload) -> None:
        self.sends += 1
        if isinstance(payload, np.ndarray):
            self.bytes_sent += payload.nbytes


class _Mailbox:
    """Incoming-message store of one rank with condition-variable waits."""

    def __init__(self) -> None:
        self._messages: list[tuple[int, int, object]] = []
        self._cond = threading.Condition()

    def put(self, source: int, tag: int, payload) -> None:
        with self._cond:
            self._messages.append((source, tag, payload))
            self._cond.notify_all()

    def get(self, source: int, tag: int, world: "_World", deadline=None):
        with self._cond:
            while True:
                for i, (src, tg, payload) in enumerate(self._messages):
                    if (source in (ANY_SOURCE, src)) and (tag in (ANY_TAG, tg)):
                        del self._messages[i]
                        return src, tg, payload
                if world.failed.is_set():
                    raise RemoteError("a peer rank failed while this rank waited")
                if deadline is not None:
                    deadline.check()
                self._cond.wait(timeout=_POLL)

    def probe(self, source: int, tag: int) -> bool:
        with self._cond:
            return any(
                (source in (ANY_SOURCE, src)) and (tag in (ANY_TAG, tg))
                for src, tg, _ in self._messages
            )


class _PollBarrier:
    """Deadline-aware barrier that can never strand a rank.

    Replaces :class:`threading.Barrier`, whose ``wait(timeout=...)``
    *breaks* the barrier for everyone on a timeout — useless for
    polling.  This one polls a condition variable every ``_POLL``
    seconds, re-checking the world's failure flag and the caller's
    deadline, so an aborted world (or an expired deadline) surfaces as
    an exception instead of an eternal wait.
    """

    def __init__(self, parties: int) -> None:
        self.parties = parties
        self._cond = threading.Condition()
        self._count = 0
        self._generation = 0
        self._broken = False

    def abort(self) -> None:
        """Break the barrier; all current and future waits raise."""
        with self._cond:
            self._broken = True
            self._cond.notify_all()

    @property
    def broken(self) -> bool:
        return self._broken

    def wait(self, world: "_World | None" = None, deadline=None) -> None:
        with self._cond:
            if self._broken:
                self._raise_broken()
            self._count += 1
            if self._count >= self.parties:
                self._count = 0
                self._generation += 1
                self._cond.notify_all()
                return
            generation = self._generation
            while True:
                self._cond.wait(timeout=_POLL)
                if self._generation != generation:
                    return
                if self._broken:
                    self._raise_broken()
                if world is not None and world.failed.is_set():
                    self._broken = True
                    self._cond.notify_all()
                    self._raise_broken()
                if deadline is not None and deadline.expired():
                    self._broken = True
                    self._cond.notify_all()
                    deadline.check()

    @staticmethod
    def _raise_broken() -> None:
        raise RemoteError("barrier broken by a failed peer")


class _World:
    """Shared state of one SPMD run.

    A failure on any rank sets ``failed`` and aborts the barrier: every
    rank blocked in a receive or the barrier raises :class:`RemoteError`,
    the call returns and the world is closed
    (:class:`~repro.simmpi.runtime.ThreadWorld`).  There is no recovery
    inside a world; a campaign re-forms a new one.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.mailboxes = [_Mailbox() for _ in range(size)]
        self.barrier = _PollBarrier(size)
        self.failed = threading.Event()
        self.stats = [CommStats() for _ in range(size)]


def _halo_tags(channel_id: int) -> tuple[int, int]:
    """``(notify_tag, register_tag)`` of halo channel *channel_id*.

    Halo channels live in a reserved negative-tag band below the
    collective tags, two tags per channel, so notify and registration
    messages can never collide with user traffic (non-negative tags) or
    with each other: channel identity plus message role is fully encoded
    in the ``(source, tag)`` pair the mailbox already matches on.
    """
    if channel_id < 0:
        raise ValueError(f"invalid halo channel id {channel_id}")
    base = _TAG_HALO_BASE - 2 * channel_id
    return base, base - 1


class HaloSendChannel:
    """Sender endpoint of a persistent registered halo channel.

    One channel per (neighbour, axis, direction), allocated once at
    topology setup and reused every step: two payload slots (double
    buffering) plus a monotonically increasing sequence counter.  A
    steady-state halo exchange packs the outgoing slab(s) into the
    current slot and sends **one** notify message — no per-message ack.

    Slot reuse is safe without acks because exchange rounds are
    lockstep: the sender only reaches sequence ``n + 2`` (the same slot
    as ``n``) after completing round ``n + 1``, which required the
    peer's round-``n + 1`` notify, which the peer only sends after fully
    finishing round ``n`` — including consuming this channel's slot
    ``n``.  The sequence number travelling in every notify lets the
    receiver verify that discipline and fail loudly on a protocol skew
    instead of silently unpacking stale data.

    This base class is the thread-backend implementation (the two ranks
    share one address space, so the slots are a plain ndarray handed to
    the receiver by reference); the process backend subclasses it to
    carry the packed slab in every notify instead (see
    :mod:`repro.simmpi.transport`).
    """

    def __init__(self, comm, dest: int, channel_id: int, capacity: int,
                 dtype=np.float64) -> None:
        if capacity < 1:
            raise ValueError("halo channel capacity must be >= 1 element")
        self.dest = dest
        self.channel_id = channel_id
        self.capacity = int(capacity)
        self.dtype = np.dtype(dtype)
        self.seq = 0
        self.notify_tag, self.reg_tag = _halo_tags(channel_id)
        self._comm = comm
        self._slots = np.empty((2, self.capacity), dtype=self.dtype)
        comm.send(
            ("haloreg", self.channel_id, self.capacity, self.dtype.str,
             self._handle()),
            self.dest, tag=self.reg_tag,
        )

    # -- backend hooks -------------------------------------------------------

    def _handle(self):
        """What the registration record hands the receiver (thread: the
        slot array itself).

        It rides inside a tuple on purpose: the mailbox only snapshots
        bare ndarray payloads, so the receiver ends up holding a
        *reference* to the very same buffer — that aliasing is the
        channel.
        """
        return self._slots

    # -- steady-state protocol -----------------------------------------------

    def slot(self) -> np.ndarray:
        """Flat view of the slot the next :meth:`notify` will publish."""
        return self._slots[self.seq % 2]

    def message(self, used: int | None = None):
        """Notify payload publishing the current slot: its sequence number.

        *used* (the packed element count) is ignored here — the receiver
        aliases the whole slot — but the process-backend channel sends
        that prefix of the slot along with the sequence number.
        """
        return self.seq

    def notify(self, used: int | None = None) -> None:
        """Publish the current slot: one message, no ack."""
        self._comm.send(self.message(used), self.dest, tag=self.notify_tag)
        self.seq += 1


class HaloRecvChannel:
    """Receiver endpoint of a persistent registered halo channel.

    Constructed by :meth:`Communicator.accept_halo`, which blocks on the
    sender's registration message; thereafter :meth:`wait` blocks on one
    notify per exchange round and returns a view of the published slot
    for the caller to unpack straight into its ghost slices.
    """

    def __init__(self, comm, source: int, channel_id: int) -> None:
        self.source = source
        self.channel_id = channel_id
        self.seq = 0
        self.notify_tag, self.reg_tag = _halo_tags(channel_id)
        self._comm = comm
        reg = comm.recv(source, tag=self.reg_tag)
        kind = reg[0] if isinstance(reg, tuple) else None
        if kind != "haloreg" or reg[1] != channel_id:
            raise RuntimeError(
                f"halo channel {channel_id} from rank {source}: malformed "
                f"registration message {reg!r}"
            )
        # thread backend: the sender's slot array, shared by reference
        _, _, self.capacity, dtypestr, self._slots = reg
        self.dtype = np.dtype(dtypestr)

    def wait(self) -> np.ndarray:
        """Block for the next notify; returns a flat view of its slot.

        The view is only valid until the peer's next-next round begins
        (double buffering) — callers must unpack before returning to the
        exchange loop, which the exchange routine does.
        """
        seq = self._comm.recv(self.source, tag=self.notify_tag)
        return self._slots[self._advance(seq) % 2]

    def _advance(self, seq: int) -> int:
        """Check a received sequence number against the lockstep count."""
        if seq != self.seq:
            raise RuntimeError(
                f"halo channel {self.channel_id} from rank {self.source}: "
                f"expected sequence {self.seq}, got {seq} — exchange rounds "
                "out of lockstep (a skipped or repeated exchange round)"
            )
        self.seq += 1
        return seq


@dataclass
class Request:
    """Handle for a non-blocking operation."""

    _result: object = None
    _ready: bool = True
    _fn: object = field(default=None, repr=False)

    def wait(self):
        """Complete the operation; returns the received object for irecv."""
        if not self._ready:
            self._result = self._fn()
            self._ready = True
        return self._result

    def test(self) -> bool:
        """Non-destructive readiness check."""
        return self._ready


class Communicator:
    """Rank-local view of the world, mimicking ``mpi4py.MPI.Comm``.

    *settings* are the world's :class:`~repro.settings.Settings`; their
    deadline policy bounds the blocking operations (see
    :mod:`repro.simmpi.deadline`), which leaves every wait unbounded
    unless ``REPRO_SIMMPI_TIMEOUT`` (or a per-op override) is set.
    """

    def __init__(self, world: _World, rank: int, settings: Settings):
        self._world = world
        self.rank = rank
        self.size = world.size
        self.settings = settings
        self.deadlines = settings.deadlines
        #: Rank-owned storage that lives as long as the world: what an
        #: SPMD function sets up in one call of a resident world and
        #: finds again in the next (see :mod:`repro.simmpi.runtime`).
        self.resident: dict = {}

    # -- point to point ----------------------------------------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        """Blocking-semantics send (buffered: completes immediately)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        payload = _copy_payload(obj)
        self._world.stats[self.rank].account_send(payload)
        self._world.mailboxes[dest].put(self.rank, tag, payload)

    def isend(self, obj, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (eager: the copy happens at call time)."""
        self.send(obj, dest, tag)
        return Request(_result=None, _ready=True)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the payload."""
        deadline = self.deadlines.start(
            "recv", peers=(source,) if source >= 0 else ()
        )
        _, _, payload = self._world.mailboxes[self.rank].get(
            source, tag, self._world, deadline
        )
        self._world.stats[self.rank].recvs += 1
        return payload

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; completion in :meth:`Request.wait`."""
        return Request(
            _ready=False, _fn=lambda: self.recv(source, tag)
        )

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True when a matching message is already queued."""
        return self._world.mailboxes[self.rank].probe(source, tag)

    def sendrecv(self, sendobj, dest: int, source: int, sendtag: int = 0,
                 recvtag: int = ANY_TAG):
        """Combined exchange (deadlock-free in this buffered runtime)."""
        self.send(sendobj, dest, sendtag)
        return self.recv(source, recvtag)

    # -- collectives (binomial trees over point-to-point) -------------------

    def barrier(self) -> None:
        """Synchronize all ranks.

        The barrier polls (``_POLL`` cadence) rather than waiting
        unboundedly, so an aborted world — or an armed deadline policy —
        can never strand a rank in an unkillable barrier.
        """
        self._world.barrier.wait(
            self._world, deadline=self.deadlines.start("barrier")
        )

    def aborted(self) -> bool:
        """True once this world is aborted (a rank failed).

        Cheap enough to poll from a long-running loop; fault-injection
        stall loops use it to notice that peers gave up on this rank.
        """
        return self._world.failed.is_set()

    def bcast(self, obj, root: int = 0):
        """Binomial-tree broadcast from *root*."""
        vrank = (self.rank - root) % self.size
        mask = 1
        while mask < self.size:
            if vrank & mask:
                src = ((vrank - mask) + root) % self.size
                obj = self.recv(src, tag=_TAG_BCAST)
                break
            mask <<= 1
        mask >>= 1
        while mask >= 1:
            if vrank + mask < self.size:
                dst = ((vrank + mask) + root) % self.size
                self.send(obj, dst, tag=_TAG_BCAST)
            mask >>= 1
        return _copy_payload(obj)

    def gather(self, obj, root: int = 0):
        """Binomial-tree gather; returns the list at *root*, else ``None``."""
        vrank = (self.rank - root) % self.size
        items = {vrank: _copy_payload(obj)}
        mask = 1
        while mask < self.size:
            if vrank & mask:
                dst = ((vrank ^ mask) + root) % self.size
                self.send(items, dst, tag=_TAG_GATHER)
                items = None
                break
            partner = vrank | mask
            if partner < self.size:
                got = self.recv(((partner) + root) % self.size, tag=_TAG_GATHER)
                items.update(got)
            mask <<= 1
        if vrank == 0:
            return [items[i] for i in range(self.size)]
        return None

    def allgather(self, obj):
        """Gather to rank 0 then broadcast."""
        res = self.gather(obj, root=0)
        return self.bcast(res, root=0)

    def scatter(self, objs, root: int = 0):
        """Scatter a length-``size`` sequence from *root*."""
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("scatter needs one item per rank at the root")
            for r in range(self.size):
                if r != root:
                    self.send(objs[r], r, tag=_TAG_SCATTER)
            return _copy_payload(objs[root])
        return self.recv(root, tag=_TAG_SCATTER)

    def reduce(self, obj, op=None, root: int = 0):
        """Binomial-tree reduction; *op* defaults to addition."""
        op = _add if op is None else op
        vrank = (self.rank - root) % self.size
        acc = _copy_payload(obj)
        mask = 1
        while mask < self.size:
            if vrank & mask:
                dst = ((vrank ^ mask) + root) % self.size
                self.send(acc, dst, tag=_TAG_REDUCE)
                acc = None
                break
            partner = vrank | mask
            if partner < self.size:
                got = self.recv((partner + root) % self.size, tag=_TAG_REDUCE)
                acc = op(acc, got)
            mask <<= 1
        return acc if vrank == 0 else None

    def allreduce(self, obj, op=None):
        """Reduce to rank 0 then broadcast."""
        res = self.reduce(obj, op=op, root=0)
        return self.bcast(res, root=0)

    # -- persistent halo channels --------------------------------------------

    def register_halo(self, dest: int, channel_id: int, capacity: int,
                      dtype=np.float64) -> HaloSendChannel:
        """Create + announce the sender endpoint of a halo channel.

        *capacity* is in elements of *dtype*; the channel holds two
        slots of that size (double buffering).  The matching receiver
        must call :meth:`accept_halo` with the same *channel_id* — both
        sides derive ids deterministically from the topology, so no
        further negotiation is needed.
        """
        return HaloSendChannel(self, dest, channel_id, capacity, dtype)

    def accept_halo(self, source: int, channel_id: int) -> HaloRecvChannel:
        """Block for the sender's registration; returns the receiver
        endpoint of the halo channel."""
        return HaloRecvChannel(self, source, channel_id)

    # -- diagnostics ---------------------------------------------------------

    @property
    def stats(self) -> CommStats:
        """This rank's message accounting."""
        return self._world.stats[self.rank]

    def transport_counters(self) -> dict:
        """Low-level transport counters (pipe messages).

        The thread backend has no pipes, so the count is zero; the key
        exists so telemetry snapshots have the same shape on both
        backends (the process backend reports real values — see
        :meth:`repro.simmpi.transport.ProcessCommunicator.
        transport_counters`).
        """
        return {"pipe_messages": 0}


def _add(a, b):
    return a + b


_TAG_BCAST = -101
_TAG_GATHER = -102
_TAG_SCATTER = -103
_TAG_REDUCE = -104
#: Process-backend barrier tokens: counted by the transport as they
#: arrive, never matched by a receive.
_TAG_BARRIER = -105

#: Halo channels occupy the band below the collective tags, growing
#: downward two tags per channel (notify + registration).
_TAG_HALO_BASE = -200
