"""Deterministic fault injection.

A :class:`FaultPlan` is a seeded, reproducible list of faults that the
guarded drivers consult at well-defined points: the start of each time
step (``rank_kill`` / ``kill_rank`` / ``rank_stall`` / ``rank_slow`` /
``nan_inject``), each outgoing message — a halo-channel notify for
ghost traffic, a send for point-to-point and collectives —
(``msg_drop`` / ``msg_corrupt`` / ``msg_delay``) and each checkpoint
a store commits (``ckpt_truncate`` tears the committed file — for a
sharded generation, one of its shards — so the load path must
quarantine it; ``io_enospc`` / ``io_torn_write`` fail a shard write
inside the sharded store's retry layer).  Every fault fires **once** — the whole point of
recovery testing is that the retry after a restart runs clean — and the
plan records what fired, so a failing test can print the exact schedule
(and seed) needed to reproduce it.  Scheduling the same fault K times at
one step models a *persistent* failure that outlasts K retries.
"""

from __future__ import annotations

import logging
import threading
import time as _time
from dataclasses import dataclass

import numpy as np

from repro.resilience.errors import InjectedFault

__all__ = ["FAULT_KINDS", "Fault", "FaultPlan", "FaultyComm", "poison",
           "rank_fault_hook", "stall"]

logger = logging.getLogger(__name__)

FAULT_KINDS = (
    "rank_kill",      # the rank raises InjectedFault (transient process
                      # crash; the world aborts and the campaign
                      # relaunches at the same size from the newest
                      # checkpoint)
    "kill_rank",      # the rank is lost permanently (node death); the
                      # campaign shrinks to the survivors
    "rank_stall",     # the rank hangs: it stops communicating without
                      # raising, for up to `delay` seconds (permanent from
                      # the peers' view; deadline/watchdog must contain it
                      # and the campaign shrinks to the survivors)
    "rank_slow",      # the rank pauses for `delay` seconds then continues
                      # (transient OS-jitter analog; must be harmless
                      # below the hang threshold)
    "msg_drop",       # a message (ghost notify or send) is lost; the
                      # sender detects the failed transfer and aborts
                      # (walltime-kill analog)
    "msg_corrupt",    # a message arrives NaN-poisoned (for ghost traffic:
                      # the packed halo slot behind the notify)
    "msg_delay",      # a message is delivered late (must be harmless)
    "ckpt_truncate",  # a committed checkpoint is cut short on disk (a
                      # sharded generation: its first shard); loading
                      # quarantines it and falls back a generation
    "nan_inject",     # a field value blows up to NaN mid-run
    "io_enospc",      # a checkpoint write fails with ENOSPC (full disk)
    "io_torn_write",  # a checkpoint write tears: a prefix reaches the
                      # final name, then the device errors out
)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``rank=None`` matches any rank (first claimant wins); *fraction* is
    the surviving byte fraction for ``ckpt_truncate``; *delay* the extra
    latency in seconds for ``msg_delay``.
    """

    kind: str
    step: int
    rank: int | None = None
    fraction: float = 0.5
    #: Extra latency in seconds: the delivery lag for ``msg_delay``, the
    #: pause for ``rank_slow``, and the stall *cap* for ``rank_stall``
    #: (a safety bound so an uncontained stall still ends eventually).
    delay: float = 0.005

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )


class FaultPlan:
    """Seeded, thread-safe, fire-once fault schedule."""

    def __init__(self, faults=(), *, seed: int = 0):
        self.faults = [f if isinstance(f, Fault) else Fault(**f) for f in faults]
        self.seed = seed
        self._fired: dict[int, tuple] = {}
        self._lock = threading.Lock()
        #: Optional ``callback((kind, step, rank))`` invoked when a fault
        #: fires.  The process backend uses it to mirror fires from a
        #: forked child copy of the plan back to the parent's copy (via
        #: :meth:`mark_fired`), so a campaign restart does not re-fire
        #: faults that already happened in a killed child.
        self.on_fire = None

    def __getstate__(self) -> dict:
        # A plan crosses a process boundary with every command sent to a
        # resident rank: the lock and the fire callback stay behind and
        # the receiving rank installs its own.
        state = self.__dict__.copy()
        del state["_lock"]
        state["on_fire"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @classmethod
    def random(cls, seed: int, *, steps: int, n_ranks: int = 1,
               kinds=FAULT_KINDS, n_faults: int = 1) -> "FaultPlan":
        """Deterministically sample *n_faults* faults from *seed*.

        Steps are drawn from ``[1, steps)`` so a fault never fires before
        the initial checkpoint exists.
        """
        rng = np.random.default_rng(seed)
        faults = []
        for _ in range(n_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            step = int(rng.integers(1, max(2, steps)))
            rank = int(rng.integers(n_ranks))
            faults.append(Fault(kind=kind, step=step, rank=rank))
        return cls(faults, seed=seed)

    def fires(self, kind: str, *, step: int, rank: int | None = None):
        """Claim-and-return the matching unfired fault, or ``None``.

        Thread-safe: simulated ranks race for rank-wildcard faults, but
        each fault is claimed exactly once.
        """
        fault = None
        with self._lock:
            for i, f in enumerate(self.faults):
                if i in self._fired or f.kind != kind or f.step != step:
                    continue
                if f.rank is not None and rank is not None and f.rank != rank:
                    continue
                self._fired[i] = (step, rank)
                logger.warning(
                    "injecting fault %s at step %d on rank %s", kind, step, rank
                )
                fault = f
                break
        if fault is not None and self.on_fire is not None:
            try:
                self.on_fire((kind, step, rank))
            except Exception:  # notification must never mask the fault
                logger.debug("fault on_fire notification failed", exc_info=True)
        return fault

    def mark_fired(self, kind: str, step: int, rank: int | None = None) -> bool:
        """Record that a matching fault fired *elsewhere* (no injection).

        Claims the first pending fault matching ``(kind, step[, rank])``
        — the bookkeeping half of the process-backend fire
        notifications (see :attr:`on_fire`).  Returns ``True`` when a
        fault was claimed.
        """
        with self._lock:
            for i, f in enumerate(self.faults):
                if i in self._fired or f.kind != kind or f.step != step:
                    continue
                if f.rank is not None and rank is not None and f.rank != rank:
                    continue
                self._fired[i] = (step, rank)
                logger.debug(
                    "fault %s at step %d on rank %s marked fired remotely",
                    kind, step, rank,
                )
                return True
        return False

    def fired(self) -> list[tuple[Fault, int, int | None]]:
        """Faults that fired, with the (step, rank) they fired at."""
        with self._lock:
            return [(self.faults[i], s, r) for i, (s, r) in self._fired.items()]

    def pending(self) -> list[Fault]:
        """Faults that have not fired yet."""
        with self._lock:
            return [f for i, f in enumerate(self.faults) if i not in self._fired]

    def summary(self) -> dict:
        """The run report's ``faults`` section: what fired, and where."""
        return {
            "fired": [
                {"kind": f.kind, "step": s, "rank": r}
                for f, s, r in self.fired()
            ],
            "pending": len(self.pending()),
        }

    def describe(self) -> str:
        """Reproduction string (seed + schedule) for test reports."""
        lines = [f"FaultPlan(seed={self.seed})"]
        for f in self.faults:
            lines.append(
                f"  {f.kind} @ step {f.step}"
                + ("" if f.rank is None else f" rank {f.rank}")
            )
        return "\n".join(lines)


def stall(comm, max_seconds: float, poll: float = 0.05) -> None:
    """Simulate a hung rank: stop communicating without raising.

    Spins until the world is aborted (peers' deadlines fired, or the
    watchdog killed this process before this returns at all) or until
    the *max_seconds* safety cap elapses — a stall must not hang the
    host forever even when no containment layer is armed.  Always
    raises: :class:`~repro.simmpi.comm.RemoteError` when the abort was
    observed (a *secondary* failure, so the peer's typed
    :class:`~repro.simmpi.comm.RankTimeout` wins error selection), or
    :class:`InjectedFault` when the cap expired first (the campaign
    treats an expired ``rank_stall`` as a permanent rank loss).
    """
    from repro.simmpi.comm import RemoteError

    t0 = _time.monotonic()
    aborted = getattr(comm, "aborted", None)
    while _time.monotonic() - t0 < max_seconds:
        if aborted is not None and aborted():
            raise RemoteError(
                f"rank {comm.rank} stalled for "
                f"{_time.monotonic() - t0:.2f}s until peers aborted"
            )
        _time.sleep(poll)
    raise InjectedFault("rank_stall", rank=getattr(comm, "rank", None))


def rank_fault_hook(comm, plan: FaultPlan, phi_field=None, events=None):
    """The step-start faults of one rank, as a hook ``(step, time)``.

    Advances the fault clock of *comm* (a :class:`FaultyComm`) and fires
    what *plan* schedules for this rank at *step*: ``rank_kill`` /
    ``kill_rank`` raise :class:`InjectedFault`, ``rank_slow`` pauses,
    ``rank_stall`` hangs until contained (:func:`stall`) and
    ``nan_inject`` poisons the interior of *phi_field* (when the rank
    owns a block).  Each fire is logged to *events* when given.
    """
    rank = comm.rank

    def emit(level: str, **data) -> None:
        if events is not None:
            events.emit("fault", level, **data)

    def inject(step: int, _t: float) -> None:
        comm.step = step
        for kind in ("rank_kill", "kill_rank"):
            if plan.fires(kind, step=step, rank=rank) is not None:
                emit("ERROR", fault=kind, step=step)
                raise InjectedFault(kind, step=step, rank=rank)
        fault = plan.fires("rank_slow", step=step, rank=rank)
        if fault is not None:
            # Transient straggler: the rank pauses but keeps its
            # heartbeat alive, so the watchdog must NOT kill it.
            emit("WARNING", fault="rank_slow", step=step, seconds=fault.delay)
            _time.sleep(fault.delay)
        fault = plan.fires("rank_stall", step=step, rank=rank)
        if fault is not None:
            # Permanent hang: freeze this rank's progress until a peer
            # deadline or the watchdog contains it (the delay is only a
            # safety cap for undeadlined runs).
            emit("ERROR", fault="rank_stall", step=step,
                 cap_seconds=fault.delay)
            stall(comm, fault.delay)
        fault = plan.fires("nan_inject", step=step, rank=rank)
        if fault is not None and phi_field is not None:
            emit("WARNING", fault="nan_inject", step=step)
            poison(phi_field.interior_src)

    return inject


def poison(arr: np.ndarray) -> None:
    """Overwrite one central value of *arr* with NaN, in place.

    Index-based write so it works on non-contiguous views (the ghosted
    interior of a :class:`repro.grid.field.Field` is one).
    """
    arr[tuple(s // 2 for s in arr.shape)] = np.nan


class FaultyComm:
    """Communicator proxy that injects message faults on outgoing traffic.

    Wraps a :class:`repro.simmpi.comm.Communicator`; the driver advances
    :attr:`step` once per time step so message faults are matched against
    the simulation clock.  Every operation with an outgoing payload is
    intercepted — blocking and non-blocking point-to-point (``send`` /
    ``isend`` / ``sendrecv``) *and* the rooted collectives — so an
    injected ``msg_drop`` / ``msg_corrupt`` / ``msg_delay`` hits whichever
    path the caller actually takes.  Ghost exchange does not send
    payloads at all: it packs registered halo channels and notifies, so
    :meth:`register_halo` hands out send channels wrapped in
    :class:`_FaultyHaloSend`, which applies the same three faults at the
    notify.  Receives pass through.
    """

    def __init__(self, comm, plan: FaultPlan):
        self._comm = comm
        #: The schedule consulted for every fault.  A resident rank sets
        #: it at the start of each call: the call's copy of the plan is
        #: the one wired to report fires back to the caller.
        self.plan = plan
        #: Simulation clock; the rank loop advances it once per time step.
        self.step = 0

    @property
    def rank(self) -> int:
        return self._comm.rank

    @property
    def size(self) -> int:
        return self._comm.size

    def _outgoing(self, obj, collective: bool = False):
        """Apply any scheduled message fault to an outgoing payload."""
        if self.plan.fires("msg_drop", step=self.step, rank=self.rank):
            # the transfer fails outright; the sending rank notices and
            # aborts — peers waiting on the message see the world fail
            # instead of deadlocking on a payload that will never arrive
            raise InjectedFault("msg_drop", step=self.step, rank=self.rank)
        fault = self.plan.fires("msg_corrupt", step=self.step, rank=self.rank)
        if fault is not None and isinstance(obj, np.ndarray):
            obj = np.array(obj, dtype=float)
            obj.flat[::3] = np.nan
        if collective:
            # A collective contribution leaving late IS late delivery:
            # the caller blocks inside the collective until the message
            # lands anyway, so sleeping here delays nothing else.
            fault = self.plan.fires("msg_delay", step=self.step,
                                     rank=self.rank)
            if fault is not None:
                _time.sleep(fault.delay)
        return obj

    def _delayed_send(self, obj, dest: int, tag: int):
        """Late-*delivery* model of ``msg_delay`` for point-to-point.

        The sender returns immediately (the fault must stay harmless —
        delaying the whole sending rank would be a stall, not a slow
        message); a daemon timer injects the snapshot into the peer's
        matching machinery *delay* seconds later.  Returns the started
        timer when the send was taken over, else ``None``.
        """
        fault = self.plan.fires("msg_delay", step=self.step, rank=self.rank)
        if fault is None:
            return None
        payload = obj.copy() if isinstance(obj, np.ndarray) else obj
        transport = getattr(self._comm, "_transport", None)
        if transport is not None and hasattr(transport, "send_inline"):
            deliver = lambda: transport.send_inline(payload, dest, tag)  # noqa: E731
        else:
            comm = self._comm
            deliver = lambda: comm.send(payload, dest, tag)  # noqa: E731

        def fire():
            try:
                deliver()
            except Exception:
                # The world may be gone by delivery time; a late message
                # into a dead run is exactly a message that never mattered.
                logger.debug("delayed message delivery failed", exc_info=True)

        timer = threading.Timer(fault.delay, fire)
        timer.daemon = True
        timer.start()
        return timer

    # -- point to point (blocking and non-blocking) ---------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        obj = self._outgoing(obj)
        if self._delayed_send(obj, dest, tag):
            return
        self._comm.send(obj, dest, tag)

    def isend(self, obj, dest: int, tag: int = 0):
        obj = self._outgoing(obj)
        if self._delayed_send(obj, dest, tag):
            from repro.simmpi.comm import Request

            return Request(_result=None, _ready=True)
        return self._comm.isend(obj, dest, tag)

    def sendrecv(self, sendobj, dest: int, source: int, sendtag: int = 0,
                 recvtag: int = -1):
        sendobj = self._outgoing(sendobj)
        if self._delayed_send(sendobj, dest, sendtag):
            return self._comm.recv(source, recvtag)
        return self._comm.sendrecv(sendobj, dest, source, sendtag, recvtag)

    # -- collectives (fault applies to this rank's contribution) --------

    def bcast(self, obj, root: int = 0):
        if self.rank == root:
            obj = self._outgoing(obj, collective=True)
        return self._comm.bcast(obj, root)

    def gather(self, obj, root: int = 0):
        return self._comm.gather(self._outgoing(obj, collective=True), root)

    def allgather(self, obj):
        return self._comm.allgather(self._outgoing(obj, collective=True))

    def scatter(self, objs, root: int = 0):
        if self.rank == root and objs is not None:
            objs = [self._outgoing(o, collective=True) for o in objs]
        return self._comm.scatter(objs, root)

    def reduce(self, obj, op=None, root: int = 0):
        return self._comm.reduce(self._outgoing(obj, collective=True), op, root)

    def allreduce(self, obj, op=None):
        return self._comm.allreduce(self._outgoing(obj, collective=True), op)

    # -- halo channels (ghost traffic) -----------------------------------

    def register_halo(self, dest: int, channel_id: int, capacity: int,
                      dtype=np.float64):
        return _FaultyHaloSend(
            self, self._comm.register_halo(dest, channel_id, capacity, dtype)
        )

    def __getattr__(self, name):
        return getattr(self._comm, name)


class _FaultyHaloSend:
    """Send-channel proxy applying message faults at the notify.

    ``msg_drop`` raises on the sender before anything is published;
    ``msg_corrupt`` NaN-poisons the packed prefix of the current slot
    before the notify publishes it; ``msg_delay`` publishes the notify
    from a timer while the sender moves on to the next slot.  An
    overtaken notify is by design a loud sequence-skew error on the
    receiver, so the next notify on this channel first waits for the
    delayed one to land.
    """

    def __init__(self, faulty: FaultyComm, channel):
        self._faulty = faulty
        self._channel = channel
        self._late = None   # timer of a delayed notify not yet joined

    def notify(self, used: int | None = None) -> None:
        faulty, channel = self._faulty, self._channel
        if self._late is not None:
            self._late.join()
            self._late = None
        step, rank = faulty.step, faulty.rank
        if faulty.plan.fires("msg_drop", step=step, rank=rank):
            raise InjectedFault("msg_drop", step=step, rank=rank)
        if faulty.plan.fires("msg_corrupt", step=step, rank=rank):
            channel.slot()[:used:3] = np.nan
        self._late = faulty._delayed_send(
            channel.message(used), channel.dest, channel.notify_tag
        )
        if self._late is None:
            channel.notify(used)
        else:
            # The timer publishes this round; the sender moves on to the
            # other slot now, as it would after an undelayed notify.
            channel.seq += 1

    def __getattr__(self, name):
        return getattr(self._channel, name)
