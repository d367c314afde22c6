"""SPMD worlds and launchers for the simulated MPI runtime.

:func:`open_world` plays the role of ``mpiexec``: it gives the caller a
**resident world** — one worker per rank, each with a
:class:`Communicator` — on which ``call(fn, ...)`` runs the same function
everywhere and collects the per-rank return values, as often as the
caller likes; ranks keep what they set up between calls.  A failure on
any rank sets a world-wide flag so peers blocked in communication abort
instead of deadlocking, the world is closed, and the first exception is
re-raised in the caller.  :func:`run_spmd` is the one-shot form: open a
world, one call, close.

Two execution backends share these semantics:

* ``"thread"`` (default) — one thread per rank, unbounded in-process
  mailboxes.  Deterministic, debuggable, zero startup cost; kernels
  serialize on the GIL, so it models but does not measure speedup.
* ``"process"`` — one OS process per rank, every message a frame on a
  rank-pair pipe (:mod:`repro.simmpi.transport`).  Kernels genuinely
  run in parallel; a sender waiting for room in a full pipe keeps
  draining its own, so no send order can deadlock.
"""

from __future__ import annotations

import dataclasses
import logging
import threading

import numpy as np

from repro.settings import Settings
from repro.simmpi.comm import Communicator, RemoteError, _World, raise_selected

__all__ = [
    "ThreadWorld",
    "open_world",
    "run_spmd",
    "run_spmd_elastic",
    "run_spmd_resilient",
]

logger = logging.getLogger(__name__)


def _run_rank_threads(n_ranks: int, entry, prefix: str) -> None:
    """Run ``entry(rank)`` on one thread per rank and wait for all."""
    threads = [
        threading.Thread(target=entry, args=(r,), name=f"{prefix}-{r}")
        for r in range(n_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class ThreadWorld:
    """Resident world of the thread backend.

    What stays resident is the rank *state* — the mailboxes, the barrier
    and one :class:`Communicator` per rank with its ``resident``
    storage — not the threads: every :meth:`call` starts one
    ``simmpi-rank-<r>`` thread per rank and joins them, which is cheap,
    and leaves no idle thread behind for a later ``fork`` to trip over.
    Every rank's communicator holds the world's *settings*.
    """

    def __init__(self, n_ranks: int, settings: Settings) -> None:
        self.size = n_ranks
        self.closed = False
        self.settings = settings
        self._world = _World(n_ranks)
        self._comms = [Communicator(self._world, r, settings)
                       for r in range(n_ranks)]

    def shared_array(self, shape, dtype=np.float64) -> np.ndarray:
        """Array every rank can address: thread ranks share the heap."""
        return np.empty(tuple(shape), dtype=dtype)

    def call(self, fn, *args, **kwargs) -> list:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; the per-rank
        return values in rank order.  A failure on any rank, or an
        interrupt of the wait, closes the world before it is re-raised."""
        if self.closed:
            raise RuntimeError("this simmpi world is closed")
        world = self._world
        results: list = [None] * self.size
        errors: list = [None] * self.size

        def entry(rank: int) -> None:
            try:
                results[rank] = fn(self._comms[rank], *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                exc.simmpi_rank = rank
                errors[rank] = exc
                if not isinstance(exc, RemoteError):
                    logger.error("rank %d failed: %r", rank, exc)
                world.failed.set()
                world.barrier.abort()

        try:
            _run_rank_threads(self.size, entry, "simmpi-rank")
        except BaseException:
            # Interrupted while waiting: make blocked ranks give up.
            world.failed.set()
            world.barrier.abort()
            self.close()
            raise
        if any(e is not None for e in errors):
            self.close()
        raise_selected(errors)
        return results

    def close(self) -> None:
        """Drop the rank state; idempotent."""
        self.closed = True
        for comm in self._comms:
            comm.resident.clear()
        self._comms = []


def open_world(n_ranks: int, backend: str | None = None):
    """A resident world of *n_ranks* ranks on *backend*.

    The world offers ``call(fn, *args, **kwargs)`` — run an SPMD function
    on its ranks and return the per-rank results — any number of times,
    ``shared_array(shape)`` for arrays the caller and every rank address,
    and ``close()``.  Ranks keep what they set up in ``comm.resident``
    between calls.  A call that raises closes the world first, so a world
    is either healthy or gone.  The world's
    :class:`~repro.settings.Settings` are resolved here, once per world,
    and kept as its ``settings``.

    *backend* is ``"thread"`` or ``"process"`` (see the module
    docstring); ``None`` defers to ``REPRO_SIMMPI_BACKEND``, defaulting
    to ``"thread"``.  Either way it is the world's ``settings.backend``.
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    settings = Settings.from_env()
    if backend is not None:
        if backend not in ("thread", "process"):
            raise ValueError(
                f"unknown simmpi backend {backend!r}; use 'thread' or "
                "'process'"
            )
        settings = dataclasses.replace(settings, backend=backend)
    if settings.backend == "process":
        from repro.simmpi.transport import ProcessWorld

        return ProcessWorld(n_ranks, settings)
    return ThreadWorld(n_ranks, settings)


def run_spmd(n_ranks: int, fn, *args, backend: str | None = None,
             **kwargs) -> list:
    """Run ``fn(comm, *args, **kwargs)`` on *n_ranks* simulated ranks.

    One call on a world opened for it and closed after it.  Returns the
    list of per-rank return values (rank order).  Exceptions raised by
    any rank abort the whole run and are re-raised (peers' secondary
    :class:`RemoteError` aborts are suppressed).  The re-raised exception
    carries the failing rank as a ``simmpi_rank`` attribute.

    *backend* selects the execution substrate, as in :func:`open_world`.
    """
    world = open_world(n_ranks, backend)
    try:
        return world.call(fn, *args, **kwargs)
    finally:
        world.close()


def run_spmd_elastic(n_ranks: int, fn, *args, **kwargs) -> tuple[list, dict]:
    """Run *fn* with ULFM-style failure containment instead of world abort.

    A rank whose function raises is marked **dead** in the world — it
    does not tear the run down.  Peers blocked in communication observe
    the death as a typed :class:`~repro.simmpi.comm.RankFailure` and may
    call :meth:`~repro.simmpi.comm.Communicator.shrink` to obtain a
    working sub-communicator of the survivors and finish their work.

    Returns ``(results, failures)``: *results* is the per-rank return
    value list (``None`` for dead ranks) and *failures* maps each dead
    rank to the exception that killed it (each annotated with a
    ``simmpi_rank`` attribute).  Nothing is re-raised — containment is
    the whole point — so callers decide how to treat partial success.
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    world = _World(n_ranks)
    settings = Settings.from_env()
    results: list = [None] * n_ranks
    errors: list = [None] * n_ranks

    def entry(rank: int) -> None:
        comm = Communicator(world, rank, settings)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported via failures
            exc.simmpi_rank = rank
            errors[rank] = exc
            if not isinstance(exc, RemoteError):
                logger.warning("rank %d died (contained): %r", rank, exc)
            world.mark_dead(rank)

    _run_rank_threads(n_ranks, entry, "simmpi-elastic")
    failures = {r: e for r, e in enumerate(errors) if e is not None}
    if failures:
        logger.info(
            "elastic SPMD run finished with %d contained failure(s): ranks %s",
            len(failures), sorted(failures),
        )
    return results, failures


def run_spmd_resilient(
    n_ranks: int,
    fn,
    make_args,
    *,
    max_attempts: int = 3,
    retry_on: tuple = (Exception,),
) -> list:
    """Retry-with-restart wrapper around :func:`run_spmd`.

    Each attempt gets a **fresh world** (mailboxes, barrier, failure
    flag) and freshly built arguments: ``make_args(attempt, last_exc)``
    returns the ``(args, kwargs)`` pair for attempt *attempt* (0-based),
    letting the caller reload state from a checkpoint store and shrink
    the remaining work between attempts.  Exceptions matching *retry_on*
    trigger another attempt until *max_attempts* is exhausted, after
    which the last exception is re-raised.
    """
    if max_attempts < 1:
        raise ValueError("need at least one attempt")
    last_exc = None
    for attempt in range(max_attempts):
        args, kwargs = make_args(attempt, last_exc)
        try:
            return run_spmd(n_ranks, fn, *args, **kwargs)
        except retry_on as exc:  # noqa: PERF203 - retry loop
            last_exc = exc
            logger.warning(
                "SPMD attempt %d/%d failed (%r); retrying",
                attempt + 1, max_attempts, exc,
            )
    raise last_exc
