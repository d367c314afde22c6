"""SPMD worlds and launchers for the simulated MPI runtime.

:func:`open_world` plays the role of ``mpiexec``: it gives the caller a
**resident world** — one worker per rank, each with a
:class:`Communicator` — on which ``call(fn, ...)`` runs the same function
everywhere and collects the per-rank return values, as often as the
caller likes; ranks keep what they set up between calls.  A failure on
any rank sets a world-wide flag so peers blocked in communication abort
instead of deadlocking, the world is closed, and the first exception is
re-raised in the caller.  That is the only failure model: a world is
never repaired in place, and a caller that wants to go on opens a new one
(:func:`repro.resilience.campaign.run_campaign` re-forms a smaller world
from its newest checkpoint).  :func:`run_spmd` is the one-shot form:
open a world, one call, close.

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

__all__ = ["ThreadWorld", "open_world", "run_spmd"]

logger = logging.getLogger(__name__)


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

        threads = [
            threading.Thread(target=entry, args=(r,), name=f"simmpi-rank-{r}")
            for r in range(self.size)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
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
