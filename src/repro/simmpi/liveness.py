"""Liveness watchdog for the process backend: heartbeats + hang detection.

A process rank that hangs holds the world hostage without ever raising;
the parent launcher cannot tell it apart from a rank doing a long
compute unless the rank *reports progress*.  This module provides both
halves of that protocol:

* :class:`LivenessBeacon` — a daemon thread inside each rank process
  that, for the duration of one call of the world, periodically
  publishes the transport's monotonically increasing progress counter
  over the rank's result pipe (``("hb", rank, count)`` control messages,
  interleaved safely with the call's result under a shared lock).  An
  idle resident rank sends nothing: nobody reads the pipe between calls,
  and a full pipe would block the beacon while it holds the lock the
  next result needs.
* :class:`RankMonitor` — parent-side bookkeeping that distinguishes
  *slow* from *hung*: a rank whose counter keeps advancing is slow and
  left alone; a rank whose counter froze longer than
  :attr:`WatchdogConfig.hang_timeout` is a hang **suspect**.  The
  suspect is only declared dead on consensus-style evidence: some peer
  made progress *after* the suspect froze (so the world is not just
  globally paused), or the freeze outlasts ``grace_factor x
  hang_timeout`` (a collective deadlock — every rank frozen — is also
  contained, just later).  Only the *oldest* frozen rank is declared
  per sweep: ranks that froze later are almost always victims blocked
  on the real culprit.

The watchdog is **disabled by default**; set ``REPRO_SIMMPI_HANG_TIMEOUT``
to a positive number of seconds to arm it (heartbeat interval defaults
to a quarter of that, overridable via ``REPRO_SIMMPI_HEARTBEAT``).  A
declared rank is killed by the launcher and surfaces as a
:class:`~repro.simmpi.comm.RankTimeout`, which the elastic campaign
treats exactly like a rank death: shrink N -> N-1, reload the newest
sharded checkpoint, resume.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Mapping

from repro.settings import Settings

__all__ = ["LivenessBeacon", "RankMonitor", "WatchdogConfig"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WatchdogConfig:
    """Hang-detection settings of one process-backend launch."""

    #: Seconds of frozen progress before a rank becomes a hang suspect;
    #: ``None`` disables the watchdog entirely.
    hang_timeout: float | None = None
    #: Seconds between child heartbeat messages.
    heartbeat: float = 0.25
    #: A suspect is declared even without peer progress once its freeze
    #: exceeds ``grace_factor * hang_timeout`` (collective deadlock).
    grace_factor: float = 3.0

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None
                 ) -> "WatchdogConfig":
        """Config from ``REPRO_SIMMPI_HANG_TIMEOUT`` and
        ``REPRO_SIMMPI_HEARTBEAT``, as :class:`~repro.settings.Settings`
        reads them."""
        return Settings.from_env(environ).watchdog

    @property
    def enabled(self) -> bool:
        return self.hang_timeout is not None


class LivenessBeacon:
    """Child-side heartbeat publisher (daemon thread, crash-silent)."""

    def __init__(self, conn, lock: threading.Lock, rank: int,
                 progress_fn, interval: float) -> None:
        self._conn = conn
        self._lock = lock
        self._rank = rank
        self._progress_fn = progress_fn
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"simmpi-beacon-{rank}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop and wait out a heartbeat in flight, so none trails the
        rank's result into a pipe nobody reads between calls."""
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    self._conn.send(("hb", self._rank,
                                     self._progress_fn()))
            except Exception:
                # Result pipe gone (parent exited / rank finishing):
                # the beacon's job is over either way.
                return


class RankMonitor:
    """Parent-side slow-vs-hung classifier over heartbeat streams."""

    def __init__(self, config: WatchdogConfig, n_ranks: int) -> None:
        now = time.monotonic()
        self._config = config
        self._progress = {r: -1 for r in range(n_ranks)}
        self._changed = {r: now for r in range(n_ranks)}
        self._declared: set[int] = set()
        #: After a declaration the surviving ranks need time to observe
        #: the abort and report on their own; no further declarations
        #: until this instant (else every blocked victim gets killed in
        #: the sweeps right after the culprit).
        self._cooldown_until = 0.0

    def beat(self, rank: int, progress) -> None:
        """Record a heartbeat; only *advancing* progress resets the clock.

        *progress* is either a bare counter or a ``(counter, stamp)``
        pair; the stamp is the child-side ``CLOCK_MONOTONIC`` time of
        the last counter move (comparable across processes on one
        host), which orders near-simultaneous freezes exactly instead
        of by heartbeat arrival time.
        """
        stamp = None
        if isinstance(progress, (tuple, list)):
            progress, stamp = progress
        if progress != self._progress[rank]:
            self._progress[rank] = progress
            self._changed[rank] = (
                time.monotonic() if stamp is None else float(stamp)
            )

    def frozen_for(self, rank: int) -> float:
        """Seconds since *rank* last advanced its progress counter."""
        return time.monotonic() - self._changed[rank]

    def hung_rank(self, alive) -> int | None:
        """The rank to declare hung this sweep, or ``None``.

        At most one per call — the oldest-frozen suspect — because ranks
        that froze later are typically victims blocked on it; killing
        the culprit lets them abort and report on their own.
        """
        timeout = self._config.hang_timeout
        if timeout is None:
            return None
        now = time.monotonic()
        if now < self._cooldown_until:
            return None
        suspects = [
            r for r in alive
            if r not in self._declared
            and now - self._changed[r] > timeout
        ]
        if not suspects:
            return None
        suspect = min(suspects, key=lambda r: self._changed[r])
        peers = [r for r in alive if r != suspect and r not in self._declared]
        # A peer whose last advance lies within one heartbeat of the
        # suspect's freeze is no evidence — in a collective deadlock the
        # final heartbeats land microseconds apart.  Only a peer that
        # advanced clearly *after* the freeze proves the world is not
        # just globally paused.
        margin = self._config.heartbeat
        peer_advanced = any(
            self._changed[p] > self._changed[suspect] + margin
            for p in peers
        )
        frozen = now - self._changed[suspect]
        if (peer_advanced or not peers
                or frozen > timeout * self._config.grace_factor):
            self._declared.add(suspect)
            self._cooldown_until = now + timeout
            logger.error(
                "watchdog: rank %d progress frozen for %.2fs "
                "(timeout %.2fs, peer_advanced=%s); declaring it hung",
                suspect, frozen, timeout, peer_advanced,
            )
            return suspect
        return None
