"""Configurable deadlines for blocking simmpi operations.

The paper's 262k-core runs are governed by the slowest participant; a
rank that *hangs* (stuck NIC, wedged I/O) rather than crashes would
deadlock the whole world forever, because every blocking wait in the
runtime — ``recv``, ``barrier``, waits for room in a full pipe of the
process transport — polls without a bound.  This module supplies the bound: a
:class:`DeadlinePolicy` maps each blocking-operation class to an
optional timeout, and a started :class:`Deadline` is checked on every
poll cycle, raising a typed :class:`~repro.simmpi.comm.RankTimeout`
(a :class:`~repro.simmpi.comm.RankFailure` subclass, so the elastic
shrink-and-resume machinery treats a hang exactly like a death).

Deadlines are **disabled by default** (``None`` everywhere): the tier-1
suite and every existing workload run bit-for-bit unchanged unless
``REPRO_SIMMPI_TIMEOUT`` — or a per-op override such as
``REPRO_SIMMPI_TIMEOUT_RECV`` — is set to a positive number of seconds.
A value ``<= 0`` (or empty) also means "no deadline", so a matrix job
can switch the layer off explicitly.  :class:`repro.settings.Settings`
reads the variables, once per world.

Operation classes (``<OP>`` in the override variables):

``recv``
    Blocking receives and posted-receive completion (both backends).
``send``
    Waits of the process transport for room in a full pipe (a peer
    that never receives).
``barrier``
    Barrier waits (both backends).
``shrink``
    The survivor rendezvous of :meth:`Communicator.shrink`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.settings import DEADLINE_OPS, Settings

__all__ = ["DEADLINE_OPS", "Deadline", "DeadlinePolicy"]


class Deadline:
    """One started countdown for a blocking operation.

    Cheap to poll: ``expired()`` is a single ``time.monotonic`` call.
    *peers* names the rank(s) the operation is waiting on, so the raised
    :class:`~repro.simmpi.comm.RankTimeout` can blame them.
    """

    __slots__ = ("op", "timeout", "peers", "_expiry")

    def __init__(self, op: str, timeout: float, peers=()) -> None:
        self.op = op
        self.timeout = float(timeout)
        self.peers = tuple(peers)
        self._expiry = time.monotonic() + self.timeout

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self._expiry - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self._expiry

    def check(self) -> None:
        """Raise :class:`~repro.simmpi.comm.RankTimeout` once expired."""
        if self.expired():
            from repro.simmpi.comm import RankTimeout

            raise RankTimeout(self.op, self.timeout, peers=self.peers)


@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-operation timeout configuration (``None`` = wait forever)."""

    default: float | None = None
    overrides: Mapping[str, float | None] = field(default_factory=dict)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None
                 ) -> "DeadlinePolicy":
        """Policy from ``REPRO_SIMMPI_TIMEOUT`` (+ ``_<OP>`` overrides),
        as :class:`~repro.settings.Settings` reads them."""
        return Settings.from_env(environ).deadlines

    @property
    def enabled(self) -> bool:
        """True when any operation class has a bound."""
        return self.default is not None or any(
            v is not None for v in self.overrides.values()
        )

    def limit(self, op: str) -> float | None:
        """Timeout seconds for *op*, or ``None`` (unbounded)."""
        if op in self.overrides:
            return self.overrides[op]
        return self.default

    def start(self, op: str, peers=()) -> Deadline | None:
        """Begin a countdown for *op*; ``None`` when *op* is unbounded."""
        limit = self.limit(op)
        if limit is None:
            return None
        return Deadline(op, limit, peers)
