"""Every ``REPRO_*`` setting of the library, read in one place.

:meth:`Settings.from_env` is the only reader of the process environment
in ``repro``.  A simmpi world resolves one :class:`Settings` when it
opens (:func:`repro.simmpi.runtime.open_world`) and hands it to every
rank: thread ranks share the object, process ranks inherit it through
``fork``.  Drivers write :meth:`Settings.as_dict` into the RunReport
``config``, so a report records the configuration its run had.

An empty value means unset.  Second counts are parsed by one rule:
empty, ``none`` or ``off`` (any case), zero or a negative number
disable; anything else that is not a number is a :class:`ValueError`
naming the variable, as is every other malformed value and a
``REPRO_SIMMPI_TIMEOUT_<OP>`` whose ``<OP>`` is no deadline operation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from repro.simmpi.deadline import DeadlinePolicy
    from repro.simmpi.liveness import WatchdogConfig

__all__ = ["DEADLINE_OPS", "KERNEL_BACKENDS", "Settings"]

#: Blocking-operation classes a deadline can bound: the ``<OP>`` of
#: ``REPRO_SIMMPI_TIMEOUT_<OP>``.
DEADLINE_OPS = ("recv", "send", "barrier")

#: ``REPRO_KERNEL_BACKEND`` spellings and the choice each one makes.
KERNEL_BACKENDS = {
    "auto": "auto", "cffi": "cffi",
    "none": "none", "off": "none", "disabled": "none",
}

_TIMEOUT = "REPRO_SIMMPI_TIMEOUT"
_OFF = ("", "none", "off")


def _seconds(environ: Mapping[str, str], name: str) -> float | None:
    """Seconds from *environ*'s *name*; ``None`` when unset or off."""
    raw = (environ.get(name) or "").strip()
    if raw.lower() in _OFF:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"invalid simmpi timeout {name}={raw!r}; expected seconds "
            "(float), empty/'none'/'off' to disable"
        ) from None
    return value if value > 0 else None


def _timeout_ops(environ: Mapping[str, str]) -> dict[str, float | None]:
    """The ``REPRO_SIMMPI_TIMEOUT_<OP>`` overrides set in *environ*; a
    non-empty one whose ``<OP>`` is not in :data:`DEADLINE_OPS` is a
    :class:`ValueError`, so a misspelt name is never ignored."""
    names = {f"{_TIMEOUT}_{op.upper()}": op for op in DEADLINE_OPS}
    for name in environ:
        if (name.startswith(f"{_TIMEOUT}_") and name not in names
                and (environ[name] or "").strip()):
            raise ValueError(
                f"unknown simmpi deadline operation {name}; expected "
                f"{_TIMEOUT}_<OP> with <OP> one of "
                f"{'|'.join(op.upper() for op in DEADLINE_OPS)}"
            )
    return {op: _seconds(environ, name) for name, op in names.items()
            if name in environ}


def _choice(environ: Mapping[str, str], name: str, choices: Mapping[str, str],
            default: str) -> str:
    raw = (environ.get(name) or "").strip()
    if not raw:
        return default
    choice = choices.get(raw.lower())
    if choice is None:
        raise ValueError(
            f"unknown {name} {raw!r} (expected {'|'.join(choices)})"
        )
    return choice


@dataclass(frozen=True)
class Settings:
    """The resolved ``REPRO_*`` configuration of one world.

    Plain values, so reading them imports nothing; :attr:`deadlines` and
    :attr:`watchdog` build the simmpi policies from them.
    """

    backend: str                # REPRO_SIMMPI_BACKEND: thread | process
    timeout: float | None       # REPRO_SIMMPI_TIMEOUT: seconds, every op
    timeout_ops: Mapping[str, float | None]   # REPRO_SIMMPI_TIMEOUT_<OP>
    hang_timeout: float | None  # REPRO_SIMMPI_HANG_TIMEOUT: seconds
    heartbeat: float            # REPRO_SIMMPI_HEARTBEAT: seconds
    trace: bool                 # REPRO_TRACE (off: empty, 0, off, none)
    kernel_backend: str         # REPRO_KERNEL_BACKEND: auto | cffi | none
    compiled_cache: str | None  # REPRO_COMPILED_CACHE: kernel build dir

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "Settings":
        """Settings from *environ* (default: the process environment)."""
        env = os.environ if environ is None else environ
        hang = _seconds(env, "REPRO_SIMMPI_HANG_TIMEOUT")
        beat = _seconds(env, "REPRO_SIMMPI_HEARTBEAT")
        if beat is None:
            beat = 0.25 if hang is None else hang / 4.0
        return cls(
            backend=_choice(env, "REPRO_SIMMPI_BACKEND",
                            {"thread": "thread", "process": "process"},
                            "thread"),
            timeout=_seconds(env, _TIMEOUT),
            timeout_ops=_timeout_ops(env),
            hang_timeout=hang,
            heartbeat=max(0.01, beat),
            trace=(env.get("REPRO_TRACE") or "").strip().lower()
            not in _OFF + ("0",),
            kernel_backend=_choice(env, "REPRO_KERNEL_BACKEND",
                                   KERNEL_BACKENDS, "auto"),
            compiled_cache=env.get("REPRO_COMPILED_CACHE") or None,
        )

    @property
    def deadlines(self) -> DeadlinePolicy:
        """The deadline policy of the ``REPRO_SIMMPI_TIMEOUT*`` values."""
        from repro.simmpi.deadline import DeadlinePolicy

        return DeadlinePolicy(self.timeout, self.timeout_ops)

    @property
    def watchdog(self) -> WatchdogConfig:
        """The process-backend watchdog of the hang/heartbeat values."""
        from repro.simmpi.liveness import WatchdogConfig

        return WatchdogConfig(self.hang_timeout, self.heartbeat)

    def as_dict(self) -> dict:
        """JSON-ready record of every setting (RunReport ``config``)."""
        return {
            "backend": self.backend,
            "timeout": {op: self.timeout_ops.get(op, self.timeout)
                        for op in DEADLINE_OPS},
            "hang_timeout": self.hang_timeout,
            "heartbeat": self.heartbeat,
            "trace": self.trace,
            "kernel_backend": self.kernel_backend,
            "compiled_cache": self.compiled_cache,
        }
