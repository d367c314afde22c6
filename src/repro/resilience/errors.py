"""Exception types of the resilience subsystem.

:class:`CheckpointError` lives in :mod:`repro.io.checkpoint` (the layer
that raises it) and is re-exported here so campaign code can catch every
resilience-related failure from one module.  All pickle by state
(:class:`repro.picklable.PicklableError`).
"""

from __future__ import annotations

from repro.io.checkpoint import CheckpointError
from repro.picklable import PicklableError

__all__ = [
    "CheckpointError",
    "InvariantViolation",
    "DivergenceError",
    "InjectedFault",
]


class InvariantViolation(PicklableError, RuntimeError):
    """A guard check failed (NaN/Inf, phase-sum drift, solute content).

    Raised by a rank's guard hooks; :func:`repro.resilience.run_campaign`
    catches it and restarts from the newest committed checkpoint.
    """

    def __init__(self, violations, *, step: int | None = None,
                 rank: int | None = None):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        self.step = step
        self.rank = rank
        where = "" if step is None else f" at step {step}"
        who = "" if rank is None else f" on rank {rank}"
        super().__init__(
            f"invariant violation{where}{who}: " + "; ".join(self.violations)
        )


class DivergenceError(PicklableError, RuntimeError):
    """A campaign exhausted its restart budget.

    Carries the structured failure record a campaign driver needs to
    report: the step the run could not get past, the violations seen
    there, and how many restart attempts were spent.
    """

    def __init__(self, *, step: int, violations, attempts: int):
        self.step = step
        self.violations = list(violations)
        self.attempts = attempts
        super().__init__(
            f"run diverged at step {step} after {attempts} recovery "
            f"attempt(s): " + "; ".join(self.violations)
        )


class InjectedFault(PicklableError, RuntimeError):
    """A fault fired by a :class:`repro.resilience.faults.FaultPlan`.

    Models an external failure (rank crash, lost message); campaign
    drivers treat it like any other crash and restart from checkpoint.
    """

    def __init__(self, kind: str, *, step: int | None = None,
                 rank: int | None = None):
        self.kind = kind
        self.step = step
        self.rank = rank
        where = "" if step is None else f" at step {step}"
        who = "" if rank is None else f" on rank {rank}"
        super().__init__(f"injected fault {kind!r}{where}{who}")
