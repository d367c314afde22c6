"""Resilience subsystem: one recovery loop over durable sharded checkpoints.

Production phase-field campaigns (Sec. 6 of the paper) run for days on
hundreds of thousands of cores; they finish because the job system
relaunches them from single-precision checkpoints (Sec. 4) after
crashes, torn checkpoint writes and numerical blow-ups:

* :mod:`repro.resilience.campaign` — :func:`run_campaign`, the one
  recovery loop: ranks checkpoint in-run, and after any failure the
  campaign relaunches (at the same ``dt``, on the survivors after a rank
  loss) from the newest committed generation.  A guarded serial run is
  a campaign on a one-rank thread world.
* :mod:`repro.resilience.store` — the rotating store of two-phase
  sharded generations; corrupt generations are quarantined.
* :mod:`repro.resilience.guards` — a rank's guards: finite values every
  step, the physical invariants at checkpoint steps.
* :mod:`repro.resilience.faults` — deterministic seeded
  :class:`FaultPlan` (rank kills, dropped/corrupted/delayed ghost
  messages, truncated checkpoints, NaN injection, checkpoint-write I/O
  failures); a call's ``fault_plan`` is its only way in.
* :mod:`repro.resilience.retry` — bounded exponential-backoff retry with
  deterministic jitter for transient checkpoint I/O failures.
"""

from repro.resilience.campaign import CampaignResult, run_campaign
from repro.resilience.errors import (
    CheckpointError,
    DivergenceError,
    InjectedFault,
    InvariantViolation,
)
from repro.resilience.faults import FAULT_KINDS, Fault, FaultPlan, FaultyComm, stall
from repro.resilience.guards import (
    content_violation,
    find_violations,
    finite_guard,
    invariant_guard,
)
from repro.resilience.retry import RetryPolicy, retry_io
from repro.resilience.store import ShardedCheckpointStore

__all__ = [
    "CampaignResult",
    "run_campaign",
    "CheckpointError",
    "DivergenceError",
    "InjectedFault",
    "InvariantViolation",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultyComm",
    "stall",
    "content_violation",
    "find_violations",
    "finite_guard",
    "invariant_guard",
    "ShardedCheckpointStore",
    "RetryPolicy",
    "retry_io",
]
