"""Resilience subsystem: durable checkpoints, guardrails, fault injection.

Production phase-field campaigns (Sec. 6 of the paper) run for days on
hundreds of thousands of cores; they finish because the tooling around
them survives crashes, torn checkpoint writes and numerical blow-ups.
This package reproduces that operational layer:

* :mod:`repro.resilience.store` — rotating stores of the last K good
  checkpoints over the atomic, checksummed writer of
  :mod:`repro.io.checkpoint` (single-file, for :class:`GuardedSimulation`)
  and of two-phase sharded generations (for campaigns); corrupt
  generations are quarantined.
* :mod:`repro.resilience.guards` — per-step physical invariants
  (finiteness, partition of unity, Gibbs-simplex bounds, solute
  conservation), the distributed ranks' per-step finite-value guard
  hook, and :class:`GuardedSimulation` with rollback + dt-backoff retry.
* :mod:`repro.resilience.faults` — deterministic seeded
  :class:`FaultPlan` (rank kills, dropped/corrupted/delayed ghost
  messages, truncated checkpoints, NaN injection, checkpoint-write I/O
  failures).
* :mod:`repro.resilience.retry` — bounded exponential-backoff retry with
  deterministic jitter for transient checkpoint I/O failures.
* :mod:`repro.resilience.campaign` — distributed campaigns whose ranks
  checkpoint in-run through a :class:`ShardedCheckpointStore` and that
  relaunch from its newest committed generation after any rank failure,
  shrinking to the surviving ranks after a permanent rank loss.
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
    GuardedSimulation,
    StateGuard,
    find_violations,
    finite_guard,
)
from repro.resilience.retry import RetryPolicy, retry_io
from repro.resilience.store import CheckpointStore, ShardedCheckpointStore

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
    "GuardedSimulation",
    "StateGuard",
    "find_violations",
    "finite_guard",
    "CheckpointStore",
    "ShardedCheckpointStore",
    "RetryPolicy",
    "retry_io",
]
