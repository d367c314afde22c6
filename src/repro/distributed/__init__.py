"""Distributed (multi-rank) solver: Algorithms 1 and 2 across blocks.

Runs the same kernels as the single-block driver, with per-rank blocks,
ghost-layer exchange through persistent registered halo channels over
the simulated MPI runtime (:mod:`repro.distributed.halo` — the only
exchange path, fault-injected runs included), and the optional
communication-hiding schedule (mu exchange hidden behind the phi sweep,
phi exchange hidden behind the split local mu sweep).
"""

from repro.distributed.solver import DistributedSimulation

__all__ = ["DistributedSimulation"]
