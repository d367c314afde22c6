"""Simulated MPI: an in-process SPMD runtime with MPI semantics.

The paper runs on up to 1,048,576 MPI processes; this environment has no
MPI implementation, so the repo ships a small message-passing runtime
instead (see DESIGN.md, substitution table).  Each simulated rank runs the
same SPMD function; communication goes through per-rank mailboxes with
(source, tag) matching, and the collectives are built from point-to-point
messages using binomial trees — so the *algorithms* (ghost exchange,
Algorithm 2 overlap, hierarchical mesh reduction) run unmodified and are
exercised end-to-end.

Two backends share the Communicator semantics: ``backend="thread"``
(default — one thread per rank; deterministic, GIL-serialized) and
``backend="process"`` (one OS process per rank, every message a frame
on a rank-pair pipe, :mod:`repro.simmpi.transport` — kernels genuinely
run in parallel, which is what turns Fig. 7 into a measured curve).

Main entry points:

* :func:`repro.simmpi.runtime.open_world` — a resident world of ranks
  that runs SPMD functions call after call until it is closed,
* :func:`repro.simmpi.runtime.run_spmd` — launch an SPMD function once
  (open a world, one call, close),
* :class:`repro.simmpi.comm.Communicator` — send/recv/collectives,
* :mod:`repro.simmpi.reduce_tree` — the log2(P) pairwise reduction
  schedule used by the mesh output pipeline.
"""

from repro.simmpi.comm import (
    Communicator,
    RankFailure,
    RankTimeout,
    RemoteError,
    Request,
)
from repro.simmpi.deadline import Deadline, DeadlinePolicy
from repro.simmpi.liveness import WatchdogConfig
from repro.simmpi.runtime import open_world, run_spmd

BACKENDS = ("thread", "process")

__all__ = [
    "BACKENDS",
    "Communicator",
    "Deadline",
    "DeadlinePolicy",
    "RankFailure",
    "RankTimeout",
    "RemoteError",
    "Request",
    "WatchdogConfig",
    "open_world",
    "run_spmd",
]
