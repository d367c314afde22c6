"""Fault-tolerant distributed campaign driver.

The paper's 262k-core runs (Sec. 6) only finish because the job system
relaunches them from checkpoints after node failures.  This module
reproduces that operational loop on top of the simulated-MPI driver:
the ranks checkpoint in-run through a
:class:`~repro.resilience.store.ShardedCheckpointStore` (two-phase
sharded writes at global-step boundaries), and on any rank failure —
injected or real — the campaign reloads the newest committed generation
that verifies and relaunches the remaining steps, on fewer ranks when
ranks were lost for good.  Because the dynamics are deterministic and
faults fire once, a recovered campaign converges to the unfaulted result
up to the float32 rounding of the restart state.

With a :class:`repro.telemetry.RunTelemetry` attached, the campaign
streams structured events (checkpoint writes, restarts, shrinks) and
emits one run report: the report of the launch that finished, plus the
campaign's restarts, faults, elastic and liveness accounting and its
campaign-wide steps, wall time and MLUP/s.
"""

from __future__ import annotations

import logging
import time as _time
from dataclasses import dataclass, field

import numpy as np

from repro.io.checkpoint import CheckpointError
from repro.resilience.errors import (
    DivergenceError,
    InjectedFault,
    InvariantViolation,
)
from repro.resilience.store import ShardedCheckpointStore
from repro.simmpi.comm import RankFailure, RankTimeout, RemoteError

__all__ = ["CampaignResult", "run_campaign"]

logger = logging.getLogger(__name__)

#: Failures the campaign recovers from; anything else propagates.
_RECOVERABLE = (InjectedFault, InvariantViolation, RemoteError, CheckpointError)


@dataclass
class CampaignResult:
    """Outcome of a (possibly fault-ridden) campaign."""

    phi: np.ndarray
    mu: np.ndarray
    steps: int
    time: float
    restarts: int
    checkpoints_written: int
    faults_fired: list = field(default_factory=list)
    timing: dict | None = None
    report: dict | None = None
    #: Elastic-recovery accounting.
    rank_failures: int = 0
    shrinks: int = 0
    final_ranks: int | None = None
    io_retries: int = 0
    checkpoints_skipped: int = 0


def _lost_ranks(exc) -> list[int]:
    """Ranks permanently lost in *exc* (empty for transient failures).

    ``kill_rank`` / ``rank_stall`` injected faults and
    :class:`RankFailure` (including :class:`RankTimeout` hang verdicts)
    model node death — the rank will not come back, so the campaign must
    shrink.  ``rank_kill`` (transient crash) and everything else restart
    at the same size.
    """
    if isinstance(exc, InjectedFault) and exc.kind in ("kill_rank",
                                                       "rank_stall"):
        rank = exc.rank if exc.rank is not None else getattr(
            exc, "simmpi_rank", None
        )
        return [rank] if rank is not None else []
    if isinstance(exc, RankFailure):
        return list(exc.failed_ranks)
    return []


def run_campaign(
    dsim,
    steps: int,
    phi0: np.ndarray,
    mu0: np.ndarray,
    *,
    store: ShardedCheckpointStore,
    checkpoint_every: int = 4,
    max_restarts: int = 8,
    fault_plan=None,
    guard: bool = True,
    telemetry=None,
) -> CampaignResult:
    """Run *steps* steps of a :class:`DistributedSimulation`, surviving faults.

    *store* must be a
    :class:`~repro.resilience.store.ShardedCheckpointStore`: the initial
    state is committed to it before the first step, so even a fault in
    the first steps has a restart target, and every launch's ranks
    commit a generation whenever the global step count reaches a
    multiple of *checkpoint_every*.  On a recoverable failure the
    campaign reloads the newest generation that verifies — or, if none
    does, the pristine initial condition — and relaunches the remaining
    steps.  A *permanent* rank loss (``kill_rank`` / expired
    ``rank_stall`` fault or :class:`~repro.simmpi.comm.RankFailure`)
    first shrinks the simulation to the survivors; the manifest restores
    on any rank count.  Transient failures relaunch at the same size.
    Exhausting *max_restarts* raises a structured
    :class:`DivergenceError` chained to the last failure.

    *telemetry* (a :class:`repro.telemetry.RunTelemetry`) is forwarded to
    every launch; the finishing launch's merged timing tree becomes
    :attr:`CampaignResult.timing`, and its run report — extended with
    the guard/restart, fault, elastic and liveness statistics of the
    whole campaign — is attached (and written to ``telemetry.directory``
    when set).

    The campaign leaves no rank world open: *dsim* and every simulation
    shrunk from it are closed before it returns or raises.
    """
    if not isinstance(store, ShardedCheckpointStore):
        raise TypeError(
            "run_campaign checkpoints through a ShardedCheckpointStore, "
            f"got {type(store).__name__}"
        )
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    phi = np.array(phi0, dtype=float)
    mu = np.array(mu0, dtype=float)
    time_now = 0.0
    step_now = 0
    restarts = 0
    rank_failures = 0
    shrinks = 0
    hangs_detected = 0
    restart_reasons: list[str] = []

    events = None
    wall0 = _time.perf_counter()
    if telemetry is not None:
        events = telemetry.open_events(0)
        events.emit(
            "campaign_start", steps=steps,
            checkpoint_every=checkpoint_every, n_ranks=dsim.n_ranks,
        )
    logger.info(
        "campaign: %d steps on %d ranks, checkpoint every %d",
        steps, dsim.n_ranks, checkpoint_every,
    )

    try:
        path = store.save_global(
            {"phi": phi, "mu": mu, "time": time_now, "step_count": step_now,
             "z_offset": 0, "kernel": dsim.kernel},
            forest=dsim.forest, owner=dsim.owner, n_ranks=dsim.n_ranks,
            events=events,
        )
    except OSError as exc:
        store.note_skipped()
        logger.warning(
            "initial sharded checkpoint skipped after persistent I/O "
            "failure: %r", exc,
        )
        if events is not None:
            events.emit("checkpoint_skipped", "WARNING", step=step_now,
                        error=repr(exc))
    else:
        logger.info("initial checkpoint written: %s", path)
        if events is not None:
            events.emit("checkpoint", step=step_now, path=str(path))

    # Every simulation the campaign steps — the caller's and each shrunk
    # one — has its resident world closed on the way out; in between, a
    # world is re-formed only by the failure that destroyed it.
    stepped = [dsim]
    try:
        while True:
            try:
                res = dsim.run(
                    steps - step_now, phi, mu,
                    t0=time_now, step0=step_now,
                    fault_plan=fault_plan, guard=guard,
                    telemetry=telemetry,
                    shard_store=store, checkpoint_every=checkpoint_every,
                )
                break
            except _RECOVERABLE as exc:
                restarts += 1
                restart_reasons.append(repr(exc))
                logger.warning(
                    "campaign launch from step %d failed (%r); restart %d/%d",
                    step_now, exc, restarts, max_restarts,
                )
                if isinstance(exc, RankTimeout):
                    # Deadline/watchdog containment verdict: a hung rank was
                    # detected and converted into a recoverable failure.
                    hangs_detected += 1
                    if events is not None:
                        events.emit(
                            "hang_detected", "ERROR", step=step_now,
                            op=exc.op, timeout=exc.timeout,
                            ranks=list(exc.failed_ranks),
                        )
                if restarts > max_restarts:
                    if events is not None:
                        events.emit(
                            "campaign_failed", "ERROR",
                            step=step_now, error=repr(exc), restarts=restarts - 1,
                        )
                        events.close()
                    raise DivergenceError(
                        step=step_now,
                        violations=[f"restart budget exhausted: {exc}"],
                        attempts=restarts - 1,
                    ) from exc
                lost = sorted(set(_lost_ranks(exc)))
                if lost and dsim.n_ranks - len(lost) >= 1:
                    old_n = dsim.n_ranks
                    new_n = old_n - len(lost)
                    rank_failures += len(lost)
                    shrinks += 1
                    if events is not None:
                        for rank in lost:
                            events.emit(
                                "rank_failed", "ERROR", rank=rank,
                                step=step_now, error=repr(exc),
                            )
                        events.emit(
                            "comm_shrunk", "WARNING",
                            old_ranks=old_n, new_ranks=new_n, lost=lost,
                        )
                    dsim = dsim.shrunk(new_n)
                    stepped.append(dsim)
                    logger.warning(
                        "rank(s) %s lost permanently; shrinking %d -> %d ranks",
                        lost, old_n, new_n,
                    )
                    if events is not None:
                        events.emit(
                            "reshard", n_ranks=new_n,
                            n_blocks=dsim.forest.n_blocks,
                            owner=[int(r) for r in dsim.owner],
                        )
                state = store.load_latest()
                if state is None:
                    # every generation failed verification: cold restart
                    phi = np.array(phi0, dtype=float)
                    mu = np.array(mu0, dtype=float)
                    time_now, step_now = 0.0, 0
                    logger.warning("no loadable checkpoint; cold restart from t=0")
                else:
                    phi, mu = state["phi"], state["mu"]
                    time_now, step_now = state["time"], state["step_count"]
                if events is not None:
                    events.emit(
                        "restart", "WARNING", step=step_now,
                        error=repr(exc), attempt=restarts,
                    )
    finally:
        for sim in stepped:
            sim.close()

    result = CampaignResult(
        phi=res.phi,
        mu=res.mu,
        steps=steps,
        time=time_now + (steps - step_now) * dsim.params.dt,
        restarts=restarts,
        checkpoints_written=store.stats["manifests_published"],
        faults_fired=[] if fault_plan is None else fault_plan.fired(),
        timing=res.timing,
        rank_failures=rank_failures,
        shrinks=shrinks,
        final_ranks=dsim.n_ranks,
        io_retries=store.stats["io_retries"],
        checkpoints_skipped=store.stats["checkpoints_skipped"],
    )
    if telemetry is not None:
        _finalize_campaign_telemetry(
            dsim, telemetry, events, result, res.report,
            wall=_time.perf_counter() - wall0, fault_plan=fault_plan,
            restart_reasons=restart_reasons, hangs_detected=hangs_detected,
        )
    return result


def _finalize_campaign_telemetry(
    dsim, telemetry, events, result: CampaignResult, launch: dict, *,
    wall: float, fault_plan, restart_reasons: list[str], hangs_detected: int,
) -> None:
    """The finishing *launch*'s report, extended to the whole campaign."""
    from repro.telemetry.report import build_run_report, write_run_report

    events.emit(
        "campaign_end", steps=result.steps, restarts=result.restarts,
        checkpoints=result.checkpoints_written, wall_seconds=wall,
    )
    event_count = events.count()
    events.close()
    merged_events = telemetry.merge_events()
    settings = dsim.settings  # of the world the finishing launch ran on
    report = build_run_report(
        run_id=telemetry.run_id,
        config={**launch["config"], "campaign": True},
        grid_shape=dsim.shape,
        n_ranks=dsim.n_ranks,
        steps=result.steps,
        wall_seconds=wall,
        mlups=(result.steps * launch["grid"]["cells"] / wall / 1.0e6
               if wall > 0 else 0.0),
        timings=launch["timings"],
        counters={
            **launch["counters"],
            "checkpoints_written": result.checkpoints_written,
        },
        guard_stats={
            "rollbacks": 0,
            "restarts": result.restarts,
            "violations": restart_reasons,
        },
        fault_stats=launch["faults"],
        event_stats={
            "count": len(merged_events) or event_count,
            "path": (
                str(telemetry.directory / "events-merged.jsonl")
                if telemetry.directory is not None else None
            ),
        },
        elastic_stats={
            "rank_failures": result.rank_failures,
            "shrinks": result.shrinks,
            "final_ranks": int(result.final_ranks),
            "io_retries": result.io_retries,
            "checkpoints_skipped": result.checkpoints_skipped,
        },
        liveness_stats={
            "hangs_detected": hangs_detected,
            "stalls_injected": (
                0 if fault_plan is None else sum(
                    1 for f, _s, _r in fault_plan.fired()
                    if f.kind in ("rank_stall", "rank_slow")
                )
            ),
            "deadlines_enabled": settings.deadlines.enabled,
            # only process worlds arm the watchdog
            "watchdog_enabled": (settings.backend == "process"
                                 and settings.watchdog.enabled),
        },
        tracing_stats=launch.get("tracing"),
    )
    result.report = report
    path = telemetry.report_path()
    if path is not None:
        write_run_report(path, report)
        logger.info("campaign report written to %s", path)
