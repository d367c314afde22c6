"""Fault-tolerant distributed campaign driver.

The paper's 262k-core runs (Sec. 6) only finish because the job system
relaunches them from checkpoints after node failures.  This module
reproduces that operational loop on top of the simulated-MPI driver:
advance in checkpoint-sized chunks, persist every chunk boundary through
a rotating :class:`~repro.resilience.store.CheckpointStore`, and on any
rank failure — injected or real — reload the newest checkpoint that
verifies and relaunch the remaining steps.  Because the dynamics are
deterministic and faults fire once, a recovered campaign converges to
the unfaulted result up to the float32 rounding of the restart state.

With a :class:`repro.telemetry.RunTelemetry` attached, the campaign
streams structured events (checkpoint writes, restarts, chunk
boundaries), accumulates the cross-rank timing trees of every chunk and
emits one run report covering the whole campaign — restarts, faults and
all.
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
from repro.settings import Settings
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
    #: Elastic-recovery accounting (sharded-store campaigns).
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
    store,
    checkpoint_every: int = 4,
    max_restarts: int = 8,
    fault_plan=None,
    guard: bool = True,
    telemetry=None,
) -> CampaignResult:
    """Run *steps* steps of a :class:`DistributedSimulation`, surviving faults.

    The initial state is checkpointed before the first step, so even a
    fault in the first chunk has a restart target.  If every stored
    checkpoint fails verification, the campaign restarts from the
    pristine initial condition.  Exhausting *max_restarts* raises a
    structured :class:`DivergenceError` chained to the last failure.

    *telemetry* (a :class:`repro.telemetry.RunTelemetry`) is forwarded to
    every chunk; the per-chunk merged timing trees are accumulated into
    :attr:`CampaignResult.timing` and a campaign-wide run report —
    including guard/restart and fault statistics — is attached (and
    written to ``telemetry.directory`` when set).

    With a :class:`~repro.resilience.store.ShardedCheckpointStore` the
    campaign runs **elastically**: the ranks checkpoint in-run through
    two-phase sharded writes, and a *permanent* rank loss (``kill_rank``
    fault or :class:`~repro.simmpi.comm.RankFailure`) shrinks the
    simulation to the survivors, reloads the newest committed manifest —
    which restores on any rank count — and resumes.  Transient failures
    restart at the same size, exactly as with a plain store.

    The campaign leaves no rank world open: *dsim* and every simulation
    shrunk from it are closed before it returns or raises.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    sharded = isinstance(store, ShardedCheckpointStore)
    phi = np.array(phi0, dtype=float)
    mu = np.array(mu0, dtype=float)
    time_now = 0.0
    step_now = 0
    restarts = 0
    checkpoints_written = 0
    rank_failures = 0
    shrinks = 0
    hangs_detected = 0
    restart_reasons: list[str] = []

    events = None
    timing_total: dict | None = None
    counters_total: dict = {}
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

    def snapshot() -> dict:
        return {
            "phi": phi, "mu": mu, "time": time_now, "step_count": step_now,
            "z_offset": 0, "kernel": dsim.kernel,
        }

    def checkpoint() -> None:
        nonlocal checkpoints_written
        if sharded:
            try:
                path = store.save_global(
                    snapshot(), forest=dsim.forest, owner=dsim.owner,
                    n_ranks=dsim.n_ranks, events=events,
                )
            except OSError as exc:
                store.note_skipped()
                logger.warning(
                    "sharded checkpoint at step %d skipped after persistent "
                    "I/O failure: %r", step_now, exc,
                )
                if events is not None:
                    events.emit(
                        "checkpoint_skipped", "WARNING", step=step_now,
                        error=repr(exc),
                    )
                return
        else:
            path = store.save_state(snapshot())
        checkpoints_written += 1
        logger.info("checkpoint %d written at step %d: %s",
                    checkpoints_written, step_now, path)
        if events is not None:
            events.emit("checkpoint", step=step_now, path=str(path))

    checkpoint()

    # Every simulation the campaign steps — the caller's and each shrunk
    # one — has its resident world closed on the way out; in between, a
    # world is re-formed only by the failure that destroyed it.
    stepped = [dsim]
    try:
        while step_now < steps:
            # a sharded store checkpoints from inside the run, so the whole
            # remainder is one chunk; a plain store checkpoints per chunk
            chunk = (
                steps - step_now if sharded
                else min(checkpoint_every, steps - step_now)
            )
            try:
                res = dsim.run(
                    chunk, phi, mu,
                    t0=time_now, step0=step_now,
                    fault_plan=fault_plan, guard=guard,
                    telemetry=telemetry,
                    shard_store=store if sharded else None,
                    checkpoint_every=checkpoint_every if sharded else None,
                )
            except _RECOVERABLE as exc:
                restarts += 1
                restart_reasons.append(repr(exc))
                logger.warning(
                    "campaign chunk failed at step %d (%r); restart %d/%d",
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
                if sharded and lost and dsim.n_ranks - len(lost) >= 1:
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
                continue
            phi, mu = res.phi, res.mu
            time_now += chunk * dsim.params.dt
            step_now += chunk
            if telemetry is not None and res.timing is not None:
                from repro.telemetry.reduce import accumulate_reduced

                timing_total = (
                    res.timing if timing_total is None
                    else accumulate_reduced(timing_total, res.timing)
                )
                for name, value in (res.counters or {}).items():
                    if name.startswith("mlups"):
                        counters_total[name] = max(
                            counters_total.get(name, 0.0), value
                        )
                    else:
                        counters_total[name] = counters_total.get(name, 0) + value
            if not sharded:
                checkpoint()

    finally:
        for sim in stepped:
            sim.close()

    if sharded:
        checkpoints_written = store.stats["manifests_published"]
    result = CampaignResult(
        phi=phi,
        mu=mu,
        steps=step_now,
        time=time_now,
        restarts=restarts,
        checkpoints_written=checkpoints_written,
        faults_fired=[] if fault_plan is None else fault_plan.fired(),
        timing=timing_total,
        rank_failures=rank_failures,
        shrinks=shrinks,
        final_ranks=dsim.n_ranks,
        io_retries=store.stats["io_retries"] if sharded else 0,
        checkpoints_skipped=(
            store.stats["checkpoints_skipped"] if sharded else 0
        ),
    )
    if telemetry is not None:
        elastic_stats = None
        if sharded:
            elastic_stats = {
                "rank_failures": result.rank_failures,
                "shrinks": result.shrinks,
                "final_ranks": int(result.final_ranks),
                "io_retries": result.io_retries,
                "checkpoints_skipped": result.checkpoints_skipped,
            }
        _finalize_campaign_telemetry(
            dsim, telemetry, events, result, counters_total,
            wall=_time.perf_counter() - wall0, guard=guard,
            fault_plan=fault_plan, restart_reasons=restart_reasons,
            elastic_stats=elastic_stats, hangs_detected=hangs_detected,
        )
    return result


def _finalize_campaign_telemetry(
    dsim, telemetry, events, result: CampaignResult, counters: dict, *,
    wall: float, guard: bool, fault_plan, restart_reasons: list[str],
    elastic_stats: dict | None = None, hangs_detected: int = 0,
) -> None:
    from repro.telemetry.report import build_run_report, write_run_report

    events.emit(
        "campaign_end", steps=result.steps, restarts=result.restarts,
        checkpoints=result.checkpoints_written, wall_seconds=wall,
    )
    event_count = events.count()
    events.close()
    merged_events = telemetry.merge_events()
    cells = int(np.prod(dsim.shape))
    # The settings of the last world the campaign ran on; a campaign
    # that took no step opened none.
    settings = dsim.settings or Settings.from_env()
    liveness_stats = {
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
    }
    report = build_run_report(
        run_id=telemetry.run_id,
        config={
            "shape": list(dsim.shape),
            "blocks_per_axis": list(dsim.forest.blocks_per_axis),
            "n_ranks": dsim.n_ranks,
            "kernel": dsim.kernel,
            "overlap": dsim.overlap,
            "guard": guard,
            "dt": dsim.params.dt,
            "campaign": True,
            "settings": settings.as_dict(),
        },
        grid_shape=dsim.shape,
        n_ranks=dsim.n_ranks,
        steps=result.steps,
        wall_seconds=wall,
        mlups=result.steps * cells / wall / 1.0e6 if wall > 0 else 0.0,
        timings=result.timing,
        counters={
            **counters,
            "checkpoints_written": result.checkpoints_written,
        },
        guard_stats={
            "rollbacks": 0,
            "restarts": result.restarts,
            "violations": restart_reasons,
        },
        fault_stats=None if fault_plan is None else fault_plan.summary(),
        event_stats={
            "count": len(merged_events) or event_count,
            "path": (
                str(telemetry.directory / "events-merged.jsonl")
                if telemetry.directory is not None else None
            ),
        },
        elastic_stats=elastic_stats,
        liveness_stats=liveness_stats,
    )
    result.report = report
    path = telemetry.report_path()
    if path is not None:
        write_run_report(path, report)
        logger.info("campaign report written to %s", path)
