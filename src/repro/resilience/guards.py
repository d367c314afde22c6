"""Guarded time-stepping: per-step invariants, rollback, dt backoff.

The explicit scheme of the paper is only conditionally stable; on a
multi-day campaign a too-aggressive ``dt`` (or a cosmic-ray bit flip)
shows up as NaNs or a drifting phase sum long before anyone looks at the
output.  :class:`StateGuard` encodes the model's cheap physical
invariants; :class:`GuardedSimulation` checks them while stepping and,
on violation, rolls back to the last checkpoint of a
:class:`~repro.resilience.store.CheckpointStore` — retrying with a
smaller time step when the same failure repeats, and raising a
structured :class:`~repro.resilience.errors.DivergenceError` once the
attempt budget is spent.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from repro.resilience.errors import DivergenceError, InvariantViolation
from repro.resilience.faults import poison

__all__ = [
    "find_violations",
    "StateGuard",
    "finite_guard",
    "GuardedSimulation",
]

logger = logging.getLogger(__name__)


def find_violations(
    phi: np.ndarray,
    mu: np.ndarray,
    *,
    sum_tol: float = 1e-6,
    bounds_tol: float = 1e-6,
) -> list[str]:
    """Check the cheap per-state invariants; return violation messages.

    * all phi and mu values finite,
    * the order parameters sum to 1 in every cell (partition of unity),
    * every phi value lies inside the Gibbs simplex bounds ``[0, 1]``
      (up to *bounds_tol* — the projection of
      :mod:`repro.core.simplex` guarantees this for a healthy state).
    """
    violations: list[str] = []
    if not np.isfinite(phi).all():
        violations.append(f"phi has {int(np.sum(~np.isfinite(phi)))} non-finite values")
    if not np.isfinite(mu).all():
        violations.append(f"mu has {int(np.sum(~np.isfinite(mu)))} non-finite values")
    if violations:
        # the remaining checks would only re-report the NaNs
        return violations
    sums = phi.sum(axis=0)
    err = float(np.abs(sums - 1.0).max()) if sums.size else 0.0
    if err > sum_tol:
        violations.append(f"phase sum deviates from 1 by {err:.3e} (tol {sum_tol:.1e})")
    lo, hi = float(phi.min()), float(phi.max())
    if lo < -bounds_tol or hi > 1.0 + bounds_tol:
        violations.append(
            f"phi leaves the Gibbs simplex bounds: min {lo:.3e}, max {hi:.3e}"
        )
    return violations


@dataclass
class StateGuard:
    """Configurable invariant checker for a :class:`Simulation`.

    *mass_drift_rtol* bounds the relative drift of the total solute
    content (:meth:`Simulation.solute_mass`, the conservation law of
    Eq. (3)) against a captured reference; boundary fluxes through the
    open top make small drift legitimate, so the default is loose.  Set
    it to ``None`` to disable the conservation check.
    """

    sum_tol: float = 1e-6
    bounds_tol: float = 1e-6
    mass_drift_rtol: float | None = 0.25
    _mass_ref: np.ndarray | None = field(default=None, repr=False)

    def capture_reference(self, sim) -> None:
        """Record the conservation reference from the current state."""
        if self.mass_drift_rtol is not None:
            self._mass_ref = sim.solute_mass()

    def violations(self, sim) -> list[str]:
        """All violated invariants of *sim*'s current state."""
        out = find_violations(
            sim.phi.interior_src,
            sim.mu.interior_src,
            sum_tol=self.sum_tol,
            bounds_tol=self.bounds_tol,
        )
        if out or self.mass_drift_rtol is None or self._mass_ref is None:
            return out
        mass = sim.solute_mass()
        scale = np.maximum(np.abs(self._mass_ref), 1e-30)
        drift = float(np.abs((mass - self._mass_ref) / scale).max())
        if drift > self.mass_drift_rtol:
            out.append(
                f"solute mass drifted by {drift:.3e} relative "
                f"(tol {self.mass_drift_rtol:.1e})"
            )
        return out


def finite_guard(stepper, fields, rank: int, *, events=None):
    """The per-step finite-value check of one rank, as a hook
    ``(step, time)``.

    *fields* lists ``(block_id, phi Field, mu Field)``; after a step the
    interiors of their ``src`` buffers must be finite, else the hook
    emits a ``guard_trip`` event (to *events*, when given), logs a
    warning and raises :class:`InvariantViolation` carrying the step and
    *rank* — the cheap check that turns silent NaN contamination (e.g.
    from a corrupted ghost message) into an abort.

    The check is a by-product of the sweeps: *stepper*'s
    :attr:`~repro.core.stepper.Stepper.nonfinite` says whether the step
    stored a non-finite value, and only then are the blocks scanned, to
    name the first bad one.  Each check's wall time goes to
    ``stepper.record("guard", seconds)``.
    """
    def check(step: int, _t: float) -> None:
        mark = time.perf_counter()
        if stepper.nonfinite:
            for bid, phi, mu in fields:
                if not (np.isfinite(phi.interior_src).all()
                        and np.isfinite(mu.interior_src).all()):
                    if events is not None:
                        events.emit(
                            "guard_trip", "ERROR", block=bid, step=step,
                            reason="non-finite field values",
                        )
                    logger.warning(
                        "guard tripped: non-finite values in block %d at "
                        "step %d (rank %d)", bid, step, rank,
                    )
                    raise InvariantViolation(
                        f"non-finite field values in block {bid}",
                        step=step, rank=rank,
                    )
        stepper.record("guard", time.perf_counter() - mark)

    return check


class GuardedSimulation:
    """Run a :class:`Simulation` under invariant guards with rollback.

    Parameters
    ----------
    sim:
        The wrapped simulation (stepped in place).
    store:
        Checkpoint store used for both the periodic checkpoints and the
        rollback source.
    guard:
        Invariant configuration; defaults to :class:`StateGuard`.
    check_every / checkpoint_every:
        Cadence (in steps) of the guard checks and of the good-state
        checkpoints.
    max_retries:
        Rollback budget before :class:`DivergenceError`.
    dt_backoff:
        Factor applied to ``dt`` when a rollback does **not** get past
        the previous failure point — a repeating blow-up means the step
        size itself is the problem.  A transient fault (e.g. an injected
        NaN that does not recur) is retried at the original ``dt``, so an
        undisturbed replay stays comparable to an unfaulted run.
    fault_plan:
        Optional :class:`FaultPlan`; ``nan_inject`` faults scheduled for
        a step poison the phase field just before that step runs.
    events:
        Optional :class:`repro.telemetry.events.EventLog`; guard trips,
        rollbacks, dt backoffs and checkpoint writes are emitted as
        structured events in addition to the stdlib log records.
    """

    def __init__(
        self,
        sim,
        store,
        *,
        guard: StateGuard | None = None,
        check_every: int = 1,
        checkpoint_every: int = 8,
        max_retries: int = 3,
        dt_backoff: float = 0.5,
        fault_plan=None,
        events=None,
    ):
        if check_every < 1 or checkpoint_every < 1:
            raise ValueError("check_every and checkpoint_every must be >= 1")
        if not 0.0 < dt_backoff < 1.0:
            raise ValueError("dt_backoff must lie in (0, 1)")
        self.sim = sim
        self.store = store
        self.guard = StateGuard() if guard is None else guard
        self.check_every = check_every
        self.checkpoint_every = checkpoint_every
        self.max_retries = max_retries
        self.dt_backoff = dt_backoff
        self.fault_plan = fault_plan
        self.events = events
        self.rollbacks = 0
        self._last_failure_step: int | None = None

    def _emit(self, kind: str, level: str = "INFO", **data) -> None:
        if self.events is not None:
            self.events.emit(kind, level, **data)

    def run(self, steps: int):
        """Advance *steps* guarded steps; returns the simulation report.

        The state on entry is checkpointed first, so even a violation in
        the very first step has a rollback target.
        """
        sim = self.sim
        if self.guard.mass_drift_rtol is not None and self.guard._mass_ref is None:
            self.guard.capture_reference(sim)
        self.store.save(sim)
        target = sim.step_count + steps
        retries = 0
        while sim.step_count < target:
            if self.fault_plan is not None:
                fault = self.fault_plan.fires("nan_inject", step=sim.step_count)
                if fault is not None:
                    poison(sim.phi.interior_src)
                    self._emit("fault", "WARNING", fault="nan_inject",
                               step=sim.step_count)
            sim.step()
            at_checkpoint = sim.step_count % self.checkpoint_every == 0
            due = sim.step_count % self.check_every == 0
            if due or at_checkpoint or sim.step_count >= target:
                violations = self.guard.violations(sim)
                if violations:
                    retries += 1
                    self._emit("guard_trip", "ERROR",
                               step=sim.step_count, violations=violations)
                    self._rollback(violations, retries)
                    continue
            if at_checkpoint:
                self.store.save(sim)
                self._emit("checkpoint", step=sim.step_count)
                retries = 0
        return sim.report()

    def _rollback(self, violations: list[str], retries: int) -> None:
        sim = self.sim
        failed_at = sim.step_count
        logger.warning(
            "guard tripped at step %d (retry %d/%d): %s",
            failed_at, retries, self.max_retries, "; ".join(violations),
        )
        if retries > self.max_retries:
            raise DivergenceError(
                step=failed_at, violations=violations, attempts=retries - 1
            )
        state = self.store.load_latest()
        if state is None:
            raise DivergenceError(
                step=failed_at,
                violations=violations + ["no loadable checkpoint to roll back to"],
                attempts=retries - 1,
            )
        sim.load_state(state)
        if (
            self._last_failure_step is not None
            and failed_at <= self._last_failure_step
        ):
            new_dt = sim.params.dt * self.dt_backoff
            logger.warning(
                "repeated failure at step %d: backing off dt to %.3e",
                failed_at, new_dt,
            )
            sim.set_dt(new_dt)
            self._emit("dt_backoff", "WARNING", step=failed_at, dt=new_dt)
        self._last_failure_step = failed_at
        self.rollbacks += 1
        self._emit("rollback", "WARNING", failed_at=failed_at,
                   resumed_at=sim.step_count, attempt=retries)
