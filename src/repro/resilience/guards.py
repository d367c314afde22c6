"""Guards of a distributed run: finite values every step, physics at
checkpoint steps.

The explicit scheme of the paper is only conditionally stable; on a
multi-day campaign a too-aggressive ``dt`` (or a cosmic-ray bit flip)
shows up as NaNs or a drifting phase sum long before anyone looks at the
output.  A rank of a guarded :class:`~repro.distributed.DistributedSimulation`
call registers two after-step hooks:

* :func:`finite_guard` — every step, whether the sweeps stored a
  non-finite value (cheap: the sweeps report it);
* :func:`invariant_guard` — at every checkpoint step, before the rank
  writes its shard: the model's physical invariants
  (:func:`find_violations` on its blocks, the world's solute content).

Either raises :class:`~repro.resilience.errors.InvariantViolation`;
:func:`repro.resilience.run_campaign` restarts from the newest committed
generation, so a state that breaks an invariant is never committed.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from repro.resilience.errors import InvariantViolation

__all__ = [
    "content_violation",
    "find_violations",
    "finite_guard",
    "invariant_guard",
]

logger = logging.getLogger(__name__)

#: Largest deviation of the phase sum from 1 in any cell.
SUM_TOL = 1e-6
#: Largest excursion of a phi value outside ``[0, 1]``.
BOUNDS_TOL = 1e-6
#: Largest relative change of any solute component's world content
#: between two checks.  Boundary fluxes through the open top make some
#: change legitimate, so the bound is loose.
CONTENT_RTOL = 0.25


def find_violations(phi: np.ndarray, mu: np.ndarray) -> list[str]:
    """Check the cheap per-state invariants; return violation messages.

    * all phi and mu values finite,
    * the order parameters sum to 1 in every cell (partition of unity,
      up to :data:`SUM_TOL`),
    * every phi value lies inside the Gibbs simplex bounds ``[0, 1]``
      (up to :data:`BOUNDS_TOL` — the projection of
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
    if err > SUM_TOL:
        violations.append(f"phase sum deviates from 1 by {err:.3e} (tol {SUM_TOL:.1e})")
    lo, hi = float(phi.min()), float(phi.max())
    if lo < -BOUNDS_TOL or hi > 1.0 + BOUNDS_TOL:
        violations.append(
            f"phi leaves the Gibbs simplex bounds: min {lo:.3e}, max {hi:.3e}"
        )
    return violations


def content_violation(content, reference) -> str | None:
    """Why the solute *content* breaks conservation against *reference*
    (both per component, e.g. from
    :func:`repro.core.solver.solute_content`), or ``None``.

    A relative change above :data:`CONTENT_RTOL` in any component, or a
    non-finite content, is a violation.
    """
    scale = np.maximum(np.abs(reference), 1e-30)
    change = float(np.abs((content - reference) / scale).max())
    if change <= CONTENT_RTOL:
        return None
    return (f"solute content changed by {change:.3e} relative "
            f"(tol {CONTENT_RTOL:.2g})")


def _trip(events, rank: int, step: int, reason: str, block=None):
    """Report a guard trip (event, warning) and return its exception."""
    if events is not None:
        events.emit("guard_trip", "ERROR", block=block, step=step,
                    reason=reason)
    logger.warning("guard tripped at step %d (rank %d): %s",
                   step, rank, reason)
    return InvariantViolation(reason, step=step, rank=rank)


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
                    raise _trip(events, rank, step,
                                f"non-finite field values in block {bid}",
                                block=bid)
        stepper.record("guard", time.perf_counter() - mark)

    return check


def invariant_guard(comm, fields, content, *, t0: float, every: int,
                    record, events=None):
    """The checkpoint-step invariant check of one rank, as a hook
    ``(step, time)`` to register before the checkpoint hook.

    *fields* lists the rank's ``(block_id, phi Field, mu Field)`` (one
    block shape); ``content(phi, mu, t)`` is the solute content at time
    *t* of their interiors stacked along axis 1.  Whenever *step* is a
    multiple of *every*, the hook runs :func:`find_violations` on the
    stack, then allreduces the world's content now and at the previous
    check (the first at *t0*, the call's start) and compares them with
    :func:`content_violation`.  A violation trips as in
    :func:`finite_guard`; wall time goes to ``record("guard", s)``.
    """
    def stacked():
        return (np.stack([phi.interior_src for _b, phi, _m in fields], 1),
                np.stack([mu.interior_src for _b, _p, mu in fields], 1))

    mark = time.perf_counter()
    previous = content(*stacked(), t0)
    record("guard", time.perf_counter() - mark)

    def check(step: int, t: float) -> None:
        nonlocal previous
        if step % every:
            return
        mark = time.perf_counter()
        phi, mu = stacked()
        if find_violations(phi, mu):
            for bid, phi_b, mu_b in fields:
                found = find_violations(phi_b.interior_src, mu_b.interior_src)
                if found:
                    raise _trip(events, comm.rank, step,
                                f"block {bid}: " + "; ".join(found),
                                block=bid)
        now = content(phi, mu, t)
        before, after = comm.allreduce(np.stack([previous, now]))
        reason = content_violation(after, before)
        if reason is not None:
            raise _trip(events, comm.rank, step, reason)
        previous = now
        record("guard", time.perf_counter() - mark)

    return check
