"""One time step of the model, written once for both solvers.

In the paper the sweeps and the ghost-layer exchanges are functors
registered on one waLBerla time loop, so the communication-hiding
schedule (Algorithm 2) is a reordering of the plain one (Algorithm 1),
not a second program.  :class:`Stepper` is that ordered sweep list:

* Algorithm 1 — φ sweep, φ sync, µ sweep, µ sync, swap;
* Algorithm 2 — φ sweep, deferred µ sync, µ-local sweep, φ sync,
  µ-neighbour sweep, swap.  The µ sync of a step is deferred into the
  next one, behind its φ sweep, which reads only local µ values.

A *sync* fills the ghost layers of one buffer of one field on every
block; it is what makes the two solvers differ.  The single-block
:class:`repro.core.solver.Simulation` fills them from its boundary
conditions, a rank of :class:`repro.distributed.DistributedSimulation`
through :meth:`repro.distributed.halo.BlockHaloRegistry.exchange`.
Everything else a step may carry (progress ticks, faults, guard,
heartbeat, checkpoints, the moving window) is a hook its caller
registers around :meth:`Stepper.step` only when asked for.
"""

from __future__ import annotations

import time

__all__ = ["Stepper", "slice_temperatures"]


def slice_temperatures(temperature, t: float, z_offset: int, nz: int):
    """Ghosted slice temperatures (``nz + 2`` values) at time *t* of a
    block whose first interior slice sits at global z index *z_offset*."""
    return temperature.at_time(t, nz + 2, z_offset - 1)


def _discard(path, seconds) -> None:
    """Stands in for :meth:`TimingTree.record` when nothing is timed."""


class Stepper:
    """The ordered sweep list of one time step over a list of blocks.

    Parameters
    ----------
    ctx:
        The :class:`~repro.core.kernels.KernelContext` of the run.
    phi_kernel:
        φ sweep ``(ctx, phi_src, mu_src, t_old) -> interior``.
    mu_kernel:
        µ sweep ``(ctx, mu_src, phi_src, phi_dst, t_old, t_new) ->
        interior``, or the ``(local, neighbour)`` pair of a split µ
        sweep, which selects Algorithm 2.
    temperature, dt:
        Temperature frame (``at_time``) and time step.
    sync_phi, sync_mu:
        ``sync(buffer)`` fills the ghost layers of buffer ``"src"`` or
        ``"dst"`` of the φ / µ field of every block.
    tree:
        Optional :class:`~repro.telemetry.timing.TimingTree`; each sweep
        over all blocks is recorded under ``compute/<sweep>``.

    A stepper belongs to one sequence of steps (one solver call): under
    Algorithm 2 it remembers that the µ ghosts of the last step are
    still to be exchanged.
    """

    def __init__(self, ctx, phi_kernel, mu_kernel, temperature, dt,
                 sync_phi, sync_mu, tree=None):
        self.ctx = ctx
        self.phi_kernel = phi_kernel
        self.mu_kernel = mu_kernel
        self.temperature = temperature
        self.dt = dt
        self.sync_phi = sync_phi
        self.sync_mu = sync_mu
        #: ``record(path, seconds)`` into *tree*, or a no-op without one.
        self.record = _discard if tree is None else tree.record
        overlap = isinstance(mu_kernel, tuple)
        self._sweeps = self._algorithm2 if overlap else self._algorithm1
        self._mu_ghosts_stale = False

    def step(self, blocks, t: float) -> None:
        """Advance every ``(phi, mu, z_offset, nz)`` block of *blocks*
        (double-buffered :class:`~repro.grid.field.Field` pairs) from
        time *t* by one ``dt``; the new state ends up in ``src``."""
        temps = [
            (slice_temperatures(self.temperature, t, z_off, nz),
             slice_temperatures(self.temperature, t + self.dt, z_off, nz))
            for _phi, _mu, z_off, nz in blocks
        ]
        self._sweeps(blocks, temps)
        for phi, mu, _z_off, _nz in blocks:
            phi.swap()
            mu.swap()

    def _phi_sweep(self, blocks, temps) -> None:
        ctx, kernel = self.ctx, self.phi_kernel
        mark = time.perf_counter()
        for (phi, mu, _z, _n), (t_old, _t_new) in zip(blocks, temps):
            phi.interior_dst[...] = kernel(ctx, phi.src, mu.src, t_old)
        self.record("compute/phi", time.perf_counter() - mark)

    def _algorithm1(self, blocks, temps) -> None:
        ctx, kernel = self.ctx, self.mu_kernel
        self._phi_sweep(blocks, temps)
        self.sync_phi("dst")
        mark = time.perf_counter()
        for (phi, mu, _z, _n), (t_old, t_new) in zip(blocks, temps):
            mu.interior_dst[...] = kernel(
                ctx, mu.src, phi.src, phi.dst, t_old, t_new
            )
        self.record("compute/mu", time.perf_counter() - mark)
        self.sync_mu("dst")

    def _algorithm2(self, blocks, temps) -> None:
        ctx, (local, neighbor) = self.ctx, self.mu_kernel
        self._phi_sweep(blocks, temps)
        if self._mu_ghosts_stale:
            self.sync_mu("src")
        mark = time.perf_counter()
        for (phi, mu, _z, _n), (t_old, t_new) in zip(blocks, temps):
            mu.interior_dst[...] = local(
                ctx, mu.src, phi.src, phi.dst, t_old, t_new
            )
        self.record("compute/mu_local", time.perf_counter() - mark)
        self.sync_phi("dst")
        mark = time.perf_counter()
        for (phi, mu, _z, _n), (t_old, _t_new) in zip(blocks, temps):
            mu.interior_dst[...] = neighbor(
                ctx, mu.interior_dst, mu.src, phi.src, phi.dst, t_old
            )
        self.record("compute/mu_neighbor", time.perf_counter() - mark)
        self._mu_ghosts_stale = True
