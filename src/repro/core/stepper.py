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

Each sweep is one call over the whole block list
(:func:`repro.core.kernels.api.block_sweep`): one C call with the GIL
released once on the compiled rungs.  It also reports whether a value it
stored is non-finite, which is all the NaN guard needs
(:attr:`Stepper.nonfinite`).
"""

from __future__ import annotations

import time

from repro.core.kernels.api import block_sweep

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
        self.temperature = temperature
        self.dt = dt
        self.sync_phi = sync_phi
        self.sync_mu = sync_mu
        #: ``record(path, seconds)`` into *tree*, or a no-op without one.
        self.record = _discard if tree is None else tree.record
        self.phi_sweep = block_sweep(phi_kernel, "phi")
        # Sweeps hold what lasts the call (the compiled rungs' pointer
        # tables); no bound method is stored on self, so no reference
        # cycle keeps them past it.
        self.overlap = isinstance(mu_kernel, tuple)
        if self.overlap:
            local, neighbor = mu_kernel
            self.mu_sweeps = (block_sweep(local, "mu"),
                              block_sweep(neighbor, "mu_neighbor"))
        else:
            self.mu_sweeps = (block_sweep(mu_kernel, "mu"),)
        self._mu_ghosts_stale = False
        #: Whether the last step left a non-finite value in the interior
        #: of some block.
        self.nonfinite = False

    def step(self, blocks, t: float) -> None:
        """Advance every ``(phi, mu, z_offset, nz)`` block of *blocks*
        (double-buffered :class:`~repro.grid.field.Field` pairs) from
        time *t* by one ``dt``; the new state ends up in ``src``."""
        sweeps = self._algorithm2 if self.overlap else self._algorithm1
        self.nonfinite = sweeps(blocks, self._temperatures(blocks, t))
        for phi, mu, _z_off, _nz in blocks:
            phi.swap()
            mu.swap()

    def _temperatures(self, blocks, t: float) -> list:
        """``(t_old, t_new)`` of every block, built once per distinct
        ``(z_offset, nz)``."""
        slices = {}
        for _phi, _mu, z_off, nz in blocks:
            if (z_off, nz) not in slices:
                slices[z_off, nz] = (
                    slice_temperatures(self.temperature, t, z_off, nz),
                    slice_temperatures(self.temperature, t + self.dt,
                                       z_off, nz),
                )
        return [slices[z_off, nz] for _phi, _mu, z_off, nz in blocks]

    def _sweep(self, name: str, sweep, blocks, temps) -> bool:
        mark = time.perf_counter()
        nonfinite = sweep(self.ctx, blocks, temps)
        self.record(name, time.perf_counter() - mark)
        return nonfinite

    def _algorithm1(self, blocks, temps) -> bool:
        nonfinite = self._sweep("compute/phi", self.phi_sweep, blocks, temps)
        self.sync_phi("dst")
        nonfinite |= self._sweep("compute/mu", self.mu_sweeps[0], blocks,
                                 temps)
        self.sync_mu("dst")
        return nonfinite

    def _algorithm2(self, blocks, temps) -> bool:
        local, neighbor = self.mu_sweeps
        nonfinite = self._sweep("compute/phi", self.phi_sweep, blocks, temps)
        if self._mu_ghosts_stale:
            self.sync_mu("src")
        nonfinite |= self._sweep("compute/mu_local", local, blocks, temps)
        self.sync_phi("dst")
        nonfinite |= self._sweep("compute/mu_neighbor", neighbor, blocks,
                                 temps)
        self._mu_ghosts_stale = True
        return nonfinite
