"""Single-block simulation driver (Algorithm 1 of the paper).

:class:`Simulation` owns the double-buffered fields, boundary handling,
frozen temperature and moving window, and advances them with a selectable
kernel rung through the one step of :mod:`repro.core.stepper`:

1. ``phi_dst <- phi-kernel(phi_src, mu_src)``
2. phi ghost-layer update (boundaries; exchange in multi-block runs)
3. ``mu_dst <- mu-kernel(mu_src, phi_src, phi_dst)``
4. mu ghost-layer update
5. swap both fields

It is the one-block instance of that step, whose ghost layers come from
the boundary conditions alone; the distributed driver in
:mod:`repro.distributed.solver` runs the same step over many blocks with
the inter-block ghost exchange, and the communication-hiding schedule of
Algorithm 2.  :func:`problem_defaults` is the directional-solidification
set-up both drivers start from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.interpolation import moelans_h
from repro.core.kernels import get_mu_kernel, get_phi_kernel, make_context
from repro.core.moving_window import MovingWindow, shift_along_growth_axis
from repro.core.nucleation import voronoi_initial_condition
from repro.core.parameters import PhaseFieldParameters
from repro.core.regions import classify, front_position
from repro.core.stepper import Stepper, slice_temperatures
from repro.core.temperature import ConstantTemperature, FrozenTemperature
from repro.grid.boundary import BoundarySpec, Dirichlet, Neumann, apply_boundaries
from repro.grid.field import Field
from repro.thermo.system import TernaryEutecticSystem

__all__ = ["Simulation", "SimulationReport", "problem_defaults",
           "solute_content"]


def problem_defaults(
    shape: tuple[int, ...],
    system: TernaryEutecticSystem | None = None,
    params: PhaseFieldParameters | None = None,
    temperature: FrozenTemperature | ConstantTemperature | None = None,
    phi_bc: BoundarySpec | None = None,
    mu_bc: BoundarySpec | None = None,
):
    """``(system, params, temperature, phi_bc, mu_bc)`` of a run on the
    interior *shape* (growth axis last), each ``None`` replaced by the
    paper's directional-solidification default.

    Defaults: the Ag-Al-Cu dataset, parameters from
    :meth:`PhaseFieldParameters.for_system`, a gentle gradient pulled at
    constant velocity with the eutectic isotherm near mid-height, and
    the Fig. 2 boundaries (periodic transverse, Neumann bottom, Dirichlet
    top for mu at the far-field melt value).  Raises ``ValueError`` when
    *params* was made for another dimension than *shape*.
    """
    dim = len(shape)
    system = system if system is not None else TernaryEutecticSystem()
    if params is None:
        params = PhaseFieldParameters.for_system(system, dim=dim)
    if params.dim != dim:
        raise ValueError(f"params.dim={params.dim} does not match shape {shape}")
    if temperature is None:
        nz = shape[-1]
        temperature = FrozenTemperature(
            t_ref=system.t_eutectic,
            gradient=4.0 / nz,
            velocity=0.02,
            z0=0.45 * nz * params.dx,
            dx=params.dx,
        )
    if phi_bc is None:
        phi_bc = BoundarySpec.directional(dim)
    if mu_bc is None:
        mu_bc = BoundarySpec.directional(dim, bottom=Neumann(), top=Dirichlet(0.0))
    return system, params, temperature, phi_bc, mu_bc


def solute_content(system, phi, mu, temps) -> np.ndarray:
    """Total independent-component content ``sum_cells c(phi, mu, T)``
    (Eq. 3, conserved up to boundary fluxes) of the interiors *phi* /
    *mu*, whose z slices sit at the temperatures *temps* (last axis; any
    leading axes match leading spatial axes, e.g. a stack of blocks)."""
    t = np.asarray(temps, dtype=float)
    t = t.reshape(t.shape[:-1] + (1,) * (phi.ndim - 1 - t.ndim)
                  + t.shape[-1:])
    c = system.concentration(moelans_h(phi), mu, t)
    return c.reshape(c.shape[0], -1).sum(axis=1)


@dataclass
class SimulationReport:
    """Summary diagnostics returned by :meth:`Simulation.run`."""

    steps: int
    time: float
    front_z: float
    phase_fractions: np.ndarray
    solute_mass: np.ndarray
    window_shift: int


class Simulation:
    """Grand-potential phase-field simulation on a single block.

    Parameters
    ----------
    shape:
        Interior cell counts; the growth direction is the last axis.
    system, params, temperature, phi_bc, mu_bc:
        Alloy thermodynamics, model/numerics parameters, a
        :class:`FrozenTemperature` or :class:`ConstantTemperature`, and
        the boundary specs; each ``None`` takes the directional default
        of :func:`problem_defaults`.
    kernel:
        Optimization-ladder rung used for both sweeps.
    moving_window:
        Optional :class:`MovingWindow` policy.
    imex:
        Use the semi-implicit (spectrally stabilized) mu update instead of
        the explicit kernel — the paper's announced implicit-solver future
        work; allows time steps beyond the diffusive stability limit.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        system: TernaryEutecticSystem | None = None,
        params: PhaseFieldParameters | None = None,
        temperature: FrozenTemperature | ConstantTemperature | None = None,
        kernel: str = "shortcut",
        phi_bc: BoundarySpec | None = None,
        mu_bc: BoundarySpec | None = None,
        moving_window: MovingWindow | None = None,
        imex: bool = False,
    ):
        self.shape = tuple(shape)
        self.dim = len(shape)
        (self.system, self.params, self.temperature, self.phi_bc,
         self.mu_bc) = problem_defaults(
            self.shape, system, params, temperature, phi_bc, mu_bc
        )
        self.ctx = make_context(self.system, self.params)
        from repro.core.kernels import COMPILED_RUNGS, compiled

        kernel = compiled.maybe_fallback(kernel)
        self.kernel_name = kernel
        #: Seconds spent compiling/warming the kernel backend before the
        #: first timed step (0.0 for the NumPy rungs).  Benchmarks subtract
        #: this so JIT warmup never pollutes MLUP/s numbers.
        self.compile_seconds = 0.0
        if kernel in COMPILED_RUNGS:
            self.compile_seconds = compiled.warmup(self.ctx, dim=self.dim)
        self._phi_kernel = get_phi_kernel(kernel)
        self.imex = imex
        if imex:
            from repro.core.imex import semi_implicit_mu_step

            self._mu_kernel = semi_implicit_mu_step
        else:
            self._mu_kernel = get_mu_kernel(kernel)

        self.phi = Field(self.system.n_phases, self.shape)
        self.mu = Field(self.system.n_solutes, self.shape)
        self.moving_window = moving_window
        self.time = 0.0
        self.step_count = 0
        self.z_offset = 0

        # default initial condition: liquid everywhere
        ell = self.system.liquid_index
        self.phi.src[ell] = 1.0
        self.apply_boundaries("src")

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    def initialize(self, phi_interior: np.ndarray, mu_interior: np.ndarray) -> None:
        """Set the initial interior state and fill ghost layers."""
        self.phi.set_interior(phi_interior, "src")
        self.mu.set_interior(mu_interior, "src")
        self.apply_boundaries("src")
        self.time = 0.0
        self.step_count = 0
        self.z_offset = 0

    def initialize_voronoi(
        self, *, solid_height: int | None = None, n_seeds: int | None = None,
        seed: int = 0, smooth: int = 2,
    ) -> None:
        """Voronoi nuclei under melt (the paper's initial setup).

        *smooth* pre-widens the sharp tesselation towards the diffuse
        equilibrium profile (see
        :func:`repro.core.nucleation.smooth_phase_field`).
        """
        from repro.core.nucleation import smooth_phase_field

        nz = self.shape[-1]
        solid_height = max(nz // 5, 2) if solid_height is None else solid_height
        if n_seeds is None:
            cross = int(np.prod(self.shape[:-1]))
            n_seeds = max(cross // 64, len(self.system.phase_set.solid_indices))
        phi0, mu0 = voronoi_initial_condition(
            self.system,
            self.shape,
            solid_height=solid_height,
            n_seeds=n_seeds,
            rng=np.random.default_rng(seed),
        )
        if smooth:
            phi0 = smooth_phase_field(phi0, smooth)
        self.initialize(phi0, mu0)

    def apply_boundaries(self, buffer: str) -> None:
        """Fill ghost layers of both fields' chosen buffer."""
        apply_boundaries(getattr(self.phi, buffer), self.phi_bc)
        apply_boundaries(getattr(self.mu, buffer), self.mu_bc)

    def load_state(self, state: dict) -> None:
        """Restore a :func:`repro.io.checkpoint.load_checkpoint` state
        (clock included)."""
        if tuple(state["shape"]) != self.shape:
            raise ValueError(
                f"state shape {tuple(state['shape'])} does not match "
                f"simulation shape {self.shape}"
            )
        self.initialize(state["phi"], state["mu"])
        self.time = float(state["time"])
        self.step_count = int(state["step_count"])
        self.z_offset = int(state["z_offset"])

    # ------------------------------------------------------------------ #
    # time stepping
    # ------------------------------------------------------------------ #

    def slice_temperatures(self, t: float) -> np.ndarray:
        """Ghosted slice temperatures (nz + 2 values) at time *t* in the
        current (window-shifted) frame."""
        return slice_temperatures(
            self.temperature, t, self.z_offset, self.shape[-1]
        )

    def step(self, n: int = 1) -> None:
        """Advance *n* explicit-Euler time steps (Algorithm 1)."""
        stepper = Stepper(
            self.ctx, self._phi_kernel, self._mu_kernel, self.temperature,
            self.params.dt,
            lambda buffer: apply_boundaries(getattr(self.phi, buffer), self.phi_bc),
            lambda buffer: apply_boundaries(getattr(self.mu, buffer), self.mu_bc),
        )
        after = []
        if self.moving_window is not None and self.moving_window.enabled:
            after.append(self._shift_window)
        nz = self.shape[-1]
        for _ in range(n):
            stepper.step([(self.phi, self.mu, self.z_offset, nz)], self.time)
            self.time += self.params.dt
            self.step_count += 1
            for hook in after:
                hook(self.step_count, self.time)

    def _shift_window(self, step: int, _t: float) -> None:
        """Post-step hook ``(step, time)``: move the frame with the
        front every ``check_every`` steps."""
        mw = self.moving_window
        if step % mw.check_every:
            return
        nz = self.shape[-1]
        fz = self.front_position()
        shift = mw.required_shift(fz, nz)
        if shift <= 0:
            return
        ell = self.system.liquid_index
        fill_phi = np.zeros(self.system.n_phases)
        fill_phi[ell] = 1.0
        shift_along_growth_axis(self.phi.src, shift, fill_phi)
        shift_along_growth_axis(self.mu.src, shift, np.zeros(self.system.n_solutes))
        self.z_offset += shift
        mw.record(shift)
        self.apply_boundaries("src")

    def run(self, steps: int, callback=None, callback_every: int = 0) -> SimulationReport:
        """Run *steps* steps, optionally invoking ``callback(sim)``."""
        for i in range(steps):
            self.step()
            if callback is not None and callback_every and (
                self.step_count % callback_every == 0
            ):
                callback(self)
        return self.report()

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #

    def front_position(self) -> float:
        """Mean z index of the solidification front (interior frame)."""
        return front_position(self.phi.interior_src, self.system.liquid_index)

    def phase_fractions(self) -> np.ndarray:
        """Volume fraction of each order parameter."""
        phi_i = self.phi.interior_src
        return phi_i.reshape(phi_i.shape[0], -1).mean(axis=1)

    def solute_mass(self) -> np.ndarray:
        """Total solute content of the current state
        (:func:`solute_content`)."""
        return solute_content(
            self.system, self.phi.interior_src, self.mu.interior_src,
            self.slice_temperatures(self.time)[1:-1],
        )

    def regions(self):
        """Region masks of the current state (bulk/interface/front/...)."""
        return classify(self.phi.interior_src, self.system.liquid_index)

    def report(self) -> SimulationReport:
        """Bundle the standard diagnostics."""
        return SimulationReport(
            steps=self.step_count,
            time=self.time,
            front_z=self.front_position(),
            phase_fractions=self.phase_fractions(),
            solute_mass=self.solute_mass(),
            window_shift=0 if self.moving_window is None else self.moving_window.total_shift,
        )
