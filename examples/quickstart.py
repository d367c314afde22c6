#!/usr/bin/env python
"""Quickstart: 2-D ternary eutectic directional solidification.

Runs a small 2-D Ag-Al-Cu solidification in under a minute and prints the
evolving front position, phase fractions and solute conservation — the
minimal end-to-end tour of the public API:

    TernaryEutecticSystem  ->  thermodynamics (parabolic CALPHAD fits)
    Simulation             ->  grand-potential phase-field solver
    analysis               ->  microstructure observables

Usage:  python examples/quickstart.py
"""

import numpy as np

from repro import FrozenTemperature, Simulation, TernaryEutecticSystem
from repro.analysis.fractions import solid_phase_fractions


def main() -> None:
    system = TernaryEutecticSystem()
    print("Alloy system: Ag-Al-Cu ternary eutectic")
    print(f"  eutectic temperature : {system.t_eutectic:.1f} K")
    lever = system.lever_rule_fractions()
    names = [p.name for p in system.phase_set.phases]
    print("  lever-rule fractions :",
          ", ".join(f"{n}={lever[i]:.3f}" for i, n in enumerate(names)
                    if not system.phase_set.phases[i].is_liquid))

    shape = (48, 96)  # transverse x growth direction
    temperature = FrozenTemperature(
        t_ref=system.t_eutectic,  # eutectic isotherm ...
        gradient=0.25,            # ... with a thermal gradient along z
        velocity=0.05,            # pulled at constant velocity
        z0=30.0,
    )
    sim = Simulation(
        shape=shape,
        system=system,
        temperature=temperature,
        kernel="shortcut",        # fastest NumPy rung: needs no C compiler
    )
    sim.initialize_voronoi(seed=7, solid_height=16, n_seeds=10)

    m0 = sim.solute_mass()
    print(f"\n{'step':>6} {'front z':>8} {'liquid':>8} "
          f"{'Al':>7} {'Ag2Al':>7} {'Al2Cu':>7}")

    def progress(s: Simulation) -> None:
        fr = s.phase_fractions()
        print(f"{s.step_count:>6} {s.front_position():>8.2f} "
              f"{fr[system.liquid_index]:>8.3f} "
              f"{fr[0]:>7.3f} {fr[1]:>7.3f} {fr[2]:>7.3f}")

    progress(sim)
    sim.run(600, callback=progress, callback_every=100)

    solid = solid_phase_fractions(sim.phi.interior_src, system)
    drift = np.abs(sim.solute_mass() - m0).max()
    print("\nsolid-region phase fractions vs lever rule:")
    for s in system.phase_set.solid_indices:
        print(f"  {names[s]:<6} simulated {solid[s]:.3f}   lever {lever[s]:.3f}")
    print(f"solute mass drift over the run: {drift:.2e} "
          "(conserved up to the open top boundary)")


if __name__ == "__main__":
    main()
