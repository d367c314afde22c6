"""Ablation — the anti-trapping current (Eq. 4).

The grand-potential model carries the anti-trapping flux to cancel the
spurious solute trapping of the wide numerical interface; the paper calls
it out as the single most expensive term of the mu update (skippable only
away from the front).  This ablation quantifies both sides of that
trade-off on a fast-solidification run:

* *physics*: without J_at the solid freezes in more solute deviation
  (larger |c - c_eq| in the solidified region);
* *cost*: without J_at the mu-kernel gets cheaper.
"""

import numpy as np

from repro.core.interpolation import moelans_h
from repro.core.kernels import make_context
from repro.core.solver import Simulation
from repro.core.temperature import FrozenTemperature
from repro.thermo.system import TernaryEutecticSystem
from conftest import rate_of, time_call, write_report


def _run(anti_trapping: bool):
    system = TernaryEutecticSystem()
    temp = FrozenTemperature(
        t_ref=system.t_eutectic, gradient=0.5, velocity=0.12, z0=20.0,
    )
    sim = Simulation(
        shape=(24, 64), system=system, kernel="buffered", temperature=temp,
    )
    sim.params = sim.params.with_(anti_trapping=anti_trapping)
    sim.ctx = make_context(sim.system, sim.params)
    sim.initialize_voronoi(seed=6, solid_height=12, n_seeds=6)
    sim.step(400)
    return sim


def _solid_solute_deviation(sim) -> float:
    """Mean |c - c_eq(phase)| over freshly solidified cells."""
    system = sim.system
    phi = sim.phi.interior_src
    mu = sim.mu.interior_src
    t = sim.slice_temperatures(sim.time)[1:-1]
    temp = sim.ctx.broadcast_slices(t)
    h = moelans_h(phi)
    c = system.concentration(h, mu, temp)
    dev = 0.0
    count = 0
    for s in system.phase_set.solid_indices:
        mask = phi[s] > 0.6
        # only newly solidified material (above the initial slab)
        mask[..., :12] = False
        if not mask.any():
            continue
        c_eq = system.free_energy(s).c_eq
        dev += float(np.abs(c[:, mask] - c_eq[:, None]).sum())
        count += mask.sum()
    return dev / max(count, 1)


def test_antitrapping_ablation(benchmark, results_dir):
    data = {}

    def measure():
        sim_on = _run(True)
        sim_off = _run(False)
        data["dev_on"] = _solid_solute_deviation(sim_on)
        data["dev_off"] = _solid_solute_deviation(sim_off)
        # cost of the term on the same state
        from repro.core.kernels import get_mu_kernel

        kern = get_mu_kernel("buffered")
        for label, sim in (("on", sim_on), ("off", sim_off)):
            t_old = sim.slice_temperatures(sim.time)
            t_new = sim.slice_temperatures(sim.time + sim.params.dt)
            sec = time_call(lambda s=sim, a=t_old, b=t_new: kern(
                s.ctx, s.mu.src, s.phi.src, s.phi.src, a, b))
            data[f"rate_{label}"] = rate_of(sec, int(np.prod(sim.shape)))

    benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [
        "Ablation: anti-trapping current (Eq. 4)",
        "",
        f"solute deviation in fresh solid  with J_at: {data['dev_on']:.4f}",
        f"                              without J_at: {data['dev_off']:.4f}",
        f"mu-kernel rate                   with J_at: {data['rate_on']:.3f} MLUP/s",
        f"                              without J_at: {data['rate_off']:.3f} MLUP/s",
        "",
        "expected: J_at reduces trapped solute at the cost of kernel time.",
    ]
    write_report(results_dir, "ablation_antitrapping.txt", lines)

    assert data["dev_on"] < data["dev_off"]
    assert data["rate_off"] > data["rate_on"]
