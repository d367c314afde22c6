"""Differential test: the distributed solver against the serial one.

A Hypothesis strategy draws a configuration — 2-D or 3-D shape, block
grid, rank count and balance strategy, schedule, rung, and a run split
into 1-3 ``run()`` calls on one resident world continued with
``t0``/``step0`` — and the result must reproduce the serial
:class:`~repro.core.solver.Simulation` on the same rung: bitwise under
Algorithm 1, to 1e-11 under Algorithm 2.  Thread backend, so the suite
stays fast; ranks are capped at four to bound the thread count.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.kernels import COMPILED_RUNGS, rung_available
from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.core.solver import Simulation
from repro.distributed import DistributedSimulation
from repro.thermo.system import TernaryEutecticSystem

SYSTEM = TernaryEutecticSystem()
RUNGS = ("buffered", "shortcut") + COMPILED_RUNGS


@st.composite
def configurations(draw):
    dim = draw(st.sampled_from([2, 3]))
    shape = tuple(
        draw(st.sampled_from([4, 6, 8, 12])) for _ in range(dim - 1)
    ) + (draw(st.sampled_from([8, 12, 16])),)
    blocks = tuple(
        draw(st.sampled_from([d for d in (1, 2, 3, 4) if n % d == 0]))
        for n in shape
    )
    return {
        "shape": shape,
        "blocks": blocks,
        "n_ranks": draw(st.integers(1, min(math.prod(blocks), 4))),
        "balance": draw(st.sampled_from(["contiguous", "round_robin"])),
        "overlap": draw(st.booleans()),
        "rung": draw(st.sampled_from(RUNGS)),
        "calls": draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)),
        "seed": draw(st.integers(0, 1000)),
    }


@settings(max_examples=25, deadline=None, derandomize=True)
@given(configurations())
def test_distributed_reproduces_serial(config):
    rung, shape = config["rung"], config["shape"]
    assume(rung_available(rung))
    phi0, mu0 = voronoi_initial_condition(
        SYSTEM, shape, solid_height=shape[-1] // 3, n_seeds=3,
        rng=np.random.default_rng(config["seed"]),
    )
    phi0 = smooth_phase_field(phi0, 2)

    serial = Simulation(shape, system=SYSTEM, kernel=rung)
    serial.initialize(phi0, mu0)
    serial.step(sum(config["calls"]))

    with DistributedSimulation(
        shape, config["blocks"], system=SYSTEM, params=serial.params,
        temperature=serial.temperature, kernel=rung,
        overlap=config["overlap"], n_ranks=config["n_ranks"],
        balance_strategy=config["balance"],
    ) as dsim:
        phi, mu, done = phi0, mu0, 0
        for steps in config["calls"]:
            res = dsim.run(steps, phi, mu, t0=done * serial.params.dt,
                           step0=done)
            phi, mu, done = res.phi, res.mu, done + steps

    if config["overlap"]:
        np.testing.assert_allclose(phi, serial.phi.interior_src, rtol=0,
                                   atol=1e-11)
        np.testing.assert_allclose(mu, serial.mu.interior_src, rtol=0,
                                   atol=1e-11)
    else:
        np.testing.assert_array_equal(phi, serial.phi.interior_src)
        np.testing.assert_array_equal(mu, serial.mu.interior_src)
    assert np.abs(phi.sum(axis=0) - 1.0).max() <= 1e-12
