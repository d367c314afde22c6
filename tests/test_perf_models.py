"""Tests of machines, netmodel, roofline and the scaling simulators."""

import time

import numpy as np
import pytest

from repro.perf.kernel_analysis import (
    KernelCost,
    mu_kernel_cost,
    phi_kernel_cost,
    port_pressure_bound,
)
from repro.perf.machines import HORNET, JUQUEEN, MACHINES, SUPERMUC
from repro.perf.metrics import measure_kernel_rate, mlups
from repro.perf.netmodel import (
    exchange_time,
    ghost_bytes_per_step,
    message_time,
    topology_factor,
)
from repro.perf.roofline import bytes_per_cell, roofline
from repro.perf.scaling import (
    SCENARIO_COST,
    comm_time_per_step,
    intranode_scaling,
    weak_scaling_curve,
)


class TestMachines:
    def test_registry(self):
        assert set(MACHINES) == {"SuperMUC", "Hornet", "JUQUEEN"}

    def test_supermuc_peak(self):
        """8 FLOPs/cycle at 2.7 GHz -> 21.6 GFLOP/s per core (Sec. 5.1.1)."""
        assert SUPERMUC.peak_flops_core == pytest.approx(21.6e9)

    def test_total_core_counts_from_paper(self):
        assert SUPERMUC.total_cores == 147_456
        assert HORNET.total_cores == 94_656
        assert JUQUEEN.total_cores == 458_752

    def test_juqueen_smt(self):
        assert JUQUEEN.smt == 4


class TestRoofline:
    def test_paper_bytes_per_cell(self):
        """19+19 phi cells + 7 mu reads + 1 write at 50% cache reuse = 680 B."""
        assert bytes_per_cell(4, 2) == pytest.approx(680.0)

    def test_paper_memory_bound(self):
        """80 GiB/s / 680 B = 126.3 MLUP/s (the paper's headline bound)."""
        r = roofline(SUPERMUC, 1384.0, 680.0)
        assert r.memory_bound_mlups_node == pytest.approx(126.3, abs=0.1)

    def test_mu_kernel_is_compute_bound(self):
        r = roofline(SUPERMUC, mu_kernel_cost().flops, bytes_per_cell(4, 2))
        assert not r.memory_bound

    def test_arithmetic_intensity_at_least_two(self):
        """Paper: 'a lower bound ... of approximately two FLOP per byte'."""
        r = roofline(SUPERMUC, 1384.0, 680.0)
        assert r.arithmetic_intensity >= 2.0

    def test_peak_fraction(self):
        r = roofline(SUPERMUC, 1384.0, 680.0)
        # paper: 4.2 MLUP/s per core == 5.8 GFLOP/s == 27% of core peak
        assert r.peak_fraction(4.2, SUPERMUC) == pytest.approx(0.27, abs=0.01)

    def test_invalid_costs(self):
        with pytest.raises(ValueError):
            roofline(SUPERMUC, 0.0, 680.0)


class TestKernelAnalysis:
    def test_costs_positive_and_mu_dominated_by_muls(self):
        mc = mu_kernel_cost()
        assert mc.flops > 500
        assert mc.muls > mc.adds  # the imbalance IACA reports

    def test_port_bound_below_one(self):
        """Add/mul imbalance + division latency cap the attainable peak —
        the paper's IACA result is 43 % for the mu-kernel."""
        b = port_pressure_bound(mu_kernel_cost())
        assert 0.25 < b < 0.65

    def test_balanced_kernel_reaches_peak(self):
        b = port_pressure_bound(KernelCost(adds=100, muls=100, divs=0, sqrts=0))
        assert b == pytest.approx(1.0)

    def test_divisions_hurt(self):
        base = KernelCost(adds=100, muls=100, divs=0, sqrts=0)
        divy = KernelCost(adds=100, muls=100, divs=20, sqrts=0)
        assert port_pressure_bound(divy) < port_pressure_bound(base)

    def test_cost_algebra(self):
        a = KernelCost(1, 2, 3, 4)
        b = a + a
        assert b.flops == 2 * a.flops
        assert a.scaled(2.0).muls == 4

    def test_static_matches_dynamic_count(self):
        """The static model must agree with the instrumented kernels to
        within a factor (validates both against gross errors)."""
        from repro.core.kernels import get_mu_kernel, make_context
        from repro.core.scenarios import fill_ghosts_periodic, make_scenario
        from repro.perf.flopcount import count_kernel_flops

        shape = (8, 8, 12)
        cells = int(np.prod(shape))
        phi, mu, tg, system, params = make_scenario("interface", shape)
        ctx = make_context(system, params)
        kern = get_mu_kernel("buffered")
        phi_dst = phi.copy()
        from repro.core.kernels import get_phi_kernel

        phi_dst[(slice(None),) + (slice(1, -1),) * 3] = get_phi_kernel("buffered")(
            ctx, phi, mu, tg
        )
        fill_ghosts_periodic(phi_dst, 3)
        counted = count_kernel_flops(
            lambda c, m, p, pd, t1, t2: kern(c, m, p, pd, t1, t2),
            ctx, [mu, phi, phi_dst, tg, tg - 0.01], cells,
        )
        static = mu_kernel_cost().flops
        assert counted["flops"] == pytest.approx(static, rel=0.5)


class TestNetModel:
    def test_latency_floor(self):
        t = message_time(SUPERMUC, 0, 1)
        assert t == pytest.approx(SUPERMUC.net_latency)

    def test_bandwidth_share_per_rank(self):
        t_shared = message_time(SUPERMUC, 10**6, 1, per_rank=True)
        t_full = message_time(SUPERMUC, 10**6, 1, per_rank=False)
        assert t_shared > t_full

    def test_topology_factor_grows_with_job(self):
        small = topology_factor(SUPERMUC, 2**5)
        large = topology_factor(SUPERMUC, 2**14)
        assert large > small

    def test_island_pruning_penalty(self):
        inside = topology_factor(SUPERMUC, SUPERMUC.island_cores)
        outside = topology_factor(SUPERMUC, SUPERMUC.island_cores * 4)
        assert outside > inside * 1.5

    def test_torus_nearly_flat(self):
        lo = topology_factor(JUQUEEN, 2**9)
        hi = topology_factor(JUQUEEN, 2**18)
        assert hi / lo < 1.5

    def test_ghost_bytes_dimensional_ordering(self):
        per_axis = ghost_bytes_per_step((10, 10, 10), 4)
        # later axes carry the ghosts of earlier ones -> larger slabs
        assert per_axis[0] < per_axis[1] < per_axis[2]
        assert per_axis[0] == 2 * 10 * 10 * 4 * 8

    def test_overlap_leaves_only_pack_time(self):
        full = exchange_time(SUPERMUC, (60, 60, 60), 4, 512, overlap=False)
        packed = exchange_time(SUPERMUC, (60, 60, 60), 4, 512, overlap=True)
        assert packed < 0.35 * full

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            message_time(SUPERMUC, -1)


class TestScalingModels:
    def test_fig7_near_linear(self):
        rates = intranode_scaling(SUPERMUC, [1, 2, 4, 8, 16], 40)
        speedup = rates[-1] / rates[0]
        assert 12.0 < speedup <= 16.0

    def test_fig7_small_blocks_slightly_lower(self):
        r40 = intranode_scaling(SUPERMUC, [16], 40)[0]
        r20 = intranode_scaling(SUPERMUC, [16], 20)[0]
        assert r20 < r40
        assert r20 > 0.7 * r40  # "changes the performance only slightly"

    def test_fig7_core_count_validated(self):
        with pytest.raises(ValueError):
            intranode_scaling(SUPERMUC, [32], 40)

    def test_fig8_phi_heavier_than_mu(self):
        rows = comm_time_per_step(SUPERMUC, [32, 4096])
        for r in rows:
            assert r.phi > r.mu

    def test_fig8_overlap_reduces_both(self):
        plain = comm_time_per_step(SUPERMUC, [512])[0]
        hidden = comm_time_per_step(
            SUPERMUC, [512], overlap_phi=True, overlap_mu=True
        )[0]
        assert hidden.phi < plain.phi
        assert hidden.mu < plain.mu

    def test_fig8_times_increase_with_cores(self):
        rows = comm_time_per_step(SUPERMUC, [2**5, 2**12])
        assert rows[1].phi > rows[0].phi

    def test_fig9_weak_scaling_nearly_flat(self):
        for m in (SUPERMUC, HORNET, JUQUEEN):
            curve = weak_scaling_curve(m, [2**5, 2**12, 2**17])
            assert curve[-1] > 0.85 * curve[0]

    def test_fig9_interface_slowest(self):
        rates = {
            s: weak_scaling_curve(SUPERMUC, [2**10], s)[0]
            for s in SCENARIO_COST
        }
        assert rates["interface"] < rates["liquid"]
        assert rates["interface"] < rates["solid"]

    def test_fig9_juqueen_per_core_far_below_intel(self):
        sj = weak_scaling_curve(JUQUEEN, [2**15])[0]
        sm = weak_scaling_curve(SUPERMUC, [2**15])[0]
        assert sj < 0.15 * sm

    def test_fig9_measured_rate_override(self):
        curve = weak_scaling_curve(SUPERMUC, [2**5], rate_core_override=0.5)
        assert curve[0] < 0.5

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            weak_scaling_curve(SUPERMUC, [32], "plasma")

    def test_phi_overlap_has_split_overhead(self):
        """Hiding the phi exchange costs kernel-split overhead — the
        reason mu-only overlap wins overall (Sec. 5.1.2)."""
        mu_only = weak_scaling_curve(
            SUPERMUC, [2**10], overlap_mu=True, overlap_phi=False
        )[0]
        both = weak_scaling_curve(
            SUPERMUC, [2**10], overlap_mu=True, overlap_phi=True,
            split_overhead=0.10,
        )[0]
        assert mu_only > both


class TestMetrics:
    def test_mlups(self):
        assert mlups(2_000_000, 2.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            mlups(10, 0.0)

    def test_measure_kernel_rate(self):
        calls = []
        rate = measure_kernel_rate(lambda: calls.append(1), 1000, min_time=0.01)
        assert rate > 0
        assert len(calls) >= 2

    def test_measure_kernel_rate_accumulates_min_time(self):
        # a sub-microsecond kernel must still be measured over ~min_time
        # of wall clock (the old calibration capped the repeat count and
        # accumulated only microseconds): the batch grows past 100 calls
        calls = []
        t0 = time.perf_counter()
        rate = measure_kernel_rate(
            lambda: calls.append(1), 1000, min_time=0.05, max_repeats=20
        )
        assert time.perf_counter() - t0 >= 0.02
        assert isinstance(rate, float) and rate > 0
        assert len(calls) > 100

    def test_measure_kernel_rate_untimed_warmup(self):
        # the first (cold) call must be excluded from calibration and
        # samples: a cold call that seeded the auto-range would leave one
        # call per batch and a median near its 50 ms
        state = {"calls": 0}

        def kernel():
            state["calls"] += 1
            if state["calls"] == 1:
                time.sleep(0.05)  # "compilation" on first call

        t0 = time.perf_counter()
        rate = measure_kernel_rate(
            kernel, 1000, min_time=0.02, max_repeats=10
        )
        assert time.perf_counter() - t0 >= 0.05
        assert state["calls"] > 100
        assert rate > mlups(1000, 0.05)
