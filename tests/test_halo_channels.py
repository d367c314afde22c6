"""Persistent registered halo channels: protocol, equivalence, counters.

Halo channels are the only ghost-exchange path, so the referees are the
serial ``Simulation`` (bitwise for Algorithm 1, 1e-11 for Algorithm 2)
across backends, rank counts and schedules, and thread-vs-process
checkpoint manifests down to their CRC32s; a 2-rank process-backend run
costs exactly one pipe message per send channel per exchange round;
channels survive an elastic shrink through re-registration; the
protocol fails loudly when its lockstep discipline is violated.
"""

import json
import zlib

import numpy as np
import pytest

from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.core.solver import Simulation
from repro.distributed import DistributedSimulation
from repro.simmpi import run_spmd
from repro.thermo.system import TernaryEutecticSystem

SHAPE = (6, 6, 12)
STEPS = 3


@pytest.fixture(scope="module")
def serial():
    """The serial referee: initial state, physics and result."""
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(
        system, SHAPE, solid_height=4, n_seeds=4
    )
    phi0 = smooth_phase_field(phi0, 2)
    sim = Simulation(shape=SHAPE, system=system, kernel="buffered")
    sim.initialize(phi0, mu0)
    sim.step(STEPS)
    return dict(system=system, phi0=phi0, mu0=mu0, params=sim.params,
                temperature=sim.temperature,
                phi=sim.phi.interior_src.copy(), mu=sim.mu.interior_src.copy())


def _run(serial, backend, *, n_ranks, overlap=False, bpa=(2, 2, 1),
         **kwargs):
    sim = DistributedSimulation(
        SHAPE, bpa, system=serial["system"], params=serial["params"],
        temperature=serial["temperature"], kernel="buffered",
        overlap=overlap, n_ranks=n_ranks, backend=backend,
    )
    return sim.run(STEPS, serial["phi0"], serial["mu0"], **kwargs)


def _crc(arr):
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


# -- channel protocol ---------------------------------------------------------


def _roundtrip(comm, rounds):
    peer = 1 - comm.rank
    send = comm.register_halo(peer, 0, 6)
    recv = comm.accept_halo(peer, 0)
    got = []
    for step in range(rounds):
        send.slot()[:] = np.arange(6) + 100.0 * comm.rank + step
        send.notify(6)
        got.append(recv.wait().copy())
    return np.concatenate(got)


class TestChannelProtocol:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_double_buffered_roundtrip(self, backend):
        """Three rounds reuse each slot: round n+2 lands in slot n's
        buffer and must not clobber data the peer still reads."""
        out = run_spmd(2, _roundtrip, 3, backend=backend)
        for rank, got in enumerate(out):
            expected = np.concatenate(
                [np.arange(6) + 100.0 * (1 - rank) + s for s in range(3)]
            )
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_lockstep_violation_raises(self, backend):
        """A stale/skewed sequence number is a loud protocol error,
        never a silent unpack of the wrong slot."""

        def fn(comm):
            peer = 1 - comm.rank
            send = comm.register_halo(peer, 0, 4)
            recv = comm.accept_halo(peer, 0)
            if comm.rank == 0:
                # Skip ahead: deliver seq 5 where the peer expects 0.
                send.seq = 5
                send.notify(4)
                return True
            with pytest.raises(RuntimeError, match="lockstep"):
                recv.wait()
            return True

        assert run_spmd(2, fn, backend=backend) == [True, True]

    def test_invalid_capacity_and_id_rejected(self):
        def fn(comm):
            with pytest.raises(ValueError, match="capacity"):
                comm.register_halo(0, 0, 0)
            from repro.simmpi.comm import _halo_tags

            with pytest.raises(ValueError, match="channel id"):
                _halo_tags(-1)
            return True

        assert run_spmd(1, fn) == [True]

    def test_process_steady_state_has_zero_acks(self):
        """After registration, halo rounds cost one pipe message each
        — the whole point of the channel."""

        def fn(comm):
            peer = 1 - comm.rank
            send = comm.register_halo(peer, 0, 2048)
            recv = comm.accept_halo(peer, 0)
            before = comm.transport_counters()
            for step in range(4):
                send.slot()[:] = float(step)
                send.notify()
                recv.wait()
            after = comm.transport_counters()
            return {k: after[k] - before[k] for k in after}

        for delta in run_spmd(2, fn, backend="process"):
            assert delta["pipe_messages"] == 4  # one notify per round


# -- solver equivalence -------------------------------------------------------


class TestSolverEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_matches_serial_bitwise(self, serial, backend, n_ranks):
        res = _run(serial, backend, n_ranks=n_ranks)
        np.testing.assert_array_equal(res.phi, serial["phi"])
        np.testing.assert_array_equal(res.mu, serial["mu"])

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_matches_serial_with_overlap(self, serial, backend):
        """Algorithm 2's conditional deferred mu exchange keeps every
        channel in lockstep (the skip decision is collective)."""
        res = _run(serial, backend, n_ranks=2, overlap=True)
        np.testing.assert_allclose(res.phi, serial["phi"], atol=1e-11)
        np.testing.assert_allclose(res.mu, serial["mu"], atol=1e-11)

    def test_checkpoint_crcs_identical(self, serial, tmp_path):
        """Thread vs process, two blocks packed per channel, down to
        sharded-checkpoint manifest CRC32s."""
        from repro.resilience.store import ShardedCheckpointStore

        tables = {}
        for backend in ("thread", "process"):
            store = ShardedCheckpointStore(tmp_path / backend)
            res = _run(serial, backend, n_ranks=2,
                       shard_store=store, checkpoint_every=STEPS)
            with open(store.manifest_for(STEPS)) as fh:
                manifest = json.load(fh)
            tables[backend] = {
                arr_name: meta["crc32"]
                for entry in manifest["shards"]
                for arr_name, meta in entry["arrays"].items()
            }
            assert _crc(res.phi) == _crc(serial["phi"])
            assert _crc(res.mu) == _crc(serial["mu"])
        assert tables["thread"]
        assert tables["thread"] == tables["process"]


# -- elastic shrink -----------------------------------------------------------


class TestShrinkReregistration:
    def test_channels_reregister_on_shrunk_communicator(self):
        """After a rank loss + shrink, survivors rebuild their channels
        on the sub-communicator and exchange again."""
        from repro.simmpi import RankFailure, run_spmd_elastic

        def fn(comm):
            if comm.size >= 3 and comm.rank < 2:
                # A working channel pair on the original world first.
                peer = 1 - comm.rank
                send = comm.register_halo(peer, 0, 4)
                recv = comm.accept_halo(peer, 0)
                send.slot()[:] = float(comm.rank)
                send.notify()
                first = float(recv.wait()[0])
                comm.send("exchanged", 2)
            else:
                # Die only once both peers are through the first exchange:
                # a death sooner would revoke a peer's receive in it.
                comm.recv(0)
                comm.recv(1)
                raise RuntimeError("node down")
            try:
                comm.barrier()
            except RankFailure:
                sub = comm.shrink()
                # Re-registration: fresh channels, fresh sequence zero.
                peer = 1 - sub.rank
                send = sub.register_halo(peer, 0, 4)
                recv = sub.accept_halo(peer, 0)
                send.slot()[:] = 10.0 + sub.rank
                send.notify()
                second = float(recv.wait()[0])
                return first, second
            return None

        results, failures = run_spmd_elastic(3, fn)
        assert set(failures) == {2}
        assert results[0] == (1.0, 11.0)
        assert results[1] == (0.0, 10.0)


# -- steady-state message counts (the fig7 gate) ------------------------------


class TestSteadyStateCounters:
    def test_process_run_costs_one_pipe_message_per_channel_round(
        self, tmp_path
    ):
        """2-rank process backend, multi-block decomposition: the step
        loop posts exactly one control-pipe message per send channel per
        exchange round — no fresh segments."""
        from repro.telemetry import RunTelemetry

        system = TernaryEutecticSystem()
        shape = (6, 6, 16)
        steps = 3
        phi0, mu0 = voronoi_initial_condition(
            system, shape, solid_height=5, n_seeds=4
        )
        sim = DistributedSimulation(
            shape, (2, 2, 4), system=system, n_ranks=2, backend="process",
        )
        telemetry = RunTelemetry(directory=tmp_path)
        res = sim.run(steps, phi0, mu0, telemetry=telemetry)
        registered = [
            e for e in telemetry.merge_events()
            if e["kind"] == "halo_channels_registered"
        ]
        assert len(registered) == 2
        # every channel has one send and one receive endpoint
        send_channels = sum(e["data"]["channels"] for e in registered) // 2
        assert send_channels == 4
        rounds = 2 * steps          # Algorithm 1: phi + mu exchange
        assert res.counters["pipe_messages"] == send_channels * rounds
        # the exchange timers also see the two set-up exchanges
        assert res.counters["halo_messages"] == send_channels * (rounds + 2)
