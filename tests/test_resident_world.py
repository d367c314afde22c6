"""Resident rank world: launch once, step many.

``DistributedSimulation.run()`` is a command to ranks that stay alive
between calls.  What must hold: results never depend on what an earlier
call left in the resident fields (the serial ``Simulation`` is the
referee), every result is the caller's own array, a failed call takes
the whole world down and the next one starts clean, per-call attachments
do not outlive their call, and nothing — no process, no ``/dev/shm``
segment — survives ``close()``, garbage collection, interpreter exit or
a killed parent.
"""

import gc
import glob
import multiprocessing as mp
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.kernels import compiled
from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.core.solver import Simulation
from repro.distributed import DistributedSimulation
from repro.distributed import solver as dsolver
from repro.resilience.errors import InjectedFault, InvariantViolation
from repro.resilience.faults import Fault, FaultPlan
from repro.resilience.store import ShardedCheckpointStore
from repro.telemetry import RunTelemetry
from repro.thermo.system import TernaryEutecticSystem

SRC = Path(__file__).resolve().parent.parent / "src"
SHAPE = (8, 8, 16)
BLOCKS = (2, 2, 2)   # 8 blocks on 2 ranks: local copies and channels
BACKENDS = ("thread", "process")
ODD = 3              # odd step counts flip the double buffers' parity


def _state(system, seed):
    rng = np.random.default_rng(seed)
    phi, mu = voronoi_initial_condition(
        system, SHAPE, solid_height=4 + seed, n_seeds=4, rng=rng
    )
    return smooth_phase_field(phi, 2), mu + 1e-3 * rng.standard_normal(mu.shape)


@pytest.fixture(scope="module")
def system():
    return TernaryEutecticSystem()


@pytest.fixture(scope="module")
def states(system):
    """Two different initial states."""
    return _state(system, 1), _state(system, 2)


def _sim(system, backend, **kwargs):
    kwargs.setdefault("kernel", "buffered")
    return DistributedSimulation(
        SHAPE, BLOCKS, system=system, n_ranks=2, backend=backend, **kwargs
    )


def _serial(system, kernel, phi0, mu0, steps):
    sim = Simulation(SHAPE, system=system, kernel=kernel)
    sim.initialize(phi0, mu0)
    sim.step(steps)
    return sim.phi.interior_src, sim.mu.interior_src


def _segments():
    return set(glob.glob("/dev/shm/repro-smm-*"))


def _rank_pids():
    return sorted(p.pid for p in mp.active_children())


# --------------------------------------------------------------------- #
# (i) (ii) results do not depend on what the world did before
# --------------------------------------------------------------------- #

def _check_back_to_back(backend, overlap, kernel):
    """Two different states through one simulation, each compared with a
    fresh simulation (bitwise) and with the serial solver."""
    system = TernaryEutecticSystem()
    tol = 1e-11 if overlap else 0.0
    with _sim(system, backend, kernel=kernel, overlap=overlap) as sim:
        for seed in (1, 2):
            phi0, mu0 = _state(system, seed)
            got = sim.run(ODD, phi0, mu0)
            with _sim(system, backend, kernel=kernel, overlap=overlap) as new:
                fresh = new.run(ODD, phi0, mu0)
            np.testing.assert_array_equal(got.phi, fresh.phi)
            np.testing.assert_array_equal(got.mu, fresh.mu)
            ref_phi, ref_mu = _serial(system, kernel, phi0, mu0, ODD)
            np.testing.assert_allclose(got.phi, ref_phi, rtol=0, atol=tol)
            np.testing.assert_allclose(got.mu, ref_mu, rtol=0, atol=tol)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("overlap", [False, True], ids=["alg1", "alg2"])
@pytest.mark.parametrize("kernel", ["buffered", "compiled"])
def test_back_to_back_states_match_fresh_and_serial(backend, overlap, kernel):
    if kernel != "compiled" or backend != "process":
        if kernel == "compiled" and not compiled.available():
            pytest.skip("no compiled kernel backend available")
        _check_back_to_back(backend, overlap, kernel)
        return
    if not compiled.available():
        pytest.skip("no compiled kernel backend available")
    # Compiled kernels in forked ranks need a parent that never ran an
    # OpenMP parallel region (GNU OpenMP is not fork-safe after one), and
    # earlier tests of this session have: run the check in an interpreter
    # of its own, with one kernel thread per rank as the benchmark pins it.
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(SRC.parent)!r}]\n"
        "from tests.test_resident_world import _check_back_to_back\n"
        f"_check_back_to_back({backend!r}, {overlap!r}, {kernel!r})\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "OMP_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("backend", BACKENDS)
def test_result_arrays_belong_to_the_caller(system, states, backend):
    (phi_a, mu_a), (phi_b, mu_b) = states
    with _sim(system, backend) as sim:
        first = sim.run(ODD, phi_a, mu_a)
        kept_phi, kept_mu = first.phi.copy(), first.mu.copy()
        second = sim.run(ODD, phi_b, mu_b)
        np.testing.assert_array_equal(first.phi, kept_phi)
        np.testing.assert_array_equal(first.mu, kept_mu)
        assert not np.shares_memory(first.phi, second.phi)
        assert not np.array_equal(first.phi, second.phi)


@pytest.mark.parametrize("backend", BACKENDS)
def test_input_dtype_is_kept(system, states, backend):
    """A float32 restart state comes back as float32, as it always did."""
    phi0, mu0 = states[0]
    with _sim(system, backend) as sim:
        res = sim.run(1, phi0.astype(np.float32), mu0.astype(np.float32))
    assert res.phi.dtype == np.float32 and res.mu.dtype == np.float32


# --------------------------------------------------------------------- #
# (iii) one set of ranks while calls succeed, a fresh one after a failure
# --------------------------------------------------------------------- #

def test_rank_pids_survive_calls_and_change_after_a_failure(system, states):
    phi0, mu0 = states[0]
    before = _segments()
    with _sim(system, "process") as sim:
        res = sim.run(1, phi0, mu0)
        pids = _rank_pids()
        assert len(pids) == 2
        for _ in range(2):
            res = sim.run(1, res.phi, res.mu)
            assert _rank_pids() == pids

        poisoned = phi0.copy()
        poisoned[0, 0, 0, 0] = np.nan
        with pytest.raises(InvariantViolation):
            sim.run(2, poisoned, mu0, guard=True)
        # the failed call left no half-alive world behind
        assert mp.active_children() == []
        assert _segments() == before

        again = sim.run(ODD, phi0, mu0)
        assert len(_rank_pids()) == 2
        assert not set(_rank_pids()) & set(pids)
        ref_phi, _ = _serial(system, "buffered", phi0, mu0, ODD)
        np.testing.assert_array_equal(again.phi, ref_phi)
    assert mp.active_children() == []
    assert _segments() == before


def test_an_open_world_holds_no_named_segment(system, states):
    """Ranks share only pipes: while the world is open, with fields and
    halo channels in use, no rank owns a ``/dev/shm`` segment."""
    phi0, mu0 = states[0]
    with _sim(system, "process") as sim:
        res = sim.run(ODD, phi0, mu0)
        assert all(st.n_blocks >= 2 and st.comm_bytes > 0
                   for st in res.stats)   # ghosts crossed ranks
        pids = _rank_pids()
        assert len(pids) == 2
        assert _left_by(pids) == []
        ref_phi, _ = _serial(system, "buffered", phi0, mu0, ODD)
        np.testing.assert_array_equal(res.phi, ref_phi)


def test_rank_kill_destroys_the_world_and_the_retry_runs_clean(system, states):
    phi0, mu0 = states[0]
    before = _segments()
    plan = FaultPlan([Fault("rank_kill", step=1, rank=1)])
    with _sim(system, "process") as sim:
        clean = sim.run(ODD, phi0, mu0)
        with pytest.raises(InjectedFault):
            sim.run(ODD, phi0, mu0, fault_plan=plan)
        assert mp.active_children() == []
        assert _segments() == before
        assert len(plan.fired()) == 1   # mirrored from the killed rank
        retry = sim.run(ODD, phi0, mu0, fault_plan=plan)
        np.testing.assert_array_equal(retry.phi, clean.phi)


def test_fault_plan_is_a_setup_input(system, states):
    """Injection is installed at channel registration: the same plan
    keeps the world, any other plan — or none — re-forms it."""
    phi0, mu0 = states[0]
    plan = FaultPlan([Fault("msg_delay", step=4, rank=0)])
    with _sim(system, "process") as sim:
        sim.run(1, phi0, mu0, fault_plan=plan)
        pids = _rank_pids()
        sim.run(1, phi0, mu0, fault_plan=plan)
        assert _rank_pids() == pids
        # the second call's copy of the plan reports its fires too
        res = sim.run(2, phi0, mu0, fault_plan=plan, step0=3)
        assert _rank_pids() == pids
        assert [(f.kind, s, r) for f, s, r in plan.fired()] == [
            ("msg_delay", 4, 0)
        ]
        sim.run(1, phi0, mu0)
        assert not set(_rank_pids()) & set(pids)
        plain = sim.run(2, phi0, mu0, step0=3)
    np.testing.assert_array_equal(res.phi, plain.phi)


# --------------------------------------------------------------------- #
# (iv) per-call attachments end with their call
# --------------------------------------------------------------------- #

def _transport_timing(comm):
    return comm._transport._timing


@pytest.mark.parametrize("backend", BACKENDS)
def test_plain_call_after_a_telemetry_call(system, states, backend, tmp_path):
    phi0, mu0 = states[0]
    with _sim(system, backend) as sim:
        traced = sim.run(
            ODD, phi0, mu0,
            telemetry=RunTelemetry(directory=tmp_path, trace=True),
        )
        assert traced.timing is not None and traced.report is not None
        plain = sim.run(ODD, phi0, mu0)
        assert plain.timing is None
        assert plain.counters is None
        assert plain.report is None
        assert plain.spans is None
        np.testing.assert_array_equal(plain.phi, traced.phi)
        np.testing.assert_array_equal(plain.mu, traced.mu)
        if backend == "process":
            world = sim._resident.world
            assert world.call(_transport_timing) == [None] * 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_kind_of_call_on_one_world(system, states, backend, tmp_path):
    """The benchmark's layer pass alternates plain, telemetry, guard and
    checkpoint segments on one solver."""
    phi0, mu0 = states[0]
    store = ShardedCheckpointStore(tmp_path / "ck", keep=8)
    variants = [
        {},
        {"telemetry": RunTelemetry(directory=tmp_path / "tel")},
        {"guard": True},
        {"shard_store": store, "checkpoint_every": 2},
        {},
    ]
    with _sim(system, backend) as sim:
        results = [sim.run(4, phi0, mu0, **kwargs) for kwargs in variants]
    for res in results[1:]:
        np.testing.assert_array_equal(res.phi, results[0].phi)
        np.testing.assert_array_equal(res.mu, results[0].mu)
    # the ranks' counts reach the caller's store on both backends
    assert store.stats["manifests_published"] == len(store.manifests()) == 2
    assert store.stats["shards_written"] == 4


def test_plan_and_store_cross_a_process_boundary(tmp_path):
    plan = FaultPlan([Fault("rank_kill", step=3, rank=1)], seed=7)
    plan.on_fire = lambda record: None
    plan.fires("rank_kill", step=3, rank=1)
    store = ShardedCheckpointStore(tmp_path)
    store.note_skipped()
    got, got_plan = pickle.loads(pickle.dumps((store, plan)))
    assert got.stats == store.stats
    assert got_plan.pending() == [] and got_plan.on_fire is None
    got.note_skipped()               # the lock was recreated
    assert got_plan.fires("rank_kill", step=3, rank=1) is None


# --------------------------------------------------------------------- #
# (v) lifecycle
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", BACKENDS)
def test_close_is_idempotent_and_run_reopens(system, states, backend):
    phi0, mu0 = states[0]
    before = _segments()
    sim = _sim(system, backend)
    sim.close()                      # nothing open yet
    first = sim.run(1, phi0, mu0)
    sim.close()
    sim.close()
    assert mp.active_children() == []
    assert _segments() == before
    again = sim.run(1, phi0, mu0)    # re-opens
    np.testing.assert_array_equal(again.phi, first.phi)
    sim.close()
    assert mp.active_children() == []


def test_constructor_and_shrunk_open_nothing(system):
    sim = _sim(system, "process")
    small = sim.shrunk(1)
    assert mp.active_children() == []
    assert sim._resident is None and small._resident is None


def test_dropping_the_last_reference_closes_the_world(system, states):
    phi0, mu0 = states[0]
    before = _segments()
    sim = _sim(system, "process")
    sim.run(1, phi0, mu0)
    assert len(mp.active_children()) == 2
    del sim
    gc.collect()
    assert mp.active_children() == []
    assert _segments() == before


_SCRIPT = textwrap.dedent("""
    import multiprocessing as mp
    import sys
    import time

    sys.path.insert(0, {src!r})
    from repro.core.nucleation import voronoi_initial_condition
    from repro.distributed import DistributedSimulation
    from repro.thermo.system import TernaryEutecticSystem

    system = TernaryEutecticSystem()
    phi, mu = voronoi_initial_condition(
        system, (8, 8, 16), solid_height=5, n_seeds=4)
    sim = DistributedSimulation(
        (8, 8, 16), (2, 2, 2), system=system, n_ranks=2, backend="process")
    for _ in range(2):
        res = sim.run(1, phi, mu)
        phi, mu = res.phi, res.mu
    print("PIDS", *[p.pid for p in mp.active_children()], flush=True)
    time.sleep({linger})
    # never closes: falls off its end
""")


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_gone(pids, seconds):
    deadline = time.monotonic() + seconds
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(_alive(p) for p in pids)


def _left_by(pids):
    return [s for s in _segments()
            if int(s.split("-")[2]) in pids]


def test_script_that_never_closes_exits_promptly_and_clean(tmp_path):
    script = tmp_path / "fall_off.py"
    script.write_text(_SCRIPT.format(src=str(SRC), linger=0))
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr and "leaked" not in done.stderr
    pids = [int(p) for p in done.stdout.split()[1:]]
    assert len(pids) == 2
    assert _wait_gone(pids, 5.0)
    assert _left_by(pids) == []


def test_ranks_of_a_killed_parent_exit_on_their_own(tmp_path):
    script = tmp_path / "linger.py"
    script.write_text(_SCRIPT.format(src=str(SRC), linger=60))
    proc = subprocess.Popen(
        [sys.executable, str(script)], stdout=subprocess.PIPE, text=True,
    )
    try:
        pids = [int(p) for p in proc.stdout.readline().split()[1:]]
        assert len(pids) == 2 and all(_alive(p) for p in pids)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        # EOF on the command pipe is the ranks' backstop
        assert _wait_gone(pids, 10.0)
        assert _left_by(pids + [proc.pid]) == []
    finally:
        proc.kill()
        proc.stdout.close()


# --------------------------------------------------------------------- #
# (vi) what a whole call costs in transport messages
# --------------------------------------------------------------------- #

def _probe(comm):
    halo = comm.resident[dsolver._STATE].halo
    return comm.transport_counters(), halo.n_channels


@pytest.mark.parametrize("telemetry", [None, RunTelemetry()],
                         ids=["telemetry-off", "telemetry-on"])
def test_whole_call_transport_counters_on_later_calls(system, states,
                                                      telemetry):
    """Second and later calls: the ranks post one notify per send channel
    per exchange round — plus, per rank, the result of the call (each
    probe's own result lands after its snapshot).  Telemetry adds no
    message: each rank's records ride its result."""
    phi0, mu0 = states[0]
    steps = 3
    with _sim(system, "process") as sim:
        res = sim.run(1, phi0, mu0)          # opens the world
        world = sim._resident.world
        for _ in range(2):
            snap0 = world.call(_probe)
            res = sim.run(steps, res.phi, res.mu, telemetry=telemetry)
            snap1 = world.call(_probe)
            sent = sum(c1["pipe_messages"] - c0["pipe_messages"]
                       for (c0, _), (c1, _) in zip(snap0, snap1))
            send_channels = sum(n for _, n in snap0) // 2
            rounds = 2 + 2 * steps           # two initial + phi, mu per step
            assert sent == (
                send_channels * rounds + 2 * world.size
            )


# --------------------------------------------------------------------- #
# one set-up per world
# --------------------------------------------------------------------- #

def test_setup_happens_once_per_world(system, states, monkeypatch):
    """make_context, warmup, Field and BlockHaloRegistry run once per
    rank and world, however many calls follow."""
    if not compiled.available():
        pytest.skip("no compiled kernel backend available")
    calls = {"make_context": 0, "warmup": 0, "Field": 0, "registry": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        dsolver, "make_context", counting("make_context", dsolver.make_context))
    monkeypatch.setattr(
        compiled, "warmup", counting("warmup", compiled.warmup))
    monkeypatch.setattr(dsolver, "Field", counting("Field", dsolver.Field))
    monkeypatch.setattr(
        dsolver, "BlockHaloRegistry",
        counting("registry", dsolver.BlockHaloRegistry))

    phi0, mu0 = states[0]
    with _sim(system, "thread", kernel="compiled") as sim:
        res = sim.run(1, phi0, mu0)
        for _ in range(2):
            res = sim.run(1, res.phi, res.mu)
    n_ranks, n_blocks = 2, 8
    assert calls == {
        "make_context": n_ranks, "warmup": n_ranks,
        "Field": 2 * n_blocks, "registry": n_ranks,
    }


# --------------------------------------------------------------------- #
# an idle world is not a hung world
# --------------------------------------------------------------------- #

@pytest.mark.hangs
@pytest.mark.timeout(60)
def test_idle_world_survives_an_armed_watchdog(system, states, monkeypatch):
    """Heartbeats flow per call only: a pause of several hang timeouts
    between two calls neither fills the result pipe nor reads as a
    freeze."""
    hang = 0.3
    monkeypatch.setenv("REPRO_SIMMPI_HANG_TIMEOUT", str(hang))
    monkeypatch.setenv("REPRO_SIMMPI_HEARTBEAT", "0.02")
    phi0, mu0 = states[0]
    with _sim(system, "process") as sim:
        first = sim.run(ODD, phi0, mu0)
        pids = _rank_pids()
        time.sleep(5 * hang)
        second = sim.run(ODD, first.phi, first.mu,
                         t0=ODD * sim.params.dt, step0=ODD)
        assert _rank_pids() == pids
    ref_phi, ref_mu = _serial(system, "buffered", phi0, mu0, 2 * ODD)
    np.testing.assert_array_equal(second.phi, ref_phi)
    np.testing.assert_array_equal(second.mu, ref_mu)
