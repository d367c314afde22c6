"""Deadline layer and liveness watchdog (ISSUE 7).

Covers the pure policy/monitor units, the deadline-bounded blocking
operations of both simmpi backends, watchdog hang containment on real
processes and messages larger than a pipe.  The heavier end-to-end
campaign tests live in ``tests/test_faults.py`` and
``tests/test_restart_determinism.py``.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.simmpi.comm import RankFailure, RankTimeout
from repro.simmpi.deadline import DEADLINE_OPS, Deadline, DeadlinePolicy
from repro.simmpi.liveness import RankMonitor, WatchdogConfig
from repro.simmpi.runtime import run_spmd

_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not _FORK, reason="test monkeypatches module state inherited via fork"
)


class TestDeadlinePolicy:
    def test_disabled_by_default(self):
        policy = DeadlinePolicy.from_env(environ={})
        assert not policy.enabled
        assert all(policy.limit(op) is None for op in DEADLINE_OPS)
        assert policy.start("recv") is None

    def test_default_applies_to_every_op(self):
        policy = DeadlinePolicy.from_env(
            environ={"REPRO_SIMMPI_TIMEOUT": "2.5"}
        )
        assert policy.enabled
        assert all(policy.limit(op) == 2.5 for op in DEADLINE_OPS)

    def test_per_op_override_and_explicit_off(self):
        policy = DeadlinePolicy.from_env(environ={
            "REPRO_SIMMPI_TIMEOUT": "10",
            "REPRO_SIMMPI_TIMEOUT_RECV": "0.5",
            "REPRO_SIMMPI_TIMEOUT_BARRIER": "off",
        })
        assert policy.limit("recv") == 0.5
        assert policy.limit("send") == 10.0
        assert policy.limit("barrier") is None

    @pytest.mark.parametrize("raw", ["", "none", "OFF", "0", "-3"])
    def test_disabling_spellings(self, raw):
        policy = DeadlinePolicy.from_env(
            environ={"REPRO_SIMMPI_TIMEOUT": raw}
        )
        assert not policy.enabled

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError, match="invalid simmpi timeout"):
            DeadlinePolicy.from_env(
                environ={"REPRO_SIMMPI_TIMEOUT": "fast"}
            )

    def test_started_deadline_expires_and_raises(self):
        deadline = Deadline("recv", 0.02, peers=(3,))
        assert deadline.remaining() > 0
        deadline.check()  # not expired yet
        time.sleep(0.03)
        assert deadline.expired()
        with pytest.raises(RankTimeout) as info:
            deadline.check()
        assert info.value.op == "recv"
        assert info.value.failed_ranks == (3,)
        assert isinstance(info.value, RankFailure)


class TestWatchdogConfig:
    def test_disabled_by_default(self):
        config = WatchdogConfig.from_env(environ={})
        assert not config.enabled

    def test_heartbeat_defaults_to_quarter_timeout(self):
        config = WatchdogConfig.from_env(
            environ={"REPRO_SIMMPI_HANG_TIMEOUT": "2.0"}
        )
        assert config.enabled
        assert config.hang_timeout == 2.0
        assert config.heartbeat == pytest.approx(0.5)

    def test_explicit_heartbeat_wins(self):
        config = WatchdogConfig.from_env(environ={
            "REPRO_SIMMPI_HANG_TIMEOUT": "2.0",
            "REPRO_SIMMPI_HEARTBEAT": "0.1",
        })
        assert config.heartbeat == pytest.approx(0.1)


class TestRankMonitor:
    def _monitor(self, timeout=0.05, n=3):
        return RankMonitor(
            WatchdogConfig(hang_timeout=timeout, heartbeat=0.01), n
        )

    def test_advancing_rank_never_declared(self):
        monitor = self._monitor()
        for tick in range(4):
            for rank in range(3):
                monitor.beat(rank, tick)
            time.sleep(0.02)
        assert monitor.hung_rank([0, 1, 2]) is None

    def test_frozen_rank_declared_when_peer_advances(self):
        monitor = self._monitor()
        monitor.beat(0, 1)
        monitor.beat(1, 1)
        monitor.beat(2, 1)
        time.sleep(0.07)
        monitor.beat(0, 2)  # peers keep moving; rank 2 froze first
        monitor.beat(1, 2)
        assert monitor.hung_rank([0, 1, 2]) == 2
        # fire-once: the verdict is not repeated
        assert monitor.hung_rank([0, 1, 2]) is None

    def test_repeated_equal_heartbeats_do_not_reset_clock(self):
        monitor = self._monitor()
        monitor.beat(0, 7)
        time.sleep(0.03)
        monitor.beat(0, 7)  # same progress value: still frozen
        assert monitor.frozen_for(0) >= 0.03

    def test_oldest_frozen_rank_blamed_not_its_victims(self):
        monitor = self._monitor()
        monitor.beat(0, 1)
        monitor.beat(1, 1)
        time.sleep(0.03)
        monitor.beat(0, 2)  # rank 0 froze *after* rank 1
        time.sleep(0.07)
        monitor.beat(2, 5)  # a peer still advancing
        assert monitor.hung_rank([0, 1, 2]) == 1

    def test_collective_deadlock_needs_grace_factor(self):
        monitor = self._monitor(timeout=0.04)
        for rank in range(3):
            monitor.beat(rank, 1)
        time.sleep(0.06)
        # everyone frozen, nobody advanced: not yet declared ...
        assert monitor.hung_rank([0, 1, 2]) is None
        time.sleep(0.10)
        # ... until the freeze outlasts grace_factor * timeout
        assert monitor.hung_rank([0, 1, 2]) is not None


class TestThreadBackendDeadlines:
    def test_recv_deadline_blames_the_silent_peer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT_RECV", "0.3")

        def fn(comm):
            if comm.rank == 0:
                return comm.recv(1, tag=7)  # never sent
            while not comm.aborted():
                time.sleep(0.01)
            return "peer-released"

        with pytest.raises(RankTimeout) as info:
            run_spmd(2, fn, backend="thread")
        assert info.value.op == "recv"
        assert info.value.failed_ranks == (1,)
        assert info.value.simmpi_rank == 0

    def test_barrier_deadline_instead_of_hang(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT_BARRIER", "0.3")

        def fn(comm):
            if comm.rank == 0:
                comm.barrier()  # rank 1 never arrives
                return "passed"
            while not comm.aborted():
                time.sleep(0.01)
            return "peer-released"

        with pytest.raises(RankTimeout) as info:
            run_spmd(2, fn, backend="thread")
        assert info.value.op == "barrier"

    def test_no_deadline_means_no_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIMMPI_TIMEOUT", raising=False)

        def fn(comm):
            if comm.rank == 0:
                time.sleep(0.2)  # longer than any poll interval
                comm.send(np.arange(3.0), dest=1, tag=7)
                return None
            return comm.recv(0, tag=7)

        results = run_spmd(2, fn, backend="thread")
        np.testing.assert_array_equal(results[1], np.arange(3.0))


@needs_fork
class TestProcessBackendDeadlines:
    def test_recv_deadline_on_real_processes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT_RECV", "0.5")

        def fn(comm):
            if comm.rank == 0:
                return comm.recv(1, tag=7)
            while not comm.aborted():
                time.sleep(0.02)
            return "peer-released"

        with pytest.raises(RankTimeout) as info:
            run_spmd(2, fn, backend="process")
        assert info.value.op == "recv"

    def test_barrier_deadline_on_real_processes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT_BARRIER", "0.5")

        def fn(comm):
            if comm.rank == 0:
                comm.barrier()  # rank 1 never arrives
                return "passed"
            while not comm.aborted():
                time.sleep(0.02)
            return "peer-released"

        with pytest.raises(RankTimeout) as info:
            run_spmd(2, fn, backend="process")
        assert info.value.op == "barrier"
        assert info.value.simmpi_rank == 0

    def test_failed_peer_releases_the_barrier(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("rank 2 exploded")
            comm.barrier()  # rank 2 never arrives
            return "passed"

        with pytest.raises(ValueError, match="exploded") as info:
            run_spmd(3, fn, backend="process")
        assert info.value.simmpi_rank == 2


@needs_fork
class TestWatchdog:
    def test_hung_rank_is_detected_and_killed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMMPI_HANG_TIMEOUT", "0.6")

        def fn(comm):
            if comm.rank == 1:
                time.sleep(30)  # silent hang: no raise, no progress
                return "unreachable"
            while not comm.aborted():
                comm.note_progress()
                time.sleep(0.05)
            return "survivor"

        t0 = time.monotonic()
        with pytest.raises(RankTimeout) as info:
            run_spmd(2, fn, backend="process")
        assert time.monotonic() - t0 < 15  # bounded, not the 30 s sleep
        assert info.value.op == "liveness"
        assert info.value.failed_ranks == (1,)

    def test_slow_but_advancing_rank_survives(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMMPI_HANG_TIMEOUT", "0.5")

        def fn(comm):
            # Slower than hang_timeout end-to-end, but progress keeps
            # ticking: the watchdog must leave the rank alone.
            for _ in range(8):
                comm.note_progress()
                time.sleep(0.1)
            comm.barrier()
            return comm.rank

        assert run_spmd(2, fn, backend="process") == [0, 1]


@needs_fork
class TestDegradation:
    def test_enospc_falls_back_to_inline_pickles(self, monkeypatch):
        # Slabs travel inline in the message frame, so no segment pool
        # can run out; what is left to check is payloads larger than the
        # 64 KiB pipe.  A deadlocked exchange fails in seconds instead
        # of hanging.
        monkeypatch.setenv("REPRO_SIMMPI_HANG_TIMEOUT", "1")

        def fn(comm):
            other = 1 - comm.rank
            for cid, n in enumerate((4096, 1 << 17)):  # 32 KiB, 1 MiB
                payload = np.full(n, float(comm.rank))
                received = comm.sendrecv(
                    payload, dest=other, source=other, sendtag=5
                )
                np.testing.assert_array_equal(
                    received, np.full(n, float(other))
                )
                # every notify carries the packed slab inline
                send = comm.register_halo(other, cid, n)
                recv = comm.accept_halo(other, cid)
                send.slot()[:] = payload
                send.notify()
                np.testing.assert_array_equal(
                    recv.wait(), np.full(n, float(other))
                )
            return comm.rank

        assert run_spmd(2, fn, backend="process") == [0, 1]
