"""Unit tests of the simmpi process backend (transport + communicator).

Everything here runs real OS processes; keep rank counts and payload
sizes small so the shard stays fast.  Semantics under test mirror the
thread-backend tests: tag matching, collectives, snapshot-on-send,
exception propagation with ``simmpi_rank``, plus the process-specific
pieces — shared-memory staging, bounded channels with posted receives,
and the shared-memory Field allocator.
"""

import os

import numpy as np
import pytest

from repro.grid.field import Field
from repro.simmpi import run_spmd
from repro.simmpi.comm import RemoteError
from repro.simmpi.transport import CHANNEL_SLOTS, INLINE_MAX

PARENT_PID = os.getpid()


# -- helper SPMD functions (module level: picklable under spawn too) ---------

def _rank_id(comm):
    return (comm.rank, comm.size, os.getpid())


def _ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    req = comm.irecv(left, tag=7)
    comm.send(np.full(4, comm.rank, dtype=float), right, tag=7)
    got = req.wait()
    return float(got[0])


def _large_roundtrip(comm, nbytes):
    n = nbytes // 8
    if comm.rank == 0:
        arr = np.arange(n, dtype=float)
        comm.send(arr, 1, tag=3)
        return None
    got = comm.recv(0, tag=3)
    return (got.shape, float(got[0]), float(got[-1]), got.dtype.str)


def _snapshot_semantics(comm):
    # Sender mutates after send but before the receiver consumes: the
    # receiver must still see the values at send time (copy-on-send).
    if comm.rank == 0:
        arr = np.arange(int(INLINE_MAX), dtype=float)  # forces shm staging
        comm.send(arr, 1, tag=1)
        arr.fill(-1.0)
        comm.barrier()
        return None
    comm.barrier()  # enter the barrier before receiving
    got = comm.recv(0, tag=1)
    return float(got[5])


def _collectives(comm):
    total = comm.allreduce(comm.rank)
    gathered = comm.gather(comm.rank * 10, root=0)
    big = comm.bcast(
        np.arange(4096, dtype=float) if comm.rank == 0 else None, root=0
    )
    parts = comm.allgather(np.full(2, comm.rank, dtype=float))
    return total, gathered, float(big[-1]), [float(p[0]) for p in parts]


def _wildcards(comm):
    if comm.rank == 0:
        out = []
        for _ in range(comm.size - 1):
            out.append(comm.recv())  # ANY_SOURCE / ANY_TAG
        return sorted(out)
    comm.send(comm.rank * 100, 0, tag=comm.rank)
    return None


def _boom(comm):
    comm.barrier()
    if comm.rank == 2:
        raise ValueError("rank 2 exploded")
    # peers block so the abort path (not a clean exit) is exercised
    comm.recv(source=2, tag=99)


def _rendezvous(comm):
    """More in-flight large messages than channel slots, both directions.

    With receives posted first this completes (blocked senders make
    progress by completing the peer's posted receives); the old
    send-before-recv pattern would deadlock at CHANNEL_SLOTS+1.
    """
    n_msgs = CHANNEL_SLOTS + 2
    peer = 1 - comm.rank
    reqs = [comm.irecv(peer, tag=i) for i in range(n_msgs)]
    for i in range(n_msgs):
        payload = np.full(int(INLINE_MAX) // 8 + 16, comm.rank * 1000 + i,
                          dtype=float)
        comm.send(payload, peer, tag=i)
    return [float(r.wait()[0]) for r in reqs]


def _sendrecv_cycle(comm):
    peer = 1 - comm.rank
    big = np.full(int(INLINE_MAX) // 8 + 1, float(comm.rank))
    got = comm.sendrecv(big, dest=peer, source=peer)
    return float(got[0])


def _field_in_shared_memory(comm):
    alloc = comm.field_allocator()
    assert alloc is not None
    f = Field(3, (4, 5), allocator=alloc)
    f.src[...] = comm.rank + 0.5
    # the transport tracks every Field backing segment it allocated
    n_segments = len(comm._transport._field_segments)
    return n_segments, float(f.src[0, 0, 0]), f.src.shape


def _self_send(comm):
    req = comm.irecv(comm.rank, tag=5)
    comm.send(np.arange(3, dtype=float), comm.rank, tag=5)
    return float(req.wait().sum())


def _best_fit_freelist(comm):
    """Freelist reuse scenario: small + large segments recycled in the
    order [large, small]; first-fit would burn the large one on the next
    small send and be forced to create a third segment."""
    small = int(INLINE_MAX) // 8 * 2     # 2x inline threshold, in doubles
    large = small * 4
    if comm.rank == 0:
        comm.send(np.full(large, 1.0), 1, tag=1)
        comm.send(np.full(small, 2.0), 1, tag=2)
        comm.recv(1, tag=9)   # token: both acks are already in the pipe
        comm.send(np.full(small, 3.0), 1, tag=3)
        comm.send(np.full(large, 4.0), 1, tag=4)
        comm.recv(1, tag=9)
        return comm.transport_counters()["segments_created"]
    for tag in (1, 2):
        comm.recv(0, tag=tag)
    comm.send(0, 0, tag=9)
    for tag in (3, 4):
        comm.recv(0, tag=tag)
    comm.send(0, 0, tag=9)
    return None


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("cannot cross process boundary")
        self.payload = lambda: None  # lambdas do not pickle


def _raise_unpicklable(comm):
    if comm.rank == 1:
        raise _Unpicklable()
    comm.barrier()


def _stats_probe(comm):
    if comm.rank == 0:
        comm.send(np.arange(8.0), 1, tag=2)
        comm.send(np.arange(int(INLINE_MAX), dtype=float), 1, tag=2)
        return comm.stats.sends, comm.stats.bytes_sent
    comm.recv(0, tag=2)
    comm.recv(0, tag=2)
    return comm.stats.recvs


class TestProcessBackendBasics:
    def test_ranks_run_in_distinct_processes(self):
        out = run_spmd(3, _rank_id, backend="process")
        assert [(r, s) for r, s, _ in out] == [(0, 3), (1, 3), (2, 3)]
        pids = {pid for _, _, pid in out}
        assert len(pids) == 3
        assert PARENT_PID not in pids

    def test_ring_exchange(self):
        out = run_spmd(4, _ring, backend="process")
        assert out == [3.0, 0.0, 1.0, 2.0]

    def test_large_array_via_shared_memory(self):
        out = run_spmd(2, _large_roundtrip, 1 << 20, backend="process")
        shape, first, last, dtype = out[1]
        n = (1 << 20) // 8
        assert shape == (n,)
        assert (first, last) == (0.0, float(n - 1))
        assert dtype == "<f8"

    def test_send_snapshots_payload(self):
        out = run_spmd(2, _snapshot_semantics, backend="process")
        assert out[1] == 5.0  # not the post-send -1.0

    def test_collectives_match_thread_backend(self):
        for backend in ("thread", "process"):
            out = run_spmd(4, _collectives, backend=backend)
            for rank, (total, gathered, big_last, parts) in enumerate(out):
                assert total == 6
                assert gathered == ([0, 10, 20, 30] if rank == 0 else None)
                assert big_last == 4095.0
                assert parts == [0.0, 1.0, 2.0, 3.0]

    def test_wildcard_matching(self):
        out = run_spmd(3, _wildcards, backend="process")
        assert out[0] == [100, 200]

    def test_self_send(self):
        out = run_spmd(2, _self_send, backend="process")
        assert out == [3.0, 3.0]

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMMPI_BACKEND", "process")
        out = run_spmd(2, _rank_id)
        assert all(pid != PARENT_PID for _, _, pid in out)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simmpi backend"):
            run_spmd(2, _rank_id, backend="fibers")


class TestBoundedChannels:
    def test_posted_receives_make_symmetric_bursts_safe(self):
        out = run_spmd(2, _rendezvous, backend="process")
        n_msgs = CHANNEL_SLOTS + 2
        assert out[0] == [1000.0 + i for i in range(n_msgs)]
        assert out[1] == [float(i) for i in range(n_msgs)]

    def test_sendrecv_cycle_with_large_payloads(self):
        out = run_spmd(2, _sendrecv_cycle, backend="process")
        assert out == [1.0, 0.0]


class TestFailurePropagation:
    def test_exception_carries_rank(self):
        with pytest.raises(ValueError, match="rank 2 exploded") as info:
            run_spmd(3, _boom, backend="process")
        assert info.value.simmpi_rank == 2

    def test_unpicklable_exception_is_wrapped(self):
        with pytest.raises(RuntimeError, match="_Unpicklable") as info:
            run_spmd(2, _raise_unpicklable, backend="process")
        assert info.value.simmpi_rank == 1
        assert not isinstance(info.value, RemoteError)


class TestSharedMemoryIntegration:
    def test_field_allocator_places_buffers_in_shared_memory(self):
        out = run_spmd(2, _field_in_shared_memory, backend="process")
        for rank, (n_segments, value, shape) in enumerate(out):
            assert n_segments == 2  # src + dst
            assert value == rank + 0.5
            assert shape == (3, 6, 7)  # ghosted

    def test_thread_backend_has_no_special_allocator(self):
        out = run_spmd(2, lambda comm: comm.field_allocator())
        assert out == [None, None]

    def test_comm_stats_accounted_per_rank(self):
        out = run_spmd(2, _stats_probe, backend="process")
        sends, nbytes = out[0]
        assert sends == 2
        assert nbytes == 8 * 8 + int(INLINE_MAX) * 8
        assert out[1] == 2


class TestStagingAndCompletion:
    def test_best_fit_freelist_reuses_both_segments(self):
        """Regression for first-fit staging: with [large, small] free, a
        small send must claim the small segment so the following large
        send can reuse the large one — exactly two segments ever created
        (first-fit needed three)."""
        out = run_spmd(2, _best_fit_freelist, backend="process")
        assert out[0] == 2
