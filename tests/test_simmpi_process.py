"""Unit tests of the simmpi process backend (transport + communicator).

Everything here runs real OS processes; keep rank counts and payload
sizes small so the shard stays fast.  Semantics under test mirror the
thread-backend tests: tag matching, collectives, snapshot-on-send,
exception propagation with ``simmpi_rank``, plus the process-specific
pieces — messages larger than a pipe holds, bursts that need a sender
to keep draining its own pipes, and the send deadline.
"""

import os
import pickle
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.simmpi import run_spmd
from repro.simmpi.comm import RankTimeout, RemoteError

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
        # 64 KiB: more than the pipe holds, so the send completes only
        # while the receiver, waiting in the barrier, drains its pipes
        arr = np.arange(8192, dtype=float)
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


def _posted_burst(comm, n_msgs, nbytes):
    """Receives posted first, then *n_msgs* sends of *nbytes* each way.

    Either direction alone overfills a pipe, so both ranks wait for room
    at the same time; each must keep draining its own pipes meanwhile.
    """
    peer = 1 - comm.rank
    reqs = [comm.irecv(peer, tag=i) for i in range(n_msgs)]
    for i in range(n_msgs):
        payload = np.full(nbytes // 8, comm.rank * 1000 + i, dtype=float)
        comm.send(payload, peer, tag=i)
    return [float(r.wait()[0]) for r in reqs]


def _sendrecv_cycle(comm, n):
    peer = 1 - comm.rank
    big = np.full(n, float(comm.rank))
    got = comm.sendrecv(big, dest=peer, source=peer)
    assert got.shape == (n,) and (got == float(peer)).all()
    return float(got[0])


def _lengths_across_a_piece(comm, lengths):
    """One message of every length in *lengths*; with the range spanning
    a pipe piece, one of them pickles to exactly a whole piece."""
    if comm.rank == 0:
        for k in lengths:
            comm.send(bytes([k % 251]) * k, 1, tag=1)
        return None
    got = [comm.recv(0, tag=1) for _ in lengths]
    return got == [bytes([k % 251]) * k for k in lengths]


def _big_send_then_barrier(comm, n):
    """Every rank sends *n* doubles around the ring, meets the others
    in the barrier, and only then receives — a wildcard receive, which
    must get the message and never a barrier token."""
    comm.send(np.full(n, float(comm.rank)), (comm.rank + 1) % comm.size,
              tag=5)
    comm.barrier()
    comm.barrier()
    got = comm.recv()
    assert comm.probe() is False
    return float(got[-1])


def _send_to_deaf_peer(comm):
    if comm.rank == 0:
        comm.send(np.zeros(1 << 17), 1, tag=1)   # 1 MiB, never received
        return "sent"
    while not comm.aborted():
        time.sleep(0.02)
    return "peer-released"


def _side_thread_sends(comm, n_threads, n_msgs, n):
    """Rank 0 sends multi-piece messages from its own thread and, at the
    same time, from *n_threads* side threads through ``send_inline`` (as
    delayed-delivery fault timers do); rank 1 gets every one whole."""
    if comm.rank == 1:
        return [[float(comm.recv(0, tag=t)[-1]) for _ in range(n_msgs)]
                for t in range(n_threads + 1)]

    def spray(t):
        for i in range(n_msgs):
            comm._transport.send_inline(np.full(n, 1000.0 * t + i), 1, t)

    threads = [threading.Thread(target=spray, args=(t,))
               for t in range(1, n_threads + 1)]
    for thread in threads:
        thread.start()
    for i in range(n_msgs):
        comm.send(np.full(n, float(i)), 1, tag=0)
    for thread in threads:
        thread.join(timeout=30)
    return [thread.is_alive() for thread in threads]


def _payload(rank, tag, i, size):
    return bytes([(rank * 7 + tag * 31 + i) % 251]) * size


def _framed_streams(comm, sizes, side_sizes):
    """Both ranks send ``sizes[rank]`` messages (tag 0) to each other at
    once, rank 1 also *side_sizes* (tag 1) from a side thread through
    ``send_inline``.  Rank 1 waits before it receives, so unless its own
    sends made it drain, its first read takes a full pipe.  True when
    every payload arrived whole and in order."""
    peer = 1 - comm.rank
    side = None
    if comm.rank == 1:
        def spray():
            for i, size in enumerate(side_sizes):
                comm._transport.send_inline(_payload(1, 1, i, size), 0, 1)

        side = threading.Thread(target=spray)
        side.start()
    for i, size in enumerate(sizes[comm.rank]):
        comm.send(_payload(comm.rank, 0, i, size), peer, tag=0)
    expect = [(0, _payload(peer, 0, i, size))
              for i, size in enumerate(sizes[peer])]
    if comm.rank == 0:
        expect += [(1, _payload(1, 1, i, size))
                   for i, size in enumerate(side_sizes)]
    else:
        time.sleep(0.1)
    got = [(tag, comm.recv(peer, tag=tag)) for tag, _ in expect]
    if side is not None:
        side.join(timeout=30)
    return got == expect and comm.probe() is False


def _frame_len(size):
    """Pipe bytes of rank 0's tag-0 message of *size* payload bytes: the
    4-byte length and the pickled ``(source, tag, payload)``."""
    return 4 + len(pickle.dumps((0, 0, bytes(size)),
                                protocol=pickle.HIGHEST_PROTOCOL))


#: Payload sizes: small, near a 64 KiB pipe, and several pipes' worth.
_SIZES = st.one_of(
    st.integers(0, 200),
    st.integers((1 << 16) - 64, (1 << 16) + 8),
    st.integers(0, 3 << 16),
)


def _size_framed_to(length):
    """A payload size whose frame is *length* bytes long, or None."""
    size = max(0, length - _frame_len(0))
    while size and _frame_len(size) > length:
        size -= 1
    return size if _frame_len(size) == length else None


@st.composite
def _straddling_stream(draw):
    """Rank 0's message sizes, laid out for a Linux pipe of 16 pages: a
    frame of 15 pages, one that leaves ``room`` bytes of the 16th page
    free, then one too long for an atomic write whose length is
    ``split <= room`` past a page multiple.  Its write puts ``split``
    bytes into the free room and stops, so a read of the full pipe ends
    ``split`` bytes into that frame: inside its 4-byte header for a
    split of 1-3.  Elsewhere the sizes are just sizes."""
    page = os.sysconf("SC_PAGE_SIZE")
    room = draw(st.integers(1, 4))
    split = draw(st.integers(1, room))
    long = draw(st.integers(page, 3 << 16))
    long += (split - _frame_len(long)) % page
    sizes = [_size_framed_to(15 * page), _size_framed_to(page - room), long]
    assume(None not in sizes and _frame_len(long) % page == split)
    return sizes + draw(st.lists(_SIZES, max_size=2))


def _self_send(comm):
    req = comm.irecv(comm.rank, tag=5)
    comm.send(np.arange(3, dtype=float), comm.rank, tag=5)
    return float(req.wait().sum())


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
        comm.send(np.arange(8192, dtype=float), 1, tag=2)
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
    """An OS pipe holds 64 KiB; no rank may block writing into one.

    Each test arms the watchdog, so a transport deadlock fails in
    seconds with ``RankTimeout("liveness")`` instead of hanging.
    """

    @pytest.fixture(autouse=True)
    def _watchdog(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMMPI_HANG_TIMEOUT", "1")

    def test_posted_receives_make_symmetric_bursts_safe(self):
        for n_msgs, nbytes in ((40, 7000), (200, 1024)):
            out = run_spmd(2, _posted_burst, n_msgs, nbytes,
                           backend="process")
            assert out[0] == [1000.0 + i for i in range(n_msgs)]
            assert out[1] == [float(i) for i in range(n_msgs)]

    def test_every_message_length_across_a_pipe_piece(self):
        out = run_spmd(2, _lengths_across_a_piece, range(3900, 4300),
                       backend="process")
        assert out[1] is True

    def test_sendrecv_cycle_with_large_payloads(self):
        # 8 KiB, then 1 MiB each way at once: sixteen pipes' worth in
        # flight in both directions
        for n in (1025, 1 << 17):
            out = run_spmd(2, _sendrecv_cycle, n, backend="process")
            assert out == [1.0, 0.0]

    def test_barrier_drains_pipes_for_large_sends(self):
        # 1 MiB each, sixteen pipes' worth per rank, held up by peers
        # that wait in two barriers before they receive
        for n_ranks in (2, 3, 5):
            out = run_spmd(n_ranks, _big_send_then_barrier, 1 << 17,
                           backend="process")
            assert out == [float((r - 1) % n_ranks) for r in range(n_ranks)]

    def test_side_thread_sends_keep_messages_whole(self):
        n_threads, n_msgs = 4, 20
        out = run_spmd(2, _side_thread_sends, n_threads, n_msgs, 3000,
                       backend="process")
        assert out[0] == [False] * n_threads   # every sender finished
        assert out[1] == [[1000.0 * t + i for i in range(n_msgs)]
                          for t in range(n_threads + 1)]

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(stream0=_straddling_stream(),
           stream1=st.lists(_SIZES, max_size=4),
           side_sizes=st.lists(_SIZES, max_size=4))
    def test_frames_across_read_boundaries_arrive_whole_and_in_order(
        self, stream0, stream1, side_sizes
    ):
        out = run_spmd(2, _framed_streams, [stream0, stream1], side_sizes,
                       backend="process")
        assert out == [True, True]

    def test_send_to_a_peer_that_never_receives_hits_send_deadline(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SIMMPI_HANG_TIMEOUT", "5")
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT_SEND", "0.5")
        t0 = time.monotonic()
        with pytest.raises(RankTimeout) as info:
            run_spmd(2, _send_to_deaf_peer, backend="process")
        assert info.value.op == "send"
        assert info.value.failed_ranks == (1,)
        assert time.monotonic() - t0 < 4


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
    def test_comm_stats_accounted_per_rank(self):
        out = run_spmd(2, _stats_probe, backend="process")
        sends, nbytes = out[0]
        assert sends == 2
        assert nbytes == 8 * 8 + 8192 * 8
        assert out[1] == 2

