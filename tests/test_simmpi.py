"""Tests of the simulated MPI runtime (point-to-point + collectives)."""

import numpy as np
import pytest

from repro.simmpi import run_spmd
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG


class TestRuntime:
    def test_single_rank(self):
        assert run_spmd(1, lambda c: c.rank) == [0]

    def test_invalid_rank_count(self):
        with pytest.raises(ValueError, match="rank"):
            run_spmd(0, lambda c: None)

    def test_results_in_rank_order(self):
        assert run_spmd(5, lambda c: c.rank * 2) == [0, 2, 4, 6, 8]

    def test_exception_propagates(self):
        def bad(comm):
            if comm.rank == 2:
                raise RuntimeError("kaput")
            comm.barrier()

        with pytest.raises(RuntimeError, match="kaput"):
            run_spmd(4, bad)

    def test_failure_unblocks_receivers(self):
        def bad(comm):
            if comm.rank == 0:
                raise ValueError("dead sender")
            comm.recv(source=0, tag=1)

        with pytest.raises(ValueError, match="dead sender"):
            run_spmd(3, bad)


class TestPointToPoint:
    def test_ring_exchange(self):
        def ring(comm):
            r, n = comm.rank, comm.size
            got = comm.sendrecv(r, dest=(r + 1) % n, source=(r - 1) % n)
            return got

        assert run_spmd(4, ring) == [3, 0, 1, 2]

    def test_numpy_payload_copied(self):
        def fn(comm):
            if comm.rank == 0:
                data = np.zeros(4)
                comm.send(data, 1, tag=1)
                data[...] = 99.0  # mutation after send must not leak
                comm.barrier()
                return None
            got = None
            if comm.rank == 1:
                got = comm.recv(0, tag=1)
            comm.barrier()
            return None if got is None else got.copy()

        res = run_spmd(2, fn)
        np.testing.assert_allclose(res[1], 0.0)

    def test_tag_matching(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=10)
                comm.send("b", 1, tag=20)
                return None
            b = comm.recv(0, tag=20)
            a = comm.recv(0, tag=10)
            return (a, b)

        assert run_spmd(2, fn)[1] == ("a", "b")

    def test_wildcards(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(41, 1, tag=7)
                return None
            return comm.recv(ANY_SOURCE, ANY_TAG)

        assert run_spmd(2, fn)[1] == 41

    def test_isend_irecv(self):
        def fn(comm):
            if comm.rank == 0:
                req = comm.isend({"x": 1}, 1, tag=3)
                req.wait()
                return None
            req = comm.irecv(0, tag=3)
            assert not req.test() or True
            return req.wait()

        assert run_spmd(2, fn)[1] == {"x": 1}

    def test_invalid_destination(self):
        def fn(comm):
            comm.send(1, 99)

        with pytest.raises(ValueError, match="destination"):
            run_spmd(2, fn)

    def test_probe(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, 1, tag=5)
                comm.barrier()
                return None
            comm.barrier()
            assert comm.probe(0, tag=5)
            assert not comm.probe(0, tag=6)
            return comm.recv(0, tag=5)

        assert run_spmd(2, fn)[1] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
class TestCollectives:
    def test_allreduce_sum(self, n):
        res = run_spmd(n, lambda c: c.allreduce(c.rank + 1))
        assert res == [n * (n + 1) // 2] * n

    def test_allreduce_custom_op(self, n):
        res = run_spmd(n, lambda c: c.allreduce(c.rank, op=max))
        assert res == [n - 1] * n

    def test_bcast_from_each_root(self, n):
        def fn(comm):
            out = []
            for root in range(comm.size):
                v = comm.bcast(f"r{root}" if comm.rank == root else None, root)
                out.append(v)
            return out

        res = run_spmd(n, fn)
        for row in res:
            assert row == [f"r{r}" for r in range(n)]

    def test_gather(self, n):
        res = run_spmd(n, lambda c: c.gather(c.rank**2, root=0))
        assert res[0] == [r**2 for r in range(n)]
        assert all(r is None for r in res[1:])

    def test_allgather(self, n):
        res = run_spmd(n, lambda c: c.allgather(c.rank))
        assert res == [list(range(n))] * n

    def test_scatter(self, n):
        def fn(comm):
            items = [f"i{r}" for r in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(items, root=0)

        assert run_spmd(n, fn) == [f"i{r}" for r in range(n)]

    def test_reduce_numpy(self, n):
        def fn(comm):
            return comm.reduce(np.full(3, float(comm.rank)), root=0)

        res = run_spmd(n, fn)
        np.testing.assert_allclose(res[0], sum(range(n)))


class TestStats:
    def test_bytes_accounted(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), 1, tag=1)
                comm.barrier()
                return comm.stats.bytes_sent
            comm.recv(0, tag=1)
            comm.barrier()
            return comm.stats.recvs

        res = run_spmd(2, fn)
        assert res[0] == 80
        assert res[1] == 1

    def test_scatter_root_validation(self):
        def fn(comm):
            if comm.rank == 0:
                comm.scatter([1], root=0)  # wrong length

        with pytest.raises(ValueError, match="one item per rank"):
            run_spmd(2, fn)
