"""Timing trees, pools and their cross-rank reduction."""

import time

import pytest

from repro.simmpi.runtime import run_spmd
from repro.telemetry.reduce import (
    as_reduced,
    merge_rank_trees,
    merge_reduced,
    reduce_tree_over_ranks,
)
from repro.telemetry.timing import TimerStats, TimingPool, TimingTree


class TestTimerStats:
    def test_record_and_stats(self):
        s = TimerStats()
        for v in (0.1, 0.3, 0.2):
            s.record(v)
        assert s.count == 3
        assert s.total == pytest.approx(0.6)
        assert s.min == pytest.approx(0.1)
        assert s.max == pytest.approx(0.3)
        assert s.avg == pytest.approx(0.2)

    def test_empty_stats(self):
        s = TimerStats()
        assert s.avg == 0.0
        assert s.to_dict()["min"] == 0.0  # inf never leaks into JSON

    def test_merge(self):
        a, b = TimerStats(), TimerStats()
        a.record(1.0)
        b.record(3.0)
        a.merge(b)
        assert a.count == 2 and a.min == 1.0 and a.max == 3.0

    def test_round_trip(self):
        s = TimerStats()
        s.record(0.5)
        s.record(1.5)
        again = TimerStats.from_dict(s.to_dict())
        assert again.count == s.count
        assert again.total == pytest.approx(s.total)
        assert again.min == pytest.approx(s.min)


class TestTimingTree:
    def test_nesting(self):
        tree = TimingTree()
        with tree.scope("step"):
            with tree.scope("phi"):
                pass
            with tree.scope("mu"):
                pass
        assert "step" in tree
        assert "step/phi" in tree and "step/mu" in tree
        assert tree.node("step").stats.count == 1
        # parent covers its children
        children = tree.node("step/phi").stats.total + tree.node(
            "step/mu"
        ).stats.total
        assert tree.node("step").stats.total >= children

    def test_scope_mismatch(self):
        tree = TimingTree()
        tree.start("a")
        with pytest.raises(RuntimeError, match="mismatch"):
            tree.stop("b")
        tree.stop("a")
        with pytest.raises(RuntimeError, match="no timing scope"):
            tree.stop()

    def test_record_resolves_from_root(self):
        tree = TimingTree()
        with tree.scope("outer"):
            tree.record("comm/phi", 0.25)
        # recorded at the root-level path, not under the open scope
        assert "comm/phi" in tree
        assert "outer/comm" not in tree
        assert tree.node("comm/phi").stats.total == pytest.approx(0.25)

    def test_flatten_and_round_trip(self):
        tree = TimingTree()
        tree.record("a/b", 1.0)
        tree.record("a/b", 2.0)
        tree.record("c", 0.5)
        flat = tree.flatten()
        assert set(flat) == {"a", "a/b", "c"}
        assert flat["a/b"].count == 2
        again = TimingTree.from_dict(tree.to_dict())
        assert again.node("a/b").stats.total == pytest.approx(3.0)

    def test_merge_and_reset(self):
        t1, t2 = TimingTree(), TimingTree()
        t1.record("x", 1.0)
        t2.record("x", 2.0)
        t2.record("y", 0.1)
        t1.merge(t2)
        assert t1.node("x").stats.count == 2
        assert "y" in t1
        t1.reset()
        assert "x" not in t1

    def test_time_call(self):
        tree = TimingTree()
        out = tree.time_call("f", lambda a: a + 1, 41)
        assert out == 42
        assert tree.node("f").stats.count == 1


class TestTimingPool:
    def test_context_accumulation(self):
        pool = TimingPool()
        for _ in range(3):
            with pool("io"):
                time.sleep(0.001)
        assert pool["io"].count == 3
        assert pool["io"].total >= 0.003
        assert "io" in pool and len(pool) == 1

    def test_merge(self):
        a, b = TimingPool(), TimingPool()
        with a("x"):
            pass
        with b("x"):
            pass
        a.merge(b)
        assert a["x"].count == 2


class TestReduction:
    def _tree(self, seconds):
        tree = TimingTree()
        tree.record("compute/phi", seconds)
        tree.record("comm", seconds * 2)
        return tree

    def test_as_reduced_shape(self):
        node = as_reduced(self._tree(0.5).to_dict())
        phi = node["children"]["compute"]["children"]["phi"]
        assert phi["n_ranks"] == 1
        assert phi["rank_min"] == phi["rank_max"] == pytest.approx(0.5)
        assert phi["rank_avg"] == pytest.approx(0.5)

    def test_merge_rank_trees(self):
        merged = merge_rank_trees(
            [self._tree(0.2).to_dict(), self._tree(0.6).to_dict()]
        )
        phi = merged["children"]["compute"]["children"]["phi"]
        assert phi["n_ranks"] == 2
        assert phi["rank_min"] == pytest.approx(0.2)
        assert phi["rank_max"] == pytest.approx(0.6)
        assert phi["rank_avg"] == pytest.approx(0.4)
        assert phi["total"] == pytest.approx(0.8)

    def test_merge_reduced_associative(self):
        dicts = [self._tree(s).to_dict() for s in (0.1, 0.2, 0.3, 0.4)]
        left = merge_reduced(
            merge_reduced(as_reduced(dicts[0]), as_reduced(dicts[1])),
            merge_reduced(as_reduced(dicts[2]), as_reduced(dicts[3])),
        )
        seq = merge_rank_trees(dicts)
        phi_l = left["children"]["compute"]["children"]["phi"]
        phi_s = seq["children"]["compute"]["children"]["phi"]
        assert phi_l["n_ranks"] == phi_s["n_ranks"] == 4
        assert phi_l["total"] == pytest.approx(phi_s["total"])
        assert phi_l["rank_avg"] == pytest.approx(phi_s["rank_avg"])

    @pytest.mark.parametrize("n_ranks", [2, 3, 4])
    def test_reduce_over_ranks_spmd(self, n_ranks):
        def rank_main(comm):
            tree = TimingTree()
            tree.record("compute", 0.1 * (comm.rank + 1))
            tree.record("comm", 0.01)
            return reduce_tree_over_ranks(comm, tree)

        results = run_spmd(n_ranks, rank_main)
        # the reduction lands on rank 0 only
        assert all(r is None for r in results[1:])
        merged = results[0]
        comp = merged["children"]["compute"]
        assert comp["n_ranks"] == n_ranks
        assert comp["rank_min"] == pytest.approx(0.1)
        assert comp["rank_max"] == pytest.approx(0.1 * n_ranks)
        assert comp["total"] == pytest.approx(
            sum(0.1 * (r + 1) for r in range(n_ranks))
        )

    def test_merge_mismatched_shapes(self):
        """Scopes present on only some ranks merge without loss.

        Real trees disagree across ranks: only the process backend
        records ``comm/pipe/*``, only compiled ranks record ``compile``,
        and a guard scope appears only where a guard fired.  The merge
        must keep every scope, with ``n_ranks`` counting the ranks that
        actually measured it.
        """
        a = TimingTree()
        a.record("compute/phi", 0.2)
        a.record("compile", 1.5)
        b = TimingTree()
        b.record("compute/phi", 0.4)
        b.record("comm/pipe/send", 0.05)
        merged = merge_rank_trees([a.to_dict(), b.to_dict()])
        phi = merged["children"]["compute"]["children"]["phi"]
        assert phi["n_ranks"] == 2
        assert phi["total"] == pytest.approx(0.6)
        compile_ = merged["children"]["compile"]
        assert compile_["n_ranks"] == 1
        assert compile_["rank_min"] == compile_["rank_max"] == pytest.approx(1.5)
        send = merged["children"]["comm"]["children"]["pipe"]["children"]["send"]
        assert send["n_ranks"] == 1
        assert send["total"] == pytest.approx(0.05)

    @pytest.mark.parametrize("n_ranks", [2, 3, 4])
    def test_reduce_over_ranks_mismatched_shapes(self, n_ranks):
        """Cross-rank reduction over genuinely different per-rank trees.

        Every rank records a shared scope plus one scope unique to
        itself (``rank<r>/only``); the pairwise log2(P) reduction must
        deliver all of them to rank 0 with correct per-scope rank
        counts — no KeyError when one side of a pairwise merge lacks a
        child the other has.
        """

        def rank_main(comm):
            tree = TimingTree()
            tree.record("compute", 0.1)
            tree.record(f"rank{comm.rank}/only", 0.01 * (comm.rank + 1))
            if comm.rank % 2:
                tree.record("odd_ranks_only", 0.5)
            return reduce_tree_over_ranks(comm, tree)

        results = run_spmd(n_ranks, rank_main)
        merged = results[0]
        assert merged["children"]["compute"]["n_ranks"] == n_ranks
        for r in range(n_ranks):
            only = merged["children"][f"rank{r}"]["children"]["only"]
            assert only["n_ranks"] == 1
            assert only["total"] == pytest.approx(0.01 * (r + 1))
        odd = merged["children"]["odd_ranks_only"]
        assert odd["n_ranks"] == n_ranks // 2
        assert odd["total"] == pytest.approx(0.5 * (n_ranks // 2))
