"""Timing trees: the span record, its fold, and the cross-rank merge."""

import sys
import threading
import time

import pytest

from repro.simmpi.runtime import run_spmd
from repro.telemetry import timing
from repro.telemetry.reduce import as_reduced, merge_rank_trees, merge_reduced
from repro.telemetry.timing import TimerStats, TimingTree


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


def _node(tree_dict, path):
    for part in path.split("/"):
        tree_dict = tree_dict["children"][part]
    return tree_dict


class TestTimingTree:
    def test_record_resolves_from_root(self):
        tree = TimingTree()
        tree.record("comm/phi", 0.25)
        tree.record("comm/pipe/send", 0.5)
        tree.record("compute", 0.125)
        d = tree.to_dict()
        assert list(d["children"]) == ["comm", "compute"]
        assert _node(d, "comm/phi")["total"] == 0.25
        assert _node(d, "comm/pipe/send")["count"] == 1
        # intermediate scopes exist and carry no measurement of their own
        comm = _node(d, "comm")
        assert (comm["count"], comm["total"], comm["min"]) == (0, 0.0, 0.0)

    def test_overflow_fold_is_exact(self, monkeypatch):
        """Past the capacity the oldest half is folded into the tree's
        aggregates: the tree equals a direct computation over every
        record, the timeline keeps the newest spans and counts the rest
        as dropped."""
        monkeypatch.setattr(timing, "CAPACITY", 8)
        paths = ["compute/phi", "comm/phi", "guard"]
        tree = TimingTree()
        made = []
        for i in range(1000):
            path, seconds = paths[i % 3], ((i * 7919) % 1009 + 1) * 1e-6
            tree.record(path, seconds, i=i)
            made.append((path, seconds))
        d = tree.to_dict()
        for path in paths:
            durations = [sec for p, sec in made if p == path]
            total = 0.0
            for sec in durations:
                total += sec
            node = _node(d, path)
            assert node["count"] == len(durations)
            assert node["total"] == total
            assert node["min"] == min(durations)
            assert node["max"] == max(durations)
        kept = tree.spans()
        assert 0 < len(kept) <= 8
        assert [s.args["i"] for s in kept] == list(
            range(1000 - len(kept), 1000))
        assert tree.dropped == 1000 - len(kept)

    def test_side_threads_lose_no_record(self, monkeypatch):
        """Appends from more threads than cores race the folds and a
        reader; every record is counted exactly once.  A short switch
        interval and a fold that yields the GIL at each folded record
        make the threads interleave inside every fold."""
        monkeypatch.setattr(timing, "CAPACITY", 64)
        fold_one = TimerStats.record

        def yielding(stats, seconds):
            time.sleep(0)
            fold_one(stats, seconds)

        monkeypatch.setattr(TimerStats, "record", yielding)
        n_threads, per_thread = 4, 5000
        tree = TimingTree()
        start = threading.Barrier(n_threads + 1, timeout=30)

        def worker(k):
            start.wait()
            for _ in range(per_thread):
                tree.record(f"t{k}", 1e-6)

        threads = [threading.Thread(target=worker, args=(k,), daemon=True)
                   for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            start.wait()
            deadline = time.monotonic() + 60
            while (any(t.is_alive() for t in threads)
                   and time.monotonic() < deadline):
                tree.to_dict()
                tree.spans()
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        d = tree.to_dict()
        assert [d["children"][f"t{k}"]["count"]
                for k in range(n_threads)] == [per_thread] * n_threads
        assert tree.dropped + len(tree.spans()) == n_threads * per_thread


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
            return tree.to_dict()

        # each rank returns its tree; the caller merges them in rank order
        merged = merge_rank_trees(run_spmd(n_ranks, rank_main))
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
        itself (``rank<r>/only``) and returns its tree; the merge must
        keep all of them with correct per-scope rank counts — no
        KeyError when one side of a merge lacks a child the other has.
        """

        def rank_main(comm):
            tree = TimingTree()
            tree.record("compute", 0.1)
            tree.record(f"rank{comm.rank}/only", 0.01 * (comm.rank + 1))
            if comm.rank % 2:
                tree.record("odd_ranks_only", 0.5)
            return tree.to_dict()

        merged = merge_rank_trees(run_spmd(n_ranks, rank_main))
        assert merged["children"]["compute"]["n_ranks"] == n_ranks
        for r in range(n_ranks):
            only = merged["children"][f"rank{r}"]["children"]["only"]
            assert only["n_ranks"] == 1
            assert only["total"] == pytest.approx(0.01 * (r + 1))
        odd = merged["children"]["odd_ranks_only"]
        assert odd["n_ranks"] == n_ranks // 2
        assert odd["total"] == pytest.approx(0.5 * (n_ranks // 2))
