"""Two-phase sharded checkpoints: commit protocol, N→M restore, I/O faults.

The elastic-restart format of :mod:`repro.io.sharded` /
:class:`repro.resilience.store.ShardedCheckpointStore`: per-rank shards
are durable only once rank 0 publishes the manifest, a checkpoint
written by N ranks restores on any M >= 1 ranks, and checkpoint writes
survive injected transient I/O failures through bounded retries.
"""

import numpy as np
import pytest

from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.distributed import DistributedSimulation
from repro.io.checkpoint import CheckpointError
from repro.io.sharded import load_shard, write_manifest, write_shard
from repro.resilience import (
    Fault,
    FaultPlan,
    RetryPolicy,
    ShardedCheckpointStore,
    retry_io,
)
from repro.thermo.system import TernaryEutecticSystem

SHAPE = (12, 20)
N, M = 4, 9  # checkpoint step, final step


@pytest.fixture(scope="module")
def setup():
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(system, SHAPE, solid_height=7, n_seeds=4)
    phi0 = smooth_phase_field(phi0, 2)
    dsim = DistributedSimulation(SHAPE, (2, 2), system=system, kernel="buffered")
    return dsim, phi0, mu0


def _state(dsim, phi, mu, step):
    return {
        "phi": phi, "mu": mu, "time": step * dsim.params.dt,
        "step_count": step, "kernel": dsim.kernel,
    }


def _rank_blocks(dsim, phi, mu, rank):
    """The (phi, mu) interior bundles of the blocks *rank* owns."""
    blocks = {}
    for b in dsim.forest.blocks:
        if dsim.owner[b.id] != rank:
            continue
        sl = (slice(None),) + tuple(
            slice(o, o + s) for o, s in zip(b.offset, b.shape)
        )
        blocks[b.id] = (phi[sl], mu[sl])
    return blocks


class TestTwoPhaseCommit:
    def test_save_load_roundtrip(self, setup, tmp_path):
        dsim, phi0, mu0 = setup
        first = dsim.run(N, phi0, mu0)
        store = ShardedCheckpointStore(tmp_path)
        store.save_global(_state(dsim, first.phi, first.mu, N),
                          forest=dsim.forest, owner=dsim.owner,
                          n_ranks=dsim.n_ranks)
        assert store.steps() == [N]
        state = store.load_latest()
        assert state["step_count"] == N
        assert state["time"] == pytest.approx(N * dsim.params.dt)
        # float32 storage is the only loss
        np.testing.assert_array_equal(
            state["phi"], first.phi.astype(np.float32).astype(np.float64)
        )
        np.testing.assert_array_equal(
            state["mu"], first.mu.astype(np.float32).astype(np.float64)
        )

    def test_shards_are_uncompressed(self, setup, tmp_path):
        """The float32 arrays are stored, not deflated."""
        import zipfile

        dsim, phi0, mu0 = setup
        path = tmp_path / "shard.npz"
        write_shard(path, _rank_blocks(dsim, phi0, mu0, 0), rank=0)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {
                zipfile.ZIP_STORED
            }

    def test_compressed_shard_still_loads(self, setup, tmp_path):
        """A shard written compressed, as earlier versions wrote it, still
        loads and CRC-verifies against its manifest entry."""
        dsim, phi0, mu0 = setup
        blocks = _rank_blocks(dsim, phi0, mu0, 0)
        path = tmp_path / "shard.npz"
        entry = write_shard(path, blocks, rank=0)
        with np.load(path) as data:
            payload = {name: data[name] for name in data.files}
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
        loaded = load_shard(path, entry)
        assert set(loaded) == set(blocks)
        for bid, (phi, mu) in blocks.items():
            np.testing.assert_array_equal(
                loaded[bid][0], phi.astype(np.float32).astype(np.float64)
            )
            np.testing.assert_array_equal(
                loaded[bid][1], mu.astype(np.float32).astype(np.float64)
            )
        # and the CRCs are checked on it: a flipped value is caught
        payload[f"phi_{min(blocks)}"] = payload[f"phi_{min(blocks)}"] + 1
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
        with pytest.raises(CheckpointError):
            load_shard(path, entry)

    def test_orphan_shards_without_manifest_never_load(self, setup, tmp_path):
        """A write phase with no publish is not a checkpoint."""
        dsim, phi0, mu0 = setup
        store = ShardedCheckpointStore(tmp_path)
        assert store.load_latest() is None  # an empty store serves nothing
        for rank in range(dsim.n_ranks):
            store.write_rank_shard(
                rank=rank, step=N, blocks=_rank_blocks(dsim, phi0, mu0, rank)
            )
        assert len(store.shards()) == dsim.n_ranks
        assert store.steps() == []
        assert store.load_latest() is None

    def test_interrupted_generation_falls_back_to_committed(
        self, setup, tmp_path
    ):
        """Shards of a crashed checkpoint never shadow the committed one."""
        dsim, phi0, mu0 = setup
        store = ShardedCheckpointStore(tmp_path)
        store.save_global(_state(dsim, phi0, mu0, N),
                          forest=dsim.forest, owner=dsim.owner,
                          n_ranks=dsim.n_ranks)
        # newer write phase interrupted before the manifest was published
        store.write_rank_shard(
            rank=0, step=M, blocks=_rank_blocks(dsim, phi0, mu0, 0)
        )
        state = store.load_latest()
        assert state["step_count"] == N

    def test_manifest_requires_full_block_coverage(self, setup, tmp_path):
        dsim, phi0, mu0 = setup
        store = ShardedCheckpointStore(tmp_path)
        entries = [
            store.write_rank_shard(
                rank=rank, step=N, blocks=_rank_blocks(dsim, phi0, mu0, rank)
            )
            for rank in range(dsim.n_ranks - 1)  # one rank missing
        ]
        with pytest.raises(CheckpointError, match="cover"):
            write_manifest(
                store.manifest_for(N), entries, step=N, time=0.0,
                topology={**dsim.forest.meta(), "n_ranks": dsim.n_ranks,
                          "owner": list(dsim.owner)},
            )

    def test_duplicate_ranks_rejected(self, setup, tmp_path):
        dsim, phi0, mu0 = setup
        store = ShardedCheckpointStore(tmp_path)
        entry = store.write_rank_shard(
            rank=0, step=N, blocks=_rank_blocks(dsim, phi0, mu0, 0)
        )
        with pytest.raises(CheckpointError, match="duplicate"):
            write_manifest(
                store.manifest_for(N), [entry, entry], step=N, time=0.0,
                topology={**dsim.forest.meta(), "n_ranks": dsim.n_ranks,
                          "owner": list(dsim.owner)},
            )


class TestReshardRestore:
    @pytest.mark.parametrize("m_ranks", [2, 1])
    def test_restore_on_fewer_ranks_is_bitwise(self, setup, tmp_path, m_ranks):
        """A 4-rank checkpoint resumed on M ranks matches bit for bit."""
        dsim, phi0, mu0 = setup
        first = dsim.run(N, phi0, mu0)
        store = ShardedCheckpointStore(tmp_path)
        store.save_global(_state(dsim, first.phi, first.mu, N),
                          forest=dsim.forest, owner=dsim.owner,
                          n_ranks=dsim.n_ranks)
        state = store.load_latest()
        resumed4 = dsim.run(M - N, state["phi"], state["mu"],
                            t0=state["time"], step0=N)
        small = dsim.shrunk(m_ranks)
        assert small.n_ranks == m_ranks
        resumed_m = small.run(M - N, state["phi"], state["mu"],
                              t0=state["time"], step0=N)
        np.testing.assert_array_equal(resumed_m.phi, resumed4.phi)
        np.testing.assert_array_equal(resumed_m.mu, resumed4.mu)

    def test_shrunk_onto_no_or_too_many_ranks_rejected(self, setup):
        dsim = setup[0]
        for m_ranks in (0, dsim.forest.n_blocks + 1):
            with pytest.raises(ValueError, match="blocks on"):
                dsim.shrunk(m_ranks)


class TestQuarantine:
    def _corrupt_one_array(self, shard_file):
        """Bit-flip a field value inside a shard, keeping the file valid."""
        with np.load(shard_file) as data:
            payload = {name: np.array(data[name]) for name in data.files}
        name = next(n for n in payload if n.startswith("phi_"))
        payload[name] = np.array(payload[name])
        payload[name].flat[0] += 1.0
        with open(shard_file, "wb") as fh:
            np.savez_compressed(fh, **payload)

    def test_crc_corrupt_generation_quarantined_older_served(
        self, setup, tmp_path
    ):
        dsim, phi0, mu0 = setup
        store = ShardedCheckpointStore(tmp_path)
        for step in (N, M):
            store.save_global(_state(dsim, phi0, mu0, step),
                              forest=dsim.forest, owner=dsim.owner,
                              n_ranks=dsim.n_ranks)
        newest = [p for p in store.shards() if store._step_of(p) == M]
        self._corrupt_one_array(newest[0])

        state = store.load_latest()
        assert state["step_count"] == N
        # the whole generation — manifest and all shards — is moved aside
        names = {p.name for p in store.quarantined()}
        assert store.manifest_for(M).name in names
        assert {p.name for p in newest} <= names
        assert store.steps() == [N]

        # once every generation is corrupt, nothing is served
        self._corrupt_one_array(store.shards()[0])
        assert store.load_latest() is None
        assert store.steps() == [] and store.shards() == []
        assert store.manifest_for(N).name in {
            p.name for p in store.quarantined()
        }


class TestRotation:
    def test_keeps_last_k_generations(self, setup, tmp_path):
        dsim, phi0, mu0 = setup
        store = ShardedCheckpointStore(tmp_path, keep=2)
        for step in range(1, 5):
            store.save_global(_state(dsim, phi0, mu0, step),
                              forest=dsim.forest, owner=dsim.owner,
                              n_ranks=dsim.n_ranks)
        assert store.steps() == [3, 4]
        assert {store._step_of(p) for p in store.shards()} == {3, 4}

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            ShardedCheckpointStore(tmp_path, keep=0)


class TestRetryIo:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        retries = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        result = retry_io(
            flaky, policy=RetryPolicy(attempts=4, base_delay=1e-4),
            on_retry=lambda a, e, d: retries.append((a, d)),
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert len(retries) == 2

    def test_exhausts_and_reraises(self):
        def broken():
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            retry_io(broken, policy=RetryPolicy(attempts=3, base_delay=1e-4))

    def test_jitter_is_seed_deterministic(self):
        policy = RetryPolicy(attempts=4, base_delay=1e-4)

        def delays(seed):
            out = []

            def broken():
                raise OSError("x")

            with pytest.raises(OSError):
                retry_io(broken, policy=policy, seed=seed,
                         on_retry=lambda a, e, d: out.append(d))
            return out

        assert delays(7) == delays(7)
        assert delays(7) != delays(8)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(attempts=6, base_delay=0.001, max_delay=0.004,
                             jitter=0.0)
        rng = np.random.default_rng(0)
        raw = [policy.delay_for(a, rng) for a in range(5)]
        assert raw == [0.001, 0.002, 0.004, 0.004, 0.004]


class TestInjectedIoFaults:
    def test_enospc_is_retried_and_write_succeeds(self, setup, tmp_path):
        dsim, phi0, mu0 = setup
        plan = FaultPlan([Fault(kind="io_enospc", step=N, rank=0)])
        store = ShardedCheckpointStore(
            tmp_path, retry_policy=RetryPolicy(attempts=4, base_delay=1e-4),
        )
        entry = store.write_rank_shard(
            rank=0, step=N, blocks=_rank_blocks(dsim, phi0, mu0, 0),
            fault_plan=plan,
        )
        assert store.stats["io_retries"] == 1
        assert len(plan.fired()) == 1
        load_shard(store.shard_for(N, 0), entry)  # verifies CRCs

    def test_torn_write_retry_leaves_complete_file(self, setup, tmp_path):
        """The retry's atomic rewrite replaces the torn file."""
        dsim, phi0, mu0 = setup
        plan = FaultPlan([Fault(kind="io_torn_write", step=N, rank=0)])
        store = ShardedCheckpointStore(
            tmp_path, retry_policy=RetryPolicy(attempts=4, base_delay=1e-4),
        )
        entry = store.write_rank_shard(
            rank=0, step=N, blocks=_rank_blocks(dsim, phi0, mu0, 0),
            fault_plan=plan,
        )
        assert store.stats["io_retries"] == 1
        load_shard(store.shard_for(N, 0), entry)

    def test_ckpt_truncate_quarantines_generation_older_served(
        self, setup, tmp_path
    ):
        """A generation torn after its commit is quarantined on load."""
        dsim, phi0, mu0 = setup
        plan = FaultPlan([Fault(kind="ckpt_truncate", step=M)])
        store = ShardedCheckpointStore(tmp_path)
        for step in (N, M):
            entries = [
                store.write_rank_shard(
                    rank=rank, step=step,
                    blocks=_rank_blocks(dsim, phi0, mu0, rank),
                    fault_plan=plan,
                )
                for rank in range(dsim.n_ranks)
            ]
            store.publish_manifest(
                entries, step=step, time=0.0, topology=dsim.topology(),
                fault_plan=plan,
            )
        assert len(plan.fired()) == 1
        assert store.steps() == [N, M]  # committed, then torn

        state = store.load_latest()
        assert state["step_count"] == N
        assert store.manifest_for(M).name in {
            p.name for p in store.quarantined()
        }
        assert store.steps() == [N]

    def test_persistent_outage_exhausts_and_raises(self, setup, tmp_path):
        dsim, phi0, mu0 = setup
        plan = FaultPlan(
            [Fault(kind="io_enospc", step=N, rank=0) for _ in range(8)]
        )
        store = ShardedCheckpointStore(
            tmp_path, retry_policy=RetryPolicy(attempts=3, base_delay=1e-4),
        )
        with pytest.raises(OSError):
            store.write_rank_shard(
                rank=0, step=N, blocks=_rank_blocks(dsim, phi0, mu0, 0),
                fault_plan=plan,
            )
        assert store.stats["io_retries"] == 2  # attempts - 1
