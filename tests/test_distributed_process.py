"""Thread vs process backend: bitwise-identical distributed runs.

The ISSUE 5 acceptance criterion: a 4-rank ``DistributedSimulation``
must produce bitwise-identical fields on both simmpi backends — down to
the CRC32s recorded in sharded checkpoint manifests — because per-block
arithmetic cannot depend on where a rank executes.  Telemetry merging
(per-rank event files, cross-rank timing reduction) is exercised under
real processes too.
"""

import json
import zlib

import numpy as np
import pytest

from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.distributed import DistributedSimulation
from repro.resilience.store import ShardedCheckpointStore
from repro.telemetry import RunTelemetry, read_events
from repro.thermo.system import TernaryEutecticSystem

SHAPE = (8, 8, 16)
STEPS = 4
N_RANKS = 4


@pytest.fixture(scope="module")
def initial_state():
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(
        system, SHAPE, solid_height=5, n_seeds=5
    )
    phi0 = smooth_phase_field(phi0, 2)
    return system, phi0, mu0


def _run(initial_state, backend, *, bpa=(2, 2, 1), overlap=False,
         n_ranks=N_RANKS, **kwargs):
    system, phi0, mu0 = initial_state
    sim = DistributedSimulation(
        SHAPE, bpa, system=system, kernel="buffered", overlap=overlap,
        n_ranks=n_ranks, backend=backend,
    )
    return sim, sim.run(STEPS, phi0, mu0, **kwargs)


def _crc(arr):
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


class TestBitwiseEquivalence:
    def test_four_rank_run_bitwise_identical(self, initial_state):
        _, res_t = _run(initial_state, "thread")
        _, res_p = _run(initial_state, "process")
        np.testing.assert_array_equal(res_p.phi, res_t.phi)
        np.testing.assert_array_equal(res_p.mu, res_t.mu)
        assert _crc(res_p.phi) == _crc(res_t.phi)
        assert _crc(res_p.mu) == _crc(res_t.mu)

    def test_multiple_blocks_per_rank(self, initial_state):
        """2 ranks x 4 blocks: mixes same-rank copies with remote slabs."""
        _, res_t = _run(initial_state, "thread", n_ranks=2)
        _, res_p = _run(initial_state, "process", n_ranks=2)
        np.testing.assert_array_equal(res_p.phi, res_t.phi)
        np.testing.assert_array_equal(res_p.mu, res_t.mu)

    def test_overlap_schedule_matches(self, initial_state):
        """Algorithm 2 (deferred mu exchange) under real processes."""
        _, res_t = _run(initial_state, "thread", overlap=True)
        _, res_p = _run(initial_state, "process", overlap=True)
        np.testing.assert_array_equal(res_p.phi, res_t.phi)
        np.testing.assert_array_equal(res_p.mu, res_t.mu)

    def test_checkpoint_manifests_have_identical_crcs(
        self, initial_state, tmp_path
    ):
        manifests = {}
        for backend in ("thread", "process"):
            store = ShardedCheckpointStore(tmp_path / backend)
            _run(initial_state, backend, shard_store=store,
                 checkpoint_every=STEPS)
            with open(store.manifest_for(STEPS)) as fh:
                manifests[backend] = json.load(fh)

        def crc_table(manifest):
            return {
                name: meta["crc32"]
                for entry in manifest["shards"]
                for name, meta in entry["arrays"].items()
            }

        thread_crcs = crc_table(manifests["thread"])
        process_crcs = crc_table(manifests["process"])
        assert thread_crcs  # one phi + one mu entry per block
        assert process_crcs == thread_crcs


class TestTelemetryUnderProcesses:
    def test_events_and_timing_merge_across_processes(
        self, initial_state, tmp_path
    ):
        telemetry = RunTelemetry(directory=tmp_path, run_id="proc-test")
        _, res = _run(initial_state, "process", telemetry=telemetry)

        # every rank's events came back from its own process, and the
        # merged stream is on disk
        merged = telemetry.merge_events()
        assert read_events(tmp_path / "events-merged.jsonl") == merged
        kinds = {e["kind"] for e in merged}
        assert {"run_start", "run_end"} <= kinds
        assert {e["rank"] for e in merged} == set(range(N_RANKS))
        for rank in range(N_RANKS):
            own = [e["kind"] for e in merged if e["rank"] == rank]
            assert own[0] == "run_start" and own[-1] == "run_end"

        # every rank's tree came back with its result and was merged
        assert res.timing is not None
        top = set(res.timing["children"])
        assert {"compute", "comm"} <= top
        comp = res.timing["children"]["compute"]
        assert comp["children"]["phi"]["count"] == STEPS * N_RANKS
        assert comp["children"]["phi"]["total"] > 0.0

        # counters were summed over ranks (each rank counted its halo)
        assert res.counters["halo_bytes"] > 0
        assert res.counters["halo_messages"] >= 2 * N_RANKS

        # the run report is written and schema-valid
        report_file = tmp_path / "report-proc-test.json"
        assert report_file.exists()
        report = json.loads(report_file.read_text())
        assert report["config"]["backend"] == "process"
        assert report["ranks"] == N_RANKS

    def test_thread_and_process_reports_agree_on_structure(
        self, initial_state, tmp_path
    ):
        structures = {}
        for backend in ("thread", "process"):
            telemetry = RunTelemetry(directory=tmp_path / backend,
                                     run_id=backend)
            _, res = _run(initial_state, backend, telemetry=telemetry)
            structures[backend] = (
                sorted(res.timing["children"]),
                sorted(res.counters),
            )
        assert structures["thread"] == structures["process"]
