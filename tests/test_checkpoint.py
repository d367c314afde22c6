"""Tests of single-precision checkpointing and restart."""

import numpy as np
import pytest

from repro.core.solver import Simulation
from repro.io.checkpoint import (
    CheckpointError,
    load_checkpoint,
    restore_simulation,
    save_checkpoint,
)
from repro.thermo.system import TernaryEutecticSystem


@pytest.fixture
def sim():
    s = Simulation(shape=(5, 5, 10), kernel="buffered")
    s.initialize_voronoi(seed=2, n_seeds=4)
    s.step(4)
    return s


class TestRoundtrip:
    def test_metadata_preserved(self, sim, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, sim)
        state = load_checkpoint(path)
        assert state["step_count"] == 4
        assert state["time"] == pytest.approx(sim.time)
        assert state["shape"] == sim.shape
        assert state["kernel"] == "buffered"

    def test_fields_float32_rounded(self, sim, tmp_path):
        path = tmp_path / "ck.npz"
        info = save_checkpoint(path, sim)
        state = load_checkpoint(path)
        np.testing.assert_allclose(
            state["phi"], sim.phi.interior_src, atol=1e-6
        )
        # 4 phi + 2 mu single-precision values per cell (Sec. 3.2)
        assert info["values_per_cell"] == 6
        assert info["payload_bytes"] == 6 * 4 * np.prod(sim.shape)

    def test_restart_continues_deterministically(self, sim, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, sim)
        # continue the original
        sim.step(3)

        fresh = Simulation(
            shape=(5, 5, 10), kernel="buffered",
            system=sim.system, params=sim.params, temperature=sim.temperature,
        )
        restore_simulation(path, fresh)
        assert fresh.step_count == 4
        fresh.step(3)
        # float32 rounding of the stored state bounds the divergence
        np.testing.assert_allclose(
            fresh.phi.interior_src, sim.phi.interior_src, atol=1e-4
        )

    def test_restart_from_exact_state_is_bitwise(self, tmp_path):
        """With a float32-exact state the restart is bitwise identical."""
        s1 = Simulation(shape=(4, 4, 8), kernel="buffered")
        phi0 = np.zeros((4, 4, 4, 8))
        phi0[3] = 1.0
        phi0[3, :, :, :3] = 0.0
        phi0[0, :, :, :3] = 1.0
        mu0 = np.zeros((2, 4, 4, 8))
        s1.initialize(phi0, mu0)

        path = tmp_path / "ck.npz"
        save_checkpoint(path, s1)
        s2 = Simulation(
            shape=(4, 4, 8), kernel="buffered",
            system=s1.system, params=s1.params, temperature=s1.temperature,
        )
        restore_simulation(path, s2)
        s1.step(3)
        s2.step(3)
        np.testing.assert_array_equal(s1.phi.interior_src, s2.phi.interior_src)
        np.testing.assert_array_equal(s1.mu.interior_src, s2.mu.interior_src)


class TestFailureModes:
    def test_shape_mismatch_rejected(self, sim, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, sim)
        other = Simulation(shape=(4, 4, 8))
        with pytest.raises(ValueError, match="shape"):
            restore_simulation(path, other)

    def test_version_check(self, sim, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, sim)
        data = dict(np.load(path))
        data["format_version"] = np.int64(99)
        np.savez(tmp_path / "bad.npz", **data)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(tmp_path / "bad.npz")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.npz"
        path.write_bytes(b"PK\x03\x04 not a real archive")
        with pytest.raises(Exception):
            load_checkpoint(path)


def _write_v1(path, sim):
    """Seed-era v1 checkpoint: no manifest, no checksums, plain savez."""
    np.savez_compressed(
        path,
        format_version=np.int64(1),
        phi=sim.phi.interior_src.astype(np.float32),
        mu=sim.mu.interior_src.astype(np.float32),
        time=np.float64(sim.time),
        step_count=np.int64(sim.step_count),
        z_offset=np.int64(sim.z_offset),
        shape=np.asarray(sim.shape, dtype=np.int64),
        kernel=np.bytes_(sim.kernel_name.encode()),
    )


class TestDurableFormat:
    def test_write_is_atomic_no_tmp_left(self, sim, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, sim)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_mid_write_preserves_previous(self, sim, tmp_path, monkeypatch):
        """A failed write never replaces the good generation in place."""
        import repro.io.checkpoint as ck

        path = tmp_path / "ck.npz"
        save_checkpoint(path, sim)
        before = path.read_bytes()

        def boom(fh, **kwargs):
            fh.write(b"half a checkpoint")
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(ck.np, "savez", boom)
        with pytest.raises(OSError, match="mid-write"):
            save_checkpoint(path, sim)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_checksums_in_summary_and_verified(self, sim, tmp_path):
        path = tmp_path / "ck.npz"
        info = save_checkpoint(path, sim)
        assert info["format_version"] == 2
        assert set(info["checksums"]) == {"phi", "mu"}
        state = load_checkpoint(path)
        assert state["format_version"] == 2

    def test_corrupted_array_detected(self, sim, tmp_path):
        """Flipping stored bytes must fail the CRC check on load."""
        path = tmp_path / "ck.npz"
        save_checkpoint(path, sim)
        data = dict(np.load(path))
        data["phi"] = data["phi"] + np.float32(0.25)  # silent corruption
        np.savez(tmp_path / "bad.npz", **data)
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(tmp_path / "bad.npz")

    def test_shape_metadata_mismatch_detected(self, sim, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, sim)
        data = dict(np.load(path))
        data["shape"] = np.asarray((9, 9, 9), dtype=np.int64)
        np.savez(tmp_path / "bad.npz", **data)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(tmp_path / "bad.npz")

    def test_truncated_archive_raises_checkpoint_error(self, sim, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, sim)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_v1_checkpoint_still_loads(self, sim, tmp_path):
        """Format negotiation: seed-era v1 files restore fine."""
        path = tmp_path / "v1.npz"
        _write_v1(path, sim)
        state = load_checkpoint(path)
        assert state["format_version"] == 1
        assert state["step_count"] == sim.step_count
        np.testing.assert_allclose(state["phi"], sim.phi.interior_src, atol=1e-6)

        fresh = Simulation(
            shape=sim.shape, kernel="buffered",
            system=sim.system, params=sim.params, temperature=sim.temperature,
        )
        restore_simulation(path, fresh)
        assert fresh.step_count == sim.step_count

    def test_v1_shape_mismatch_rejected(self, sim, tmp_path):
        path = tmp_path / "v1.npz"
        _write_v1(path, sim)
        data = dict(np.load(path))
        data["shape"] = np.asarray((2, 2, 2), dtype=np.int64)
        np.savez(tmp_path / "bad.npz", **data)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(tmp_path / "bad.npz")
