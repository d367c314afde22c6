"""Durable single-precision checkpointing (Sec. 3.2).

"While all computations are carried out in double precision, checkpoints
use only single precision to save disk space and I/O bandwidth."  A
checkpoint stores the interior of both fields (four phi values and two mu
values per cell in the Ag-Al-Cu setup), the simulation clock and the
moving-window offset; restarting reproduces the run up to the float32
rounding of the stored state.

Durability guarantees (the production runs of Sec. 6 depend on
checkpoint/restart surviving multi-day jobs):

* **Atomic writes** — the archive is written to ``<name>.tmp``, flushed
  and fsynced, then moved into place with :func:`os.replace`.  A crash
  mid-write never leaves a half-written file under the final name.
* **Integrity manifest** (format v2) — a JSON manifest records a CRC32
  checksum, shape and dtype per array; :func:`load_checkpoint` verifies
  them and raises :class:`CheckpointError` on any mismatch.
* **Version negotiation** — v1 files (no manifest) still load; unknown
  future versions are rejected with a clear error.

:class:`CheckpointError` subclasses :class:`ValueError` so call sites
that predate the resilience subsystem keep working.
"""

from __future__ import annotations

import json
import logging
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.picklable import PicklableError

logger = logging.getLogger(__name__)

__all__ = [
    "CheckpointError",
    "atomic_savez",
    "save_checkpoint",
    "save_state",
    "load_checkpoint",
    "restore_simulation",
]

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

#: Arrays covered by the integrity manifest.
_CHECKED_ARRAYS = ("phi", "mu")


class CheckpointError(PicklableError, ValueError):
    """A checkpoint file is corrupt, incomplete or incompatible."""


def _crc32(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a just-renamed entry survives machine crash.

    ``os.replace`` makes the rename atomic with respect to *process*
    crashes, but the new directory entry itself lives in the page cache
    until the directory inode is flushed — a power loss can still forget
    the file.  Best-effort: platforms without directory fds (Windows)
    skip silently.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_savez(path: Path, payload: dict) -> None:
    """Write an uncompressed ``.npz`` archive atomically and durably.

    The one ``.npz`` writer of the checkpoint formats (single-file and
    sharded).  ``np.savez`` appends ``.npz`` to plain path arguments, so
    the archive is written through an open file object under a ``.tmp``
    name and only renamed into place once it is fully on disk.  The temp
    file is fsynced before the rename and the parent directory after it,
    so a *committed* checkpoint survives a crash of the machine, not just
    of the process.  Archives are stored uncompressed: zlib cost most of
    a shard write and saves little on float32 fields; ``np.load`` reads
    compressed archives of earlier versions all the same.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_state(
    path,
    *,
    phi: np.ndarray,
    mu: np.ndarray,
    time: float,
    step_count: int,
    z_offset: int = 0,
    kernel: str = "",
) -> dict:
    """Write interior field arrays plus clock metadata as a v2 checkpoint.

    The fields are down-converted to float32; metadata stays exact.
    Returns a summary dict (sizes, checksums) useful for I/O accounting.
    """
    path = Path(path)
    phi32 = np.ascontiguousarray(phi, dtype=np.float32)
    mu32 = np.ascontiguousarray(mu, dtype=np.float32)
    shape = tuple(phi32.shape[1:])
    if tuple(mu32.shape[1:]) != shape:
        raise CheckpointError(
            f"phi spatial shape {shape} and mu spatial shape "
            f"{tuple(mu32.shape[1:])} disagree"
        )
    checksums = {"phi": _crc32(phi32), "mu": _crc32(mu32)}
    manifest = {
        "format_version": _FORMAT_VERSION,
        "arrays": {
            name: {
                "crc32": checksums[name],
                "shape": list(arr.shape),
                "dtype": str(arr.dtype),
            }
            for name, arr in (("phi", phi32), ("mu", mu32))
        },
        "meta": {"step_count": int(step_count), "kernel": kernel},
    }
    atomic_savez(
        path,
        dict(
            format_version=np.int64(_FORMAT_VERSION),
            manifest=np.bytes_(json.dumps(manifest).encode()),
            phi=phi32,
            mu=mu32,
            time=np.float64(time),
            step_count=np.int64(step_count),
            z_offset=np.int64(z_offset),
            shape=np.asarray(shape, dtype=np.int64),
            kernel=np.bytes_(kernel.encode()),
        ),
    )
    logger.debug(
        "checkpoint saved to %s (%d payload bytes, step %d)",
        path, phi32.nbytes + mu32.nbytes, step_count,
    )
    return {
        "path": str(path),
        "payload_bytes": phi32.nbytes + mu32.nbytes,
        "cells": int(np.prod(shape)),
        "values_per_cell": phi32.shape[0] + mu32.shape[0],
        "format_version": _FORMAT_VERSION,
        "checksums": checksums,
    }


def save_checkpoint(path, sim) -> dict:
    """Write the state of a :class:`repro.core.solver.Simulation`.

    Atomic (write-to-temp then rename) and checksummed; see
    :func:`save_state` for the format details.
    """
    return save_state(
        path,
        phi=sim.phi.interior_src,
        mu=sim.mu.interior_src,
        time=sim.time,
        step_count=sim.step_count,
        z_offset=sim.z_offset,
        kernel=sim.kernel_name,
    )


def _read_archive(data) -> dict:
    version = int(data["format_version"])
    if version not in _SUPPORTED_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {version} "
            f"(supported: {list(_SUPPORTED_VERSIONS)})"
        )
    phi32 = data["phi"]
    mu32 = data["mu"]
    shape = tuple(int(s) for s in data["shape"])

    if version < 2:
        logger.warning(
            "loading legacy v%d checkpoint without integrity manifest", version
        )
    if version >= 2:
        manifest = json.loads(bytes(data["manifest"]).decode())
        for name, arr in (("phi", phi32), ("mu", mu32)):
            entry = manifest["arrays"].get(name)
            if entry is None:
                raise CheckpointError(f"manifest lacks an entry for {name!r}")
            if tuple(entry["shape"]) != arr.shape:
                raise CheckpointError(
                    f"manifest shape {tuple(entry['shape'])} does not match "
                    f"stored {name} array shape {arr.shape}"
                )
            crc = _crc32(arr)
            if crc != int(entry["crc32"]):
                raise CheckpointError(
                    f"checksum mismatch for {name}: stored "
                    f"{int(entry['crc32']):#010x}, computed {crc:#010x}"
                )

    for name, arr in (("phi", phi32), ("mu", mu32)):
        if tuple(arr.shape[1:]) != shape:
            raise CheckpointError(
                f"{name} array shape {arr.shape} disagrees with the stored "
                f"shape metadata {shape}"
            )

    return {
        "phi": phi32.astype(np.float64),
        "mu": mu32.astype(np.float64),
        "time": float(data["time"]),
        "step_count": int(data["step_count"]),
        "z_offset": int(data["z_offset"]),
        "shape": shape,
        "kernel": bytes(data["kernel"]).decode(),
        "format_version": version,
    }


def load_checkpoint(path) -> dict:
    """Read and verify a checkpoint into a plain dict (fields as float64).

    Raises :class:`FileNotFoundError` when the file is absent and
    :class:`CheckpointError` when it is truncated, corrupt (checksum or
    shape-metadata mismatch), missing required entries, or written by an
    unsupported format version.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    try:
        with np.load(path) as data:
            return _read_archive(data)
    except CheckpointError:
        raise
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, EOFError, KeyError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc


def restore_simulation(path, sim) -> None:
    """Load a checkpoint into an existing, shape-compatible simulation."""
    state = load_checkpoint(path)
    if tuple(state["shape"]) != tuple(sim.shape):
        raise CheckpointError(
            f"checkpoint shape {state['shape']} does not match simulation "
            f"shape {sim.shape}"
        )
    sim.load_state(state)
