"""Globally consistent sharded checkpoints (elastic restart format).

At the paper's scale (Sec. 6 runs on 262,144 cores) a checkpoint cannot
be a single file written by one rank: every rank writes its **own shard**
holding the interior of the blocks it owns, and rank 0 publishes a JSON
**manifest** naming all shards, their per-array CRC32 checksums and the
domain topology.  The manifest is the commit record of a two-phase
protocol:

1. *write phase* — every rank writes its shard atomically (temp file,
   fsync, rename, directory fsync).  A crash here leaves orphan shards
   that no manifest references; they are garbage, never a restart point.
2. *publish phase* — once every shard is durably on disk, rank 0 writes
   the manifest (again atomic + fsynced).  Only the appearance of the
   manifest makes the checkpoint loadable.

Because the manifest records the full topology
(:meth:`repro.grid.blockforest.BlockForest.meta` plus the block-owner
map), :func:`load_sharded` reassembles the global state whatever the
writing rank count, so a checkpoint written by N ranks restores on any
M ≥ 1 ranks — what makes shrink-and-resume restarts possible after a
rank failure.

Fields are stored in float32 like the single-file format of
:mod:`repro.io.checkpoint` ("checkpoints use only single precision to
save disk space and I/O bandwidth", Sec. 3.2), in an uncompressed
``.npz`` written by :func:`repro.io.checkpoint.atomic_savez`; shards
written compressed by earlier versions load the same way.
"""

from __future__ import annotations

import json
import logging
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.io.checkpoint import CheckpointError, _fsync_dir, atomic_savez

__all__ = [
    "SHARD_FORMAT_VERSION",
    "shard_path",
    "manifest_path",
    "write_shard",
    "write_manifest",
    "load_shard",
    "load_sharded",
]

logger = logging.getLogger(__name__)

SHARD_FORMAT_VERSION = 1


def _crc32(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


# --------------------------------------------------------------------- #
# naming
# --------------------------------------------------------------------- #


def shard_path(directory, prefix: str, step: int, rank: int) -> Path:
    """Shard file of one rank at one step."""
    return Path(directory) / f"{prefix}-{step:010d}.rank{rank:04d}.npz"


def manifest_path(directory, prefix: str, step: int) -> Path:
    """Manifest (commit record) of one step's checkpoint."""
    return Path(directory) / f"{prefix}-{step:010d}.manifest.json"


# --------------------------------------------------------------------- #
# write phase
# --------------------------------------------------------------------- #


def write_shard(path, blocks: dict, *, rank: int) -> dict:
    """Atomically write one rank's blocks; returns its manifest entry.

    *blocks* maps global block ids to ``(phi, mu)`` interior arrays
    (any float dtype; stored as float32).  The returned entry carries the
    per-array CRCs the manifest needs — computed from the exact bytes
    written, so a torn or bit-flipped shard is caught at load time.
    """
    path = Path(path)
    payload: dict = {
        "format_version": np.int64(SHARD_FORMAT_VERSION),
        "rank": np.int64(rank),
        "block_ids": np.asarray(sorted(blocks), dtype=np.int64),
    }
    arrays_meta: dict = {}
    for bid in sorted(blocks):
        phi, mu = blocks[bid]
        for name, arr in ((f"phi_{bid}", phi), (f"mu_{bid}", mu)):
            arr32 = np.ascontiguousarray(arr, dtype=np.float32)
            payload[name] = arr32
            arrays_meta[name] = {
                "crc32": _crc32(arr32),
                "shape": list(arr32.shape),
                "dtype": str(arr32.dtype),
            }
    atomic_savez(path, payload)
    return {
        "rank": int(rank),
        "file": path.name,
        "blocks": [int(b) for b in sorted(blocks)],
        "arrays": arrays_meta,
    }


def write_manifest(
    path,
    shard_entries: list[dict],
    *,
    step: int,
    time: float,
    topology: dict,
    z_offset: int = 0,
    kernel: str = "",
) -> Path:
    """Publish the manifest — the commit point of the two-phase write.

    Must only be called after **every** entry in *shard_entries* refers
    to a durably written shard; the caller (rank 0) collects the entries
    from all ranks, so a rank that failed its write simply contributes no
    entry and the checkpoint is not committed.

    *topology* carries the forest record
    (:meth:`~repro.grid.blockforest.BlockForest.meta`) plus ``n_ranks``
    and the block ``owner`` list of the writing decomposition.
    """
    path = Path(path)
    ranks = [e["rank"] for e in shard_entries]
    if len(set(ranks)) != len(ranks):
        raise CheckpointError(f"duplicate shard ranks in manifest: {ranks}")
    owned: list[int] = sorted(
        b for e in shard_entries for b in e["blocks"]
    )
    n_blocks = 1
    for b in topology["blocks_per_axis"]:
        n_blocks *= int(b)
    if owned != list(range(n_blocks)):
        raise CheckpointError(
            f"shards cover blocks {owned}, expected all of 0..{n_blocks - 1}"
        )
    manifest = {
        "format_version": SHARD_FORMAT_VERSION,
        "step": int(step),
        "time": float(time),
        "z_offset": int(z_offset),
        "kernel": kernel,
        "topology": topology,
        "shards": sorted(shard_entries, key=lambda e: e["rank"]),
    }
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    logger.debug(
        "sharded checkpoint committed: %s (%d shards, step %d)",
        path, len(shard_entries), step,
    )
    return path


# --------------------------------------------------------------------- #
# load phase
# --------------------------------------------------------------------- #


def load_shard(path, entry: dict) -> dict:
    """Read one shard, verifying every array against its manifest entry.

    Returns ``{block_id: (phi64, mu64)}``.  Raises
    :class:`~repro.io.checkpoint.CheckpointError` on truncation, CRC or
    shape mismatch, or missing arrays.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"manifest references missing shard {path}")
    blocks: dict = {}
    try:
        with np.load(path) as data:
            version = int(data["format_version"])
            if version != SHARD_FORMAT_VERSION:
                raise CheckpointError(
                    f"unsupported shard format version {version}"
                )
            for name, meta in entry["arrays"].items():
                if name not in data:
                    raise CheckpointError(f"shard {path} lacks array {name!r}")
                arr = data[name]
                if list(arr.shape) != list(meta["shape"]):
                    raise CheckpointError(
                        f"shard {path}: {name} shape {arr.shape} does not "
                        f"match manifest {meta['shape']}"
                    )
                crc = _crc32(arr)
                if crc != int(meta["crc32"]):
                    raise CheckpointError(
                        f"shard {path}: checksum mismatch for {name} "
                        f"(stored {int(meta['crc32']):#010x}, "
                        f"computed {crc:#010x})"
                    )
            for bid in entry["blocks"]:
                blocks[int(bid)] = (
                    data[f"phi_{bid}"].astype(np.float64),
                    data[f"mu_{bid}"].astype(np.float64),
                )
    except CheckpointError:
        raise
    except (zipfile.BadZipFile, OSError, EOFError, KeyError, ValueError) as exc:
        raise CheckpointError(f"corrupt shard {path}: {exc}") from exc
    return blocks


def _read_manifest(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt manifest {path}: {exc}") from exc
    if manifest.get("format_version") != SHARD_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported manifest format version "
            f"{manifest.get('format_version')!r} in {path}"
        )
    for key in ("step", "time", "topology", "shards"):
        if key not in manifest:
            raise CheckpointError(f"manifest {path} lacks key {key!r}")
    return manifest


def load_sharded(manifest_file) -> dict:
    """Load a committed sharded checkpoint, reassembling the global state.

    Every shard is verified (existence, CRC, shape) before any data is
    trusted.  Returns the usual state dict (``phi`` / ``mu`` as float64
    global arrays, ``time``, ``step_count``, ``z_offset``, ``kernel``)
    plus ``blocks`` (``{block_id: (phi, mu)}``) and the recorded
    ``topology``.
    """
    manifest_file = Path(manifest_file)
    manifest = _read_manifest(manifest_file)
    from repro.grid.blockforest import BlockForest

    topology = manifest["topology"]
    forest = BlockForest.from_meta(topology)
    blocks: dict = {}
    for entry in manifest["shards"]:
        shard_file = manifest_file.parent / entry["file"]
        blocks.update(load_shard(shard_file, entry))
    missing = [b.id for b in forest.blocks if b.id not in blocks]
    if missing:
        raise CheckpointError(
            f"sharded checkpoint {manifest_file} lacks blocks {missing}"
        )

    first_phi, first_mu = blocks[0]
    n_phases, n_solutes = first_phi.shape[0], first_mu.shape[0]
    phi = np.empty((n_phases, *forest.domain_shape), dtype=np.float64)
    mu = np.empty((n_solutes, *forest.domain_shape), dtype=np.float64)
    for b in forest.blocks:
        phi_loc, mu_loc = blocks[b.id]
        if tuple(phi_loc.shape[1:]) != b.shape:
            raise CheckpointError(
                f"block {b.id} stored shape {phi_loc.shape[1:]} does not "
                f"match forest block shape {b.shape}"
            )
        sl = (slice(None),) + tuple(
            slice(o, o + s) for o, s in zip(b.offset, b.shape)
        )
        phi[sl] = phi_loc
        mu[sl] = mu_loc
    return {
        "phi": phi,
        "mu": mu,
        "time": float(manifest["time"]),
        "step_count": int(manifest["step"]),
        "z_offset": int(manifest.get("z_offset", 0)),
        "kernel": manifest.get("kernel", ""),
        "blocks": blocks,
        "topology": topology,
        "format_version": SHARD_FORMAT_VERSION,
    }
