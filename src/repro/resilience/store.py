"""Rotating store of the last K good checkpoints.

The paper's production campaigns (Sec. 6) checkpoint periodically and
keep several generations, because a crash can strike *during* a
checkpoint write and the newest file may be the broken one.  The store
pairs the atomic, checksummed writer of :mod:`repro.io.checkpoint` with
a load path that walks generations newest-first, quarantines anything
that fails verification, and hands back the newest checkpoint that
actually loads.
"""

from __future__ import annotations

import copy
import errno
import logging
import os
import threading
from pathlib import Path

from repro.io.checkpoint import CheckpointError, load_checkpoint, save_state
from repro.io.sharded import (
    load_sharded,
    manifest_path,
    shard_path,
    write_manifest,
    write_shard,
)
from repro.resilience.retry import RetryPolicy, retry_io

__all__ = ["CheckpointStore", "ShardedCheckpointStore"]

logger = logging.getLogger(__name__)


def _truncate(path: Path, fraction: float) -> None:
    """Cut *path* short to *fraction* of its bytes (at least one): the
    torn storage the ``ckpt_truncate`` and ``io_torn_write`` faults
    model."""
    size = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.truncate(max(1, int(size * fraction)))


class CheckpointStore:
    """Directory of ``<prefix>-<step>.npz`` checkpoints with rotation.

    Parameters
    ----------
    directory:
        Where checkpoints live; created if missing.
    keep:
        Number of most-recent checkpoints retained; older generations are
        deleted after each successful save.
    prefix:
        File-name prefix (lets several campaigns share a directory).
    fault_plan:
        Optional :class:`repro.resilience.faults.FaultPlan`; a
        ``ckpt_truncate`` fault scheduled for the saved step truncates
        the file *after* it reaches its final name, simulating torn
        storage that atomic rename alone cannot prevent.
    """

    def __init__(self, directory, *, keep: int = 3, prefix: str = "ck",
                 fault_plan=None):
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.prefix = prefix
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #

    def path_for(self, step: int) -> Path:
        """Checkpoint path of a given step count."""
        return self.directory / f"{self.prefix}-{step:010d}.npz"

    def _step_of(self, path: Path) -> int:
        return int(path.stem.split("-")[-1])

    def checkpoints(self) -> list[Path]:
        """Present checkpoint files, oldest first."""
        paths = self.directory.glob(f"{self.prefix}-*.npz")
        return sorted(paths, key=self._step_of)

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / "quarantine"

    def quarantined(self) -> list[Path]:
        """Files moved aside after failing verification."""
        if not self.quarantine_dir.exists():
            return []
        return sorted(self.quarantine_dir.iterdir())

    # ------------------------------------------------------------------ #
    # save
    # ------------------------------------------------------------------ #

    def save_state(self, state: dict) -> Path:
        """Write a ``state_dict``-shaped snapshot, then rotate."""
        step = int(state["step_count"])
        path = self.path_for(step)
        save_state(
            path,
            phi=state["phi"],
            mu=state["mu"],
            time=state["time"],
            step_count=step,
            z_offset=int(state.get("z_offset", 0)),
            kernel=state.get("kernel", ""),
        )
        self._maybe_truncate(path, step)
        self._rotate()
        return path

    def save(self, sim) -> Path:
        """Checkpoint a :class:`repro.core.solver.Simulation`."""
        return self.save_state(sim.state_dict())

    def _maybe_truncate(self, path: Path, step: int) -> None:
        if self.fault_plan is None:
            return
        fault = self.fault_plan.fires("ckpt_truncate", step=step)
        if fault is not None:
            _truncate(path, fault.fraction)

    def _rotate(self) -> None:
        paths = self.checkpoints()
        for path in paths[: max(0, len(paths) - self.keep)]:
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # load
    # ------------------------------------------------------------------ #

    def load_latest(self) -> dict | None:
        """Newest checkpoint that verifies, or ``None`` if none does.

        Corrupt generations (truncated archives, checksum or shape
        mismatches, unsupported versions) are moved into
        ``quarantine/`` — never deleted, so they stay available for
        post-mortems — and the walk continues with the next-older file.
        """
        for path in reversed(self.checkpoints()):
            try:
                return load_checkpoint(path)
            except CheckpointError as exc:
                self._quarantine(path, exc)
        return None

    def _quarantine(self, path: Path, exc: CheckpointError) -> None:
        logger.warning("quarantining corrupt checkpoint %s: %s", path, exc)
        self.quarantine_dir.mkdir(exist_ok=True)
        os.replace(path, self.quarantine_dir / path.name)


class ShardedCheckpointStore:
    """Store of two-phase sharded checkpoints with rotation and quarantine.

    The elastic counterpart of :class:`CheckpointStore`: every simulated
    rank writes its own block shard (:func:`repro.io.sharded.write_shard`)
    and rank 0 commits the generation by publishing a manifest — a
    checkpoint without a manifest was interrupted mid-write and is never
    loaded.  Because the manifest records the domain topology and block
    ownership, :meth:`load_latest` hands back the global state whatever
    the writing process count, which is what lets a campaign shrink after
    a rank failure (``dsim.shrunk``) and resume.

    Writes go through a bounded exponential-backoff retry
    (:mod:`repro.resilience.retry`); scheduled ``io_enospc`` /
    ``io_torn_write`` faults from *fault_plan* are injected inside the
    retried attempt, so one scheduled fault exercises the retry path and
    K ≥ attempts scheduled faults model a persistent outage.  A
    ``ckpt_truncate`` fault tears a generation after it is committed
    (:meth:`publish_manifest`).

    Thread-safe: simulated ranks share one instance across threads.
    """

    def __init__(self, directory, *, keep: int = 3, prefix: str = "ck",
                 fault_plan=None, retry_policy: RetryPolicy | None = None,
                 retry_seed: int = 0):
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.prefix = prefix
        self.fault_plan = fault_plan
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.retry_seed = retry_seed
        self._lock = threading.Lock()
        self.stats = {
            "shards_written": 0,
            "manifests_published": 0,
            "io_retries": 0,
            "checkpoints_skipped": 0,
        }

    def __getstate__(self) -> dict:
        # Crosses a process boundary with every command sent to a
        # resident rank; the lock is recreated on the other side.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def rank_view(self) -> "ShardedCheckpointStore":
        """This store as one rank of an SPMD run writes through it: same
        directory and policies, statistics counted from zero.

        A rank's store may be the caller's own object (thread backend), a
        forked or an unpickled copy (process backend); counting into a
        view and handing the counts back for :meth:`absorb` gives the
        caller the same totals on every backend.
        """
        view = copy.copy(self)
        view._lock = threading.Lock()
        view.stats = dict.fromkeys(self.stats, 0)
        return view

    def absorb(self, stats: dict) -> None:
        """Fold the counts of a :meth:`rank_view` into this store."""
        with self._lock:
            for name, count in stats.items():
                self.stats[name] += count

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #

    def manifest_for(self, step: int) -> Path:
        return manifest_path(self.directory, self.prefix, step)

    def shard_for(self, step: int, rank: int) -> Path:
        return shard_path(self.directory, self.prefix, step, rank)

    def _step_of(self, path: Path) -> int:
        return int(path.name.split("-")[-1].split(".")[0])

    def manifests(self) -> list[Path]:
        """Committed checkpoint generations, oldest first."""
        paths = self.directory.glob(f"{self.prefix}-*.manifest.json")
        return sorted(paths, key=self._step_of)

    def shards(self) -> list[Path]:
        """All shard files present, committed or orphaned."""
        paths = self.directory.glob(f"{self.prefix}-*.rank*.npz")
        return sorted(paths, key=lambda p: (self._step_of(p), p.name))

    def steps(self) -> list[int]:
        """Steps with a committed (manifest-published) checkpoint."""
        return [self._step_of(p) for p in self.manifests()]

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / "quarantine"

    def quarantined(self) -> list[Path]:
        if not self.quarantine_dir.exists():
            return []
        return sorted(self.quarantine_dir.iterdir())

    # ------------------------------------------------------------------ #
    # write phase (per rank)
    # ------------------------------------------------------------------ #

    def write_rank_shard(self, *, rank: int, step: int, blocks: dict,
                         events=None) -> dict:
        """Durably write one rank's shard; returns its manifest entry.

        Retries transient I/O failures with backoff (each retry emits an
        ``io_retry`` event when *events* is given); a persistent failure
        re-raises ``OSError`` and the caller skips this checkpoint.
        """
        path = self.shard_for(step, rank)

        def attempt():
            self._maybe_inject_io_fault(path, step=step, rank=rank,
                                        blocks=blocks)
            return write_shard(path, blocks, rank=rank)

        def on_retry(attempt_i, exc, delay):
            with self._lock:
                self.stats["io_retries"] += 1
            if events is not None:
                events.emit(
                    "io_retry", "WARNING", step=step, rank=rank,
                    attempt=attempt_i + 1, error=repr(exc), delay=delay,
                )

        entry = retry_io(
            attempt,
            policy=self.retry_policy,
            seed=self.retry_seed + 7919 * step + rank,
            on_retry=on_retry,
            describe=f"shard write (step {step}, rank {rank})",
        )
        with self._lock:
            self.stats["shards_written"] += 1
        return entry

    def _maybe_inject_io_fault(self, path: Path, *, step: int, rank: int,
                               blocks: dict) -> None:
        if self.fault_plan is None:
            return
        fault = self.fault_plan.fires("io_enospc", step=step, rank=rank)
        if fault is not None:
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        fault = self.fault_plan.fires("io_torn_write", step=step, rank=rank)
        if fault is not None:
            # model a non-atomic filesystem: a prefix of the shard reaches
            # the final name before the device errors out — the retry must
            # overwrite the torn file with a complete one
            write_shard(path, blocks, rank=rank)
            _truncate(path, fault.fraction)
            raise OSError(errno.EIO, "injected: torn write")

    # ------------------------------------------------------------------ #
    # publish phase (rank 0)
    # ------------------------------------------------------------------ #

    def publish_manifest(self, shard_entries: list[dict], *, step: int,
                         time: float, topology: dict, z_offset: int = 0,
                         kernel: str = "") -> Path:
        """Commit one generation (write-all-then-publish), then rotate.

        A ``ckpt_truncate`` fault scheduled for *step* then cuts the
        generation's first shard short: torn storage under a committed
        manifest, which :meth:`load_latest` must quarantine.
        """
        path = write_manifest(
            self.manifest_for(step), shard_entries,
            step=step, time=time, topology=topology,
            z_offset=z_offset, kernel=kernel,
        )
        with self._lock:
            self.stats["manifests_published"] += 1
        fault = (None if self.fault_plan is None
                 else self.fault_plan.fires("ckpt_truncate", step=step))
        if fault is not None:
            _truncate(self.directory / shard_entries[0]["file"],
                      fault.fraction)
        self._rotate()
        return path

    def note_skipped(self) -> None:
        """Record a checkpoint that was skipped after persistent I/O failure."""
        with self._lock:
            self.stats["checkpoints_skipped"] += 1

    def rank_hook(self, comm, fields, *, every: int, topology: dict,
                  kernel: str = "", events=None):
        """One rank's after-step hook ``(step, time)``: a two-phase
        sharded checkpoint of *fields* — ``(block_id, phi Field, mu
        Field)`` triples — whenever *step*, the global count of steps
        done, is a multiple of *every* (so boundaries are stable across
        restarts, whatever step a call starts from).

        Collective over *comm*.  Write phase: this rank durably writes
        its own shard (bounded retries inside :meth:`write_rank_shard`).
        Publish phase: manifest entries are gathered to rank 0, which
        commits the generation only when every rank succeeded; otherwise
        the checkpoint is skipped — never half-published — with a logged
        event, and the run continues.
        """
        def checkpoint(step: int, t: float) -> None:
            if step % every == 0:
                self._checkpoint_from_rank(
                    comm, {bid: (phi.interior_src, mu.interior_src)
                           for bid, phi, mu in fields},
                    step=step, time=t, topology=topology, kernel=kernel,
                    events=events,
                )

        return checkpoint

    def _checkpoint_from_rank(self, comm, blocks: dict, *, step: int,
                              time: float, topology: dict, kernel: str,
                              events) -> None:
        entry = None
        try:
            entry = self.write_rank_shard(
                rank=comm.rank, step=step, blocks=blocks, events=events,
            )
        except OSError as exc:
            logger.error(
                "rank %d: shard write failed persistently at step %d: %r",
                comm.rank, step, exc,
            )
            if events is not None:
                events.emit(
                    "checkpoint_skipped", "ERROR", step=step, error=repr(exc),
                )
        entries = comm.gather(entry, root=0)
        if comm.rank != 0:
            return
        if all(e is not None for e in entries):
            path = self.publish_manifest(
                entries, step=step, time=time, topology=topology,
                kernel=kernel,
            )
            if events is not None:
                events.emit("checkpoint", step=step, path=str(path))
        else:
            self.note_skipped()
            failed = [r for r, e in enumerate(entries) if e is None]
            logger.warning(
                "checkpoint at step %d skipped: rank(s) %s failed their "
                "shard write", step, failed,
            )
            if events is not None:
                events.emit(
                    "checkpoint_skipped", "WARNING", step=step,
                    failed_ranks=failed,
                )

    def save_global(self, state: dict, *, forest, owner, n_ranks: int,
                    events=None) -> Path:
        """Shard and commit a gathered global state (initial checkpoints).

        Plays all ranks' write phases sequentially, then publishes — the
        same bytes and the same two-phase ordering an SPMD region
        produces, usable from the single-threaded campaign driver.
        """
        step = int(state["step_count"])
        entries = []
        for rank in range(n_ranks):
            blocks = {}
            for b in forest.blocks:
                if owner[b.id] != rank:
                    continue
                sl = (slice(None),) + tuple(
                    slice(o, o + s) for o, s in zip(b.offset, b.shape)
                )
                blocks[b.id] = (state["phi"][sl], state["mu"][sl])
            entries.append(
                self.write_rank_shard(rank=rank, step=step, blocks=blocks,
                                      events=events)
            )
        return self.publish_manifest(
            entries, step=step, time=float(state["time"]),
            topology={**forest.meta(), "n_ranks": int(n_ranks),
                      "owner": [int(r) for r in owner]},
            z_offset=int(state.get("z_offset", 0)),
            kernel=state.get("kernel", ""),
        )

    # ------------------------------------------------------------------ #
    # load
    # ------------------------------------------------------------------ #

    def load_latest(self) -> dict | None:
        """Newest committed generation that verifies, or ``None``.

        Walks manifests newest-first; a generation whose manifest or any
        shard fails verification is quarantined (moved, never deleted)
        and the walk continues.  Orphan shards with no manifest — an
        interrupted write phase — are invisible here by construction.
        """
        for path in reversed(self.manifests()):
            try:
                return load_sharded(path)
            except CheckpointError as exc:
                self._quarantine(path, exc)
        return None

    # ------------------------------------------------------------------ #
    # housekeeping
    # ------------------------------------------------------------------ #

    def _generation_files(self, manifest: Path) -> list[Path]:
        step = self._step_of(manifest)
        return [p for p in self.shards() if self._step_of(p) == step]

    def _rotate(self) -> None:
        manifests = self.manifests()
        for manifest in manifests[: max(0, len(manifests) - self.keep)]:
            for shard in self._generation_files(manifest):
                shard.unlink(missing_ok=True)
            manifest.unlink(missing_ok=True)
        # garbage-collect orphan shards of *older* steps that never got a
        # manifest (interrupted write phase); the newest step may still be
        # mid-write, so it is left alone
        committed = {self._step_of(p) for p in self.manifests()}
        if committed:
            newest = max(committed)
            for shard in self.shards():
                step = self._step_of(shard)
                if step < newest and step not in committed:
                    shard.unlink(missing_ok=True)

    def _quarantine(self, manifest: Path, exc: CheckpointError) -> None:
        logger.warning(
            "quarantining corrupt sharded checkpoint %s: %s", manifest, exc
        )
        self.quarantine_dir.mkdir(exist_ok=True)
        for path in (*self._generation_files(manifest), manifest):
            if path.exists():
                os.replace(path, self.quarantine_dir / path.name)
