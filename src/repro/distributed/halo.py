"""Ghost-layer exchange over persistent registered halo channels.

This is the one ghost-exchange routine of the repo, mirroring
waLBerla's preregistered communication buffers and the MPI
persistent-request idiom the paper's production code relies on: at
topology construction every rank registers one double-buffered channel
per (neighbour, axis, direction) — two slots on the sender's heap,
which the thread backend's receiver shares by reference — sized once
from the ghosted field shapes and reused every step.  Fault
campaigns run the same path; their injection layer wraps the send
channels (see :class:`repro.resilience.faults.FaultyComm`).

The exchange proceeds axis by axis; each slab spans the *full ghosted
extent* of the previously exchanged axes, so edge and corner ghost cells
arrive without dedicated diagonal messages — the standard
dimensional-ordering trick, required because the mu sweep reads the
D3C19 (edge-diagonal) neighbourhood.  At non-periodic domain edges the
axis has no neighbour; the caller's boundary handler fills those ghosts
instead.

A steady-state exchange round packs the slab views of *all* blocks
headed to one neighbour in one axis direction into the registered
buffer (vectorized, contiguous), sends **one** notify message carrying
a sequence number, and unpacks on the receiver straight into the ghost
slices: one message per neighbour per axis direction and zero acks.
On the process backend, where ranks share no memory, the notify also
carries the packed slab, like the one MPI message per neighbour of the
paper's Algorithms 1 and 2.

Slot reuse without acks is safe because exchange rounds are lockstep —
see :class:`repro.simmpi.comm.HaloSendChannel` for the inductive
argument; the sequence number travelling in every notify turns any
violation of that discipline into a loud ``RuntimeError`` instead of a
silent stale-data unpack.

Both sides derive channel ids, capacities and pack plans
deterministically from the shared topology (block forest + ownership),
so registration needs no negotiation: every rank first announces all
its send channels (non-blocking) and then accepts all its receive
channels (blocking), which is deadlock-free in any order.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["BlockHaloRegistry", "ExchangeTimer"]


class ExchangeTimer:
    """Accumulates wall time and byte counts spent in ghost exchange.

    Beyond the plain totals, per-call extrema are tracked so a timing
    report can show jitter (a late neighbour, an injected delay fault)
    rather than only the mean; an optional
    :class:`repro.telemetry.timing.TimingTree` receives the same
    measured duration under *scope*, keeping tree and timer in exact
    agreement.
    """

    def __init__(self, tree=None, scope: str = "exchange") -> None:
        self.seconds = 0.0
        self.bytes = 0
        self.messages = 0
        self.calls = 0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0
        self.tree = tree
        self.scope = scope

    def add(self, seconds: float, nbytes: int, messages: int) -> None:
        self.seconds += seconds
        self.bytes += nbytes
        self.messages += messages
        self.calls += 1
        if seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        if self.tree is not None:
            self.tree.record(
                self.scope, seconds, bytes=nbytes, messages=messages
            )

    def stats(self) -> dict:
        """Structured dump (count/total/avg/min/max seconds, bytes, msgs)."""
        return {
            "calls": self.calls,
            "total": self.seconds,
            "avg": self.seconds / self.calls if self.calls else 0.0,
            "min": self.min_seconds if self.calls else 0.0,
            "max": self.max_seconds,
            "bytes": self.bytes,
            "messages": self.messages,
        }


def _slab(arr: np.ndarray, dim: int, k: int, which: str, g: int):
    """Slice tuple of an exchange slab along spatial axis *k*.

    ``which`` is one of ``send_lo`` / ``send_hi`` (interior edges) or
    ``recv_lo`` / ``recv_hi`` (ghost layers).  All other axes keep their
    full ghosted extent.
    """
    ax = arr.ndim - dim + k
    sl = [slice(None)] * arr.ndim
    sl[ax] = {
        "send_lo": slice(g, 2 * g),
        "send_hi": slice(-2 * g, -g),
        "recv_lo": slice(0, g),
        "recv_hi": slice(-g, None),
    }[which]
    return tuple(sl)


def _slab_elements(n_comps: int, shape, axis: int, g: int) -> int:
    """Element count of one exchange slab of a block.

    The slab spans *g* cells along *axis* and the full ghosted extent of
    every other spatial axis (dimensional-ordering exchange), times the
    leading component axis.
    """
    n = int(n_comps) * int(g)
    for i, s in enumerate(shape):
        if i != axis:
            n *= int(s) + 2 * int(g)
    return n


def _capacity(pairs, shapes, axis: int, streams) -> int:
    """Channel capacity in elements: the largest per-round packed size
    over all field streams sharing the channel."""
    best = 0
    for n_comps, g in streams:
        total = sum(
            _slab_elements(n_comps, shapes[bid], axis, g)
            for bid, _nb in pairs
        )
        best = max(best, total)
    return best


class BlockHaloRegistry:
    """Halo channels of a block-forest decomposition (waLBerla style).

    One send and/or receive channel per (peer rank, axis, direction),
    shared by every field stream and every block pair crossing that
    rank boundary; *streams* — ``[(n_components, ghost_width), ...]`` —
    sizes the channels once for the largest stream.  Construction is
    collective over the communicator.

    A ghost width the slab geometry cannot express is rejected here,
    before any channel is registered: the ``send_lo`` slab is
    ``slice(g, 2g)``, so every exchanged axis needs at least *g*
    interior cells per block — fewer would send ghost (or wrapped-around)
    cells as if they were interior.
    """

    def __init__(self, comm, forest, owner, dim: int, streams,
                 dtype=np.float64) -> None:
        self.comm = comm
        self.forest = forest
        self.owner = list(owner)
        self.dim = int(dim)
        self.streams = [(int(c), int(g)) for c, g in streams]
        if not self.streams:
            raise ValueError("halo registry needs at least one field stream")
        rank = comm.rank
        shapes = {b.id: tuple(b.shape) for b in forest.blocks}
        for _c, g in self.streams:
            if g < 1:
                raise ValueError(f"ghost width must be >= 1, got {g}")
            for bid, shape in shapes.items():
                for k in range(self.dim):
                    if shape[k] < g:
                        raise ValueError(
                            f"ghost width {g} unsupported: block {bid} has "
                            f"{shape[k]} interior cells along axis {k} "
                            "(fewer interior cells than ghost layers)"
                        )
        # Ghosted array shape of every block under every stream: what
        # exchange() reads the ghost width off and validates against.
        self._ghosted = {
            (c, g): {
                bid: (c,) + tuple(s + 2 * g for s in shape)
                for bid, shape in shapes.items()
            }
            for c, g in self.streams
        }

        # Deterministic plans, derived identically on both endpoints:
        # pairs are (sender block id, receiver block id), sorted by the
        # sender's block id so packer and unpacker agree on slot layout.
        send_plans: dict[tuple, list] = {}
        recv_plans: dict[tuple, list] = {}
        self._local: dict[int, list] = {k: [] for k in range(self.dim)}
        self._edges: dict[int, list] = {k: [] for k in range(self.dim)}
        for axis in range(self.dim):
            for b in forest.blocks:
                mine = self.owner[b.id] == rank
                for side in (0, 1):
                    nb = forest.neighbor(b, axis, side)
                    if nb is None:
                        if mine:
                            self._edges[axis].append((b.id, side))
                        continue
                    nb_rank = self.owner[nb.id]
                    if mine and nb_rank == rank:
                        # Same-rank neighbour (possibly the block itself
                        # on a single-block periodic axis): direct copy,
                        # recorded once per receiving side.
                        self._local[axis].append((b.id, nb.id, side))
                        continue
                    if mine and nb_rank != rank:
                        key = (nb_rank, axis, side)
                        send_plans.setdefault(key, []).append((b.id, nb.id))
                    elif not mine and nb_rank == rank:
                        key = (self.owner[b.id], axis, side)
                        recv_plans.setdefault(key, []).append((b.id, nb.id))

        # All send endpoints announce first (non-blocking), then every
        # receive endpoint blocks on its registration message — no
        # ordering constraint between ranks, hence no deadlock.
        self._send: dict[tuple, object] = {}
        self._recv: dict[tuple, object] = {}
        self._send_plans = send_plans
        self._recv_plans = recv_plans
        for key in sorted(send_plans):
            peer, axis, side = key
            cap = _capacity(send_plans[key], shapes, axis, self.streams)
            self._send[key] = comm.register_halo(
                peer, axis * 2 + side, cap, dtype
            )
        for key in sorted(recv_plans):
            peer, axis, side = key
            self._recv[key] = comm.accept_halo(peer, axis * 2 + side)

        #: field_sync plans: ``(id(spec), *ids of the arrays) -> (spec,
        #: arrays, plan)``; an entry holds what its key names, so no id
        #: is reused while it lives.
        self._plans: dict[tuple, tuple] = {}

        # Per-axis channel orderings of the steady-state loop.
        self._send_by_axis = {
            k: [(key, self._send[key]) for key in sorted(self._send)
                if key[1] == k]
            for k in range(self.dim)
        }
        self._recv_by_axis = {
            k: [(key, self._recv[key]) for key in sorted(self._recv)
                if key[1] == k]
            for k in range(self.dim)
        }

    @property
    def n_channels(self) -> int:
        """Registered channel endpoints on this rank (send + recv)."""
        return len(self._send) + len(self._recv)

    def _ghost_width(self, arrays: dict[int, np.ndarray]) -> int:
        """Ghost width of *arrays*, read off their shapes.

        Every array must be the ghosted block — block extent plus two
        ghost widths per axis — of one registered stream, so neither a
        slab larger than the channel slot nor a slab of the wrong cells
        can be exchanged.
        """
        if not arrays:
            return self.streams[0][1]
        first, arr = next(iter(arrays.items()))
        for (_c, g), expected in self._ghosted.items():
            if expected[first] == arr.shape:
                break
        else:
            raise ValueError(
                f"block {first}: array shape {arr.shape} is the ghosted "
                "block of no registered stream (n_components, ghost "
                f"width) in {self.streams}"
            )
        for bid, arr in arrays.items():
            if arr.shape != expected[bid]:
                raise ValueError(
                    f"block {bid}: array shape {arr.shape} is not the "
                    f"ghosted shape {expected[bid]} of its stream "
                    f"(ghost width {g})"
                )
        return g

    def _plan(self, arrays: dict[int, np.ndarray], spec) -> tuple:
        """Everything an exchange of *arrays* touches, as views built
        once: per axis, the send channels with the slab views packed
        into their slots, the same-rank ``(ghost, edge)`` copy pairs,
        the receive channels with the ghost views they unpack into and
        the boundary handlers of the domain edges; then the bytes and
        messages of one exchange."""
        g = self._ghost_width(arrays)
        dim = self.dim
        itemsize = next(iter(arrays.values())).itemsize if arrays else 8
        axes = []
        nbytes = nmsg = 0

        def parts(views):
            out, offset = [], 0
            for view in views:
                out.append((view, offset, offset + view.size))
                offset += view.size
            return out, offset

        for k in range(dim):
            sends = []
            for (peer, axis, side), ch in self._send_by_axis[k]:
                which = "send_hi" if side == 1 else "send_lo"
                views, used = parts(
                    arrays[bid][_slab(arrays[bid], dim, k, which, g)]
                    for bid, _nb in self._send_plans[(peer, axis, side)]
                )
                sends.append((ch, views, used))
                nbytes += used * itemsize
                nmsg += 1
            local = []
            for bid, nb_id, side in self._local[k]:
                arr, src = arrays[bid], arrays[nb_id]
                recv_which = "recv_lo" if side == 0 else "recv_hi"
                send_which = "send_hi" if side == 0 else "send_lo"
                local.append((arr[_slab(arr, dim, k, recv_which, g)],
                              src[_slab(src, dim, k, send_which, g)]))
            recvs = []
            for (peer, axis, side), ch in self._recv_by_axis[k]:
                # The sender's high edge fills my low ghost and vice
                # versa; *side* is the sender's.
                which = "recv_lo" if side == 1 else "recv_hi"
                views, _used = parts(
                    arrays[nb_id][_slab(arrays[nb_id], dim, k, which, g)]
                    for _bid, nb_id in self._recv_plans[(peer, axis, side)]
                )
                recvs.append((ch, views))
            lo_h, hi_h = spec.handlers[k]
            edges = []
            for bid, side in self._edges[k]:
                handler = lo_h if side == 0 else hi_h
                edges.append((handler.fill,
                              *handler.views(arrays[bid], dim, k, side, g)))
            axes.append((sends, local, recvs, edges))
        return axes, nbytes, nmsg

    def _run(self, plan, t0: float, timer: ExchangeTimer | None) -> None:
        """One exchange along a :meth:`_plan`, timed from *t0*."""
        axes, nbytes, nmsg = plan
        for sends, local, recvs, edges in axes:
            # 1) pack + notify every outgoing channel of this axis; the
            #    pack is the send-time snapshot of the slab.
            for ch, views, used in sends:
                slot = ch.slot()
                for view, lo, hi in views:
                    np.copyto(slot[lo:hi].reshape(view.shape), view)
                ch.notify(used)
            # 2) local copies between same-rank neighbours
            for ghost, edge in local:
                np.copyto(ghost, edge)
            # 3) wait for every incoming channel, unpack straight into
            #    the ghost slices (single copy out of the slot).
            for ch, views in recvs:
                slot = ch.wait()
                for view, lo, hi in views:
                    np.copyto(view, slot[lo:hi].reshape(view.shape))
            # 4) boundary handlers at non-periodic domain edges
            for fill, ghost, source in edges:
                fill(ghost, source)
        if timer is not None:
            timer.add(time.perf_counter() - t0, nbytes, nmsg)

    def exchange(self, arrays: dict[int, np.ndarray], spec, *,
                 timer: ExchangeTimer | None = None) -> None:
        """Fill every ghost layer of *arrays* from neighbours or boundaries.

        *arrays* maps this rank's block ids to their ghosted field arrays
        ``(n_components, *ghosted spatial)`` of one registered stream.
        Neighbouring blocks on the same rank exchange by direct memory
        copy, remote neighbours through the registered channels; *spec*
        provides the handlers for non-periodic domain edges.  Axes are
        processed in dimensional order across all local blocks, keeping
        edge and corner ghosts consistent.  The plan of the exchange is
        built for this call and dropped after it.
        """
        t0 = time.perf_counter()
        self._run(self._plan(arrays, spec), t0, timer)

    def field_sync(self, fields: dict, spec, timer: ExchangeTimer | None = None):
        """The sync of a :class:`repro.core.stepper.Stepper` over this
        registry: ``sync(buffer)`` runs an exchange on buffer ``"src"``
        or ``"dst"`` of every Field in *fields* (block id ->
        :class:`~repro.grid.field.Field`).

        The plan of each buffer is built on its first exchange and kept
        by the registry, so the world's later calls walk the same views:
        two plans per field set per world (its two buffers, which trade
        the ``src`` / ``dst`` roles every step).
        """
        def sync(buffer: str) -> None:
            t0 = time.perf_counter()
            arrays = {bid: getattr(f, buffer) for bid, f in fields.items()}
            key = (id(spec), *map(id, arrays.values()))
            entry = self._plans.get(key)
            if entry is None:
                entry = self._plans[key] = (
                    spec, arrays, self._plan(arrays, spec))
            self._run(entry[2], t0, timer)
        return sync
