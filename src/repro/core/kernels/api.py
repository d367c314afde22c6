"""Kernel interface, shared context and registry.

Kernel signatures
-----------------
All kernels consume *ghosted* field arrays (one ghost layer) and return the
*interior* update for the next time step:

``phi_kernel(ctx, phi_src, mu_src, t_ghost) -> phi_dst_interior``
    Implements Eqs. (1)-(2).  ``phi_src``: ``(N,) + S_g``; ``mu_src``:
    ``(K-1,) + S_g``; ``t_ghost``: slice temperatures along the
    solidification (last) axis *including ghost slices*, shape ``(nz+2,)``.

``mu_kernel(ctx, mu_src, phi_src, phi_dst, t_old, t_new) -> mu_dst_interior``
    Implements Eqs. (3)-(4).  Needs both phi time levels (Fig. 1b) and the
    slice temperatures of both time levels (the dT/dt source term of the
    frozen-temperature ansatz).

Block-list sweeps
-----------------
A solver step runs each sweep over all blocks of a rank at once:
``sweep(ctx, blocks, temps) -> nonfinite``, where *blocks* lists
``(phi, mu, z_offset, nz)`` with double-buffered
:class:`~repro.grid.field.Field` pairs and *temps* the ``(t_old, t_new)``
slice temperatures of each block.  A sweep writes every block's result
into the interior of its ``dst`` buffer and returns whether some value
it stored there is non-finite — the step's NaN guard.  The compiled
rungs do this in one C call: their kernels carry ``.blocks``, a factory
of such sweeps, called once per ``Stepper`` so that a sweep may keep
what lasts one solver call.  Every other kernel goes through
:func:`loop_sweep`.

The registry maps rung names (see package docstring) to implementations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.parameters import PhaseFieldParameters
from repro.thermo.system import TernaryEutecticSystem

#: Upper bound on distinct ``(name, shape, dtype)`` scratch buffers one
#: context keeps alive; least-recently-used entries are evicted beyond
#: it (moving-window z-shape churn would otherwise grow the cache
#: without bound).
SCRATCH_MAX_ENTRIES = 32


@dataclass
class KernelContext:
    """Precomputed constants shared by all kernel invocations.

    The optimized rungs avoid touching Python-level thermodynamics objects
    in their hot path; everything they need is exported here as plain
    arrays (this is the analog of the paper's specialization step that
    removed per-cell indirect function calls).
    """

    system: TernaryEutecticSystem
    params: PhaseFieldParameters
    gamma: np.ndarray = field(init=False)
    gamma_triple: float = field(init=False)
    tau: np.ndarray = field(init=False)
    eps: float = field(init=False)
    liquid: int = field(init=False)
    n_phases: int = field(init=False)
    n_solutes: int = field(init=False)
    inv_curv: np.ndarray = field(init=False)   # (N, k, k)
    c_eq: np.ndarray = field(init=False)       # (N, k)
    c_slope: np.ndarray = field(init=False)    # (N, k)
    latent: np.ndarray = field(init=False)     # (N,)
    diff: np.ndarray = field(init=False)       # (N,)
    t_eut: float = field(init=False)

    def __post_init__(self) -> None:
        p, s = self.params, self.system
        self.gamma = p.gamma
        self.gamma_triple = p.gamma_triple
        self.tau = p.tau
        self.eps = p.eps
        self.liquid = s.liquid_index
        self.n_phases = s.n_phases
        self.n_solutes = s.n_solutes
        self.inv_curv = s._inv_curv
        self.c_eq = s._c_eq
        self.c_slope = s._c_slope
        self.latent = s._latent
        self.diff = s.diffusivities
        self.t_eut = s.t_eutectic
        self._scratch: OrderedDict = OrderedDict()
        self._scratch_owner: int | None = None
        self._scratch_thread: threading.Thread | None = None

    @property
    def dim(self) -> int:
        """Spatial dimension."""
        return self.params.dim

    def get_scratch(self, name: str, shape: tuple[int, ...],
                    dtype=np.float64) -> np.ndarray:
        """Reusable scratch buffer for kernel temporaries.

        The optimized rungs call this instead of allocating large
        temporaries on every sweep — the NumPy analog of keeping values
        in SIMD registers instead of spilling.  Contract:

        * Buffers come back **uninitialized** (they hold whatever the
          previous user of the same ``(name, shape, dtype)`` left); a
          caller must fully overwrite or ``fill()`` before reading.
        * The cache is LRU-bounded at :data:`SCRATCH_MAX_ENTRIES`
          entries, so the shape churn of a moving-window run (z-window
          extents shift every step) recycles memory instead of leaking.
        * A context is **owned by one thread** — the first one that asks
          for scratch.  Use from a second live thread raises rather than
          silently corrupting temporaries; build one context per rank
          (:func:`make_context`) as the distributed solver and the
          process backend do.  Ownership transfers automatically when
          the previous owner thread has exited (sequential ``run_spmd``
          calls reusing one context are fine).
        """
        tid = threading.get_ident()
        if self._scratch_owner != tid:
            # Liveness is asked of the owner's Thread object, not of its
            # ident: idents are reused, so a resident rank's next thread
            # may carry the ident a *different* rank's context remembers.
            owner = self._scratch_thread
            if owner is not None and owner.is_alive():
                raise RuntimeError(
                    "KernelContext scratch is single-thread-owned: used "
                    f"from thread {tid} while owned by live thread "
                    f"{self._scratch_owner}; build one context per "
                    "rank/thread with make_context() instead of sharing"
                )
            self._scratch_owner = tid
            self._scratch_thread = threading.current_thread()
        key = (name, tuple(shape), np.dtype(dtype).str)
        buf = self._scratch.get(key)
        if buf is None:
            if len(self._scratch) >= SCRATCH_MAX_ENTRIES:
                self._scratch.popitem(last=False)
            buf = np.empty(shape, dtype=dtype)
        else:
            del self._scratch[key]  # re-insert below => most recently used
        self._scratch[key] = buf
        return buf

    def broadcast_slices(self, values: np.ndarray) -> np.ndarray:
        """Reshape a per-slice array ``(nz,)`` for broadcasting over the
        trailing spatial axes."""
        v = np.asarray(values, dtype=float)
        return v.reshape((1,) * (self.dim - 1) + v.shape)


def make_context(
    system: TernaryEutecticSystem, params: PhaseFieldParameters
) -> KernelContext:
    """Build a :class:`KernelContext` (validates N consistency)."""
    if system.n_phases != params.n_phases:
        raise ValueError(
            f"system has {system.n_phases} phases but parameters expect "
            f"{params.n_phases}"
        )
    return KernelContext(system=system, params=params)


#: The registered rungs, referee first.
LADDER = (
    "reference", "buffered", "shortcut", "compiled", "compiled_shortcuts",
)

#: Rungs backed by the compiled backend (C built through cffi); they
#: register unconditionally but may be *unavailable* in a given
#: environment — query :func:`rung_available` before invoking.
COMPILED_RUNGS = ("compiled", "compiled_shortcuts")

#: NumPy rung each compiled rung degrades to when no backend is usable.
FALLBACK_RUNGS = {"compiled": "buffered", "compiled_shortcuts": "shortcut"}

PHI_KERNELS: dict[str, object] = {}
MU_KERNELS: dict[str, object] = {}

#: ``rung -> (mu_local, mu_neighbor)`` split mu sweeps for the
#: communication-hiding schedule (Algorithm 2).  Signatures:
#: ``local(ctx, mu_src, phi_src, phi_dst, t_old, t_new) -> interior`` and
#: ``neighbor(ctx, mu_partial, mu_src, phi_src, phi_dst, t_old) -> interior``.
SPLIT_MU_KERNELS: dict[str, tuple] = {}


#: Per-block kernel arguments of each sweep kind, from a block's
#: ``(phi, mu)`` Fields and its ``(t_old, t_new)`` slice temperatures.
_LOOP_ARGS = {
    "phi": lambda phi, mu, t_old, t_new: (phi.src, mu.src, t_old),
    "mu": lambda phi, mu, t_old, t_new: (
        mu.src, phi.src, phi.dst, t_old, t_new),
    "mu_neighbor": lambda phi, mu, t_old, t_new: (
        mu.interior_dst, mu.src, phi.src, phi.dst, t_old),
}


def loop_sweep(kernel, kind: str):
    """The block-list sweep of a per-block *kernel* of *kind* (``"phi"``,
    ``"mu"`` — also the split-local part — or ``"mu_neighbor"``): one
    kernel call per block, the result stored into the ``dst`` interior
    and checked for non-finite values."""
    args = _LOOP_ARGS[kind]
    target = 0 if kind == "phi" else 1

    def sweep(ctx, blocks, temps) -> bool:
        nonfinite = False
        for block, (t_old, t_new) in zip(blocks, temps):
            out = kernel(ctx, *args(block[0], block[1], t_old, t_new))
            block[target].interior_dst[...] = out
            nonfinite |= not np.isfinite(out).all()
        return nonfinite

    return sweep


def block_sweep(kernel, kind: str):
    """A block-list sweep of *kernel*: a new one from its ``.blocks``
    factory when it has one, else :func:`loop_sweep`."""
    make = getattr(kernel, "blocks", None)
    return make() if make is not None else loop_sweep(kernel, kind)


def register(kind: str, name: str):
    """Decorator registering a kernel implementation under *name*."""
    table = {"phi": PHI_KERNELS, "mu": MU_KERNELS}[kind]

    def deco(fn):
        table[name] = fn
        return fn

    return deco


def register_split_mu(name: str, local, neighbor) -> None:
    """Register the split mu sweep (local/neighbour parts) of a rung."""
    SPLIT_MU_KERNELS[name] = (local, neighbor)


def get_split_mu_kernel(name: str):
    """``(mu_local, mu_neighbor)`` of a rung, or ``None`` if it has no
    split mu sweep (overlap schedules require one)."""
    _ensure_loaded()
    return SPLIT_MU_KERNELS.get(name)


def rung_available(name: str) -> bool:
    """Whether a ladder rung is usable in this environment.

    NumPy rungs are always available; the compiled rungs depend on a
    usable backend (a C toolchain + cffi).  Unknown
    names are simply reported unavailable.
    """
    _ensure_loaded()
    if name in COMPILED_RUNGS:
        from repro.core.kernels import compiled

        return compiled.available()
    return name in PHI_KERNELS and name in MU_KERNELS


def available_rungs() -> tuple[str, ...]:
    """The ladder filtered to rungs usable in this environment."""
    return tuple(r for r in LADDER if rung_available(r))


def get_phi_kernel(name: str):
    """Look up a phi-kernel by rung name (importing implementations lazily)."""
    _ensure_loaded()
    try:
        return PHI_KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown phi kernel {name!r}; have {sorted(PHI_KERNELS)}")


def get_mu_kernel(name: str):
    """Look up a mu-kernel by rung name (importing implementations lazily)."""
    _ensure_loaded()
    try:
        return MU_KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown mu kernel {name!r}; have {sorted(MU_KERNELS)}")


def _ensure_loaded() -> None:
    # Import for the side effect of registration; kept lazy so that partial
    # installs (e.g. during docs builds) can import the API module alone.
    # The compiled package registers its rungs here too, but defers any
    # backend import/compilation until a compiled kernel is invoked.
    from repro.core.kernels import (  # noqa: F401
        buffered,
        compiled,
        reference,
        shortcut,
    )
