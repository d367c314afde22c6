"""Compiled rungs of the optimization ladder (``compiled`` / ``compiled_shortcuts``).

The paper's ladder ends in compiled, specialised kernels (Sec. 3.3,
Figs. 5-6); these rungs are that stage for the reproduction.  There is
one backend and one source of the algorithm: the C text in
:mod:`~repro.core.kernels.compiled.cffi_backend`, built with the system C
compiler and loaded via cffi ABI mode (OpenMP threading when the
toolchain has it).  The pure-Python ``reference`` rung and the NumPy
rungs are its referees.

Nothing is compiled until a compiled rung (or :func:`available`) is
first asked for.  ``REPRO_KERNEL_BACKEND`` selects ``auto`` (default) |
``cffi`` | ``none``.  When the backend is unusable (no cffi, no C
compiler, build failure) the registry reports the rungs unavailable
(:func:`repro.core.kernels.api.rung_available`) and the solvers degrade
to the equivalent NumPy rung with a warning instead of erroring.

Both rungs run the same sweeps — compile-time-specialised instantiations
(``N = 4, K = 2``, 2-D and 3-D; a run-time-generic one otherwise), T(z)
slice-coefficient precomputation, staggered face buffers that evaluate
each face flux once — and differ exactly like the NumPy
``buffered``/``shortcut`` pair:

``compiled``
    every term on every cell; on a host with AVX2, four consecutive z
    cells per vector (the paper's "four-cell" strategy), bitwise equal
    to the scalar body.
``compiled_shortcuts``
    adds the region shortcuts as *real per-cell branches* (the paper's
    winning "cellwise with shortcuts" strategy): inactive cells copy
    through, the driving force runs on diffuse cells only, and the
    anti-trapping current on solidification-front cells only.

Tolerance policy: the equivalence suite pins both rungs to the
pure-Python reference at the same ``atol=1e-11`` as the NumPy rungs.
Bitwise identity with the reference is *not* guaranteed (the compiled
rungs use the analytic 2x2 susceptibility solve and the O(N) driving
force form, like the optimized NumPy rungs).  What *is* guaranteed
bitwise: a block's result is a pure function of its ghosted input,
independent of the block's shape and position and of the OpenMP thread
count — the property the bitwise serial-vs-distributed tests rest on.

The kernels allocate their scratch per call, private to each OpenMP
thread, and never touch ``KernelContext.get_scratch`` — they may be
entered from several Python threads at once and place no
thread-ownership claim on the context.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from repro.core.kernels.api import (
    KernelContext,
    register,
    register_split_mu,
)
from repro.core.kernels.compiled import cffi_backend
from repro.settings import KERNEL_BACKENDS, Settings

__all__ = [
    "BACKENDS",
    "CompiledBackendUnavailable",
    "available",
    "available_backends",
    "backend_name",
    "backend_module",
    "set_backend",
    "unavailable_reason",
    "warmup",
]

#: Backends ``REPRO_KERNEL_BACKEND`` can name (``auto`` probes them).
BACKENDS = ("cffi",)

_selection: tuple[str | None, str | None] | None = None  # (name, reason)
_forced: str | None = None


class CompiledBackendUnavailable(RuntimeError):
    """A compiled rung was invoked but no backend is usable."""


def _resolve() -> tuple[str | None, str | None]:
    """``(backend_name, reason_if_none)`` honoring env/forced choice."""
    global _selection
    if _selection is not None:
        return _selection
    choice = (
        Settings.from_env().kernel_backend if _forced is None
        else KERNEL_BACKENDS.get(_forced.strip().lower() or "auto")
    )
    if choice in ("auto", "cffi"):
        if cffi_backend.available():
            _selection = ("cffi", None)
        else:
            _selection = (None, f"cffi: {cffi_backend.build_error()}")
    elif choice == "none":
        _selection = (None, "disabled via REPRO_KERNEL_BACKEND")
    else:
        _selection = (
            None,
            f"unknown REPRO_KERNEL_BACKEND {_forced!r} "
            f"(expected {'|'.join(KERNEL_BACKENDS)})",
        )
    return _selection


def set_backend(name: str | None) -> None:
    """Force a backend choice (``None`` re-reads the environment).

    Overrides ``REPRO_KERNEL_BACKEND``; mainly for tests.  Accepts the
    same values as the environment variable.
    """
    global _forced, _selection
    _forced = name
    _selection = None


def backend_name() -> str | None:
    """Selected backend name, or ``None`` when the rungs are unavailable."""
    return _resolve()[0]


def unavailable_reason() -> str | None:
    """Why no backend is usable (None when one is)."""
    return _resolve()[1]


def available() -> bool:
    """True when a compiled backend is usable in this environment."""
    return backend_name() is not None


def available_backends() -> tuple[str, ...]:
    """All backends usable in this environment (selection-independent)."""
    return BACKENDS if cffi_backend.available() else ()


def backend_module():
    """The selected backend module; raises when none is usable."""
    name, reason = _resolve()
    if name is None:
        raise CompiledBackendUnavailable(
            f"no compiled kernel backend is available ({reason}); install "
            "cffi and a C compiler, or select a NumPy rung "
            "(e.g. kernel='shortcut')"
        )
    return cffi_backend


# --------------------------------------------------------------------------
# KernelContext packing and geometry
# --------------------------------------------------------------------------

def _c64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


def _pack(ctx: KernelContext) -> dict:
    """Constants of *ctx* as the backend takes them (cached on the context).

    Converted once: ``phi`` / ``mu`` are the trailing constant arguments
    of ``phi_step_raw`` / ``mu_step_raw`` as cdata (each keeps its array
    alive), ``geom`` caches the geometry vector per ghosted shape.
    A changed time step builds a new context, so per-object caching is
    safe; the pack is read-only shared state and thread-safe to reuse.
    """
    pk = getattr(ctx, "_compiled_pack", None)
    if pk is None:
        if ctx.n_phases > 8 or ctx.n_solutes > 4:
            raise ValueError(
                "compiled kernels support at most 8 phases / 4 solutes "
                f"(got N={ctx.n_phases}, K={ctx.n_solutes})"
            )
        ptr = cffi_backend.pointer
        p = ctx.params
        scal = ptr(np.array(
            [p.dx, p.dt, ctx.eps, ctx.gamma_triple, ctx.t_eut]
        ))
        inv_curv, c_eq, c_slope, diff = (
            ptr(_c64(a))
            for a in (ctx.inv_curv, ctx.c_eq, ctx.c_slope, ctx.diff)
        )
        pk = {
            "phi": (scal, ptr(_c64(ctx.gamma)), ptr(_c64(ctx.tau)),
                    inv_curv, c_eq, c_slope, ptr(_c64(ctx.latent)), diff),
            "mu": (scal, inv_curv, c_eq, c_slope, diff),
            "anti_trapping": 1 if p.anti_trapping else 0,
            "geom": {},
        }
        ctx._compiled_pack = pk
    return pk


def _geometry(ctx: KernelContext, pk: dict, ghosted_shape) -> tuple:
    """``(geom, interior_shape)`` for a ghosted spatial shape."""
    cached = pk["geom"].get(ghosted_shape)
    if cached is None:
        interior = tuple(s - 2 for s in ghosted_shape)
        if len(interior) == 3:
            dim3, (n0, n1, n2) = 1, interior
        else:
            dim3, n0, (n1, n2) = 0, 1, interior
        geom = np.array(
            [dim3, n0, n1, n2, ctx.n_phases, ctx.n_solutes, ctx.liquid],
            dtype=np.int64,
        )
        cached = (cffi_backend.pointer(geom, "long long[]"), interior)
        pk["geom"][ghosted_shape] = cached
    return cached


# --------------------------------------------------------------------------
# kernel entry points
# --------------------------------------------------------------------------

def _phi_compiled(ctx, phi_src, mu_src, t_ghost, shortcuts: bool):
    be = backend_module()
    pk = _pack(ctx)
    geom, interior = _geometry(ctx, pk, phi_src.shape[1:])
    out = np.empty((ctx.n_phases,) + interior)
    be.phi_step_raw(
        _c64(phi_src), _c64(mu_src), _c64(t_ghost), out,
        geom, *pk["phi"], 1 if shortcuts else 0,
    )
    return out


def _mu_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_new,
                 shortcuts: bool, include_at: int = 1, only_at: int = 0,
                 seed: np.ndarray | None = None):
    be = backend_module()
    pk = _pack(ctx)
    geom, interior = _geometry(ctx, pk, mu_src.shape[1:])
    if seed is None:
        out = np.empty((ctx.n_solutes,) + interior)
    else:
        # neighbour part: accumulate onto a copy of the local partial
        out = np.array(seed, dtype=np.float64, order="C")
    be.mu_step_raw(
        _c64(mu_src), _c64(phi_src), _c64(phi_dst), _c64(t_old), _c64(t_new),
        out, geom, *pk["mu"], pk["anti_trapping"], 1 if shortcuts else 0,
        include_at, only_at,
    )
    return out


def _target(arr) -> np.ndarray:
    """A Field buffer the block sweeps point into (and write in place)."""
    if arr.dtype != np.float64 or not arr.flags.c_contiguous:
        raise TypeError(
            "compiled block sweeps need C-contiguous float64 fields, got "
            f"{arr.dtype} (contiguous: {arr.flags.c_contiguous})"
        )
    return arr


def _check_block(ctx, phi, mu) -> None:
    """The C sweeps index every buffer of a block by the geometry of its
    ``phi.src``: all four must be of the context's component counts over
    one ghosted shape."""
    ghosted = phi.src.shape[1:]
    if not (phi.src.shape == phi.dst.shape == (ctx.n_phases,) + ghosted
            and mu.src.shape == mu.dst.shape
            == (ctx.n_solutes,) + ghosted):
        raise ValueError(
            f"block buffers phi {phi.src.shape}/{phi.dst.shape}, mu "
            f"{mu.src.shape}/{mu.dst.shape} do not hold {ctx.n_phases} "
            f"phases and {ctx.n_solutes} solutes over one ghosted shape"
        )


class _FieldTables:
    """Pointer tables of the Field buffers a block-list sweep reads and
    writes, and of the blocks' geometries.

    One instance serves one sweep, which belongs to one ``Stepper`` —
    one solver call — whose buffers only trade the ``src`` / ``dst``
    roles from step to step.  So each buffer set is tabled once and
    found again by the identity of its arrays; the entry holds them (and
    the context pack the geometries live in), so no id is reused while
    it lives.  At most ``LIMIT`` sets are kept.  Slice temperatures are
    new every step and tabled per call instead.
    """

    LIMIT = 4

    def __init__(self, buffers):
        #: ``buffers(phi, mu)``: the arrays of one block the sweep uses.
        self.buffers = buffers
        self._sets: dict = {}

    def __call__(self, ctx, pk, blocks) -> tuple:
        """``(tables, geometry table)`` of *blocks*."""
        arrays = [self.buffers(phi, mu) for phi, mu, _z, _n in blocks]
        key = (id(pk), *(id(a) for per in arrays for a in per))
        entry = self._sets.get(key)
        if entry is None:
            for phi, mu, _z, _n in blocks:
                _check_block(ctx, phi, mu)
            if len(self._sets) >= self.LIMIT:
                self._sets.clear()
            be = backend_module()
            geoms = [_geometry(ctx, pk, per[0].shape[1:])[0]
                     for per in arrays]
            tables = [be.table([_target(a) for a in column])
                      for column in zip(*arrays)]
            # the last item holds everything the tables point into
            entry = self._sets[key] = (
                [t for t, _ in tables], be.geometry_table(geoms),
                (pk, arrays, geoms, tables),
            )
        return entry[0], entry[1]


def _temperature_table(temps, which: int):
    return backend_module().table([_c64(t[which]) for t in temps])


def _phi_blocks(shortcuts: bool):
    """Factory of block-list phi sweeps (see :mod:`repro.core.kernels.api`)."""
    def make():
        fields = _FieldTables(lambda phi, mu: (phi.src, mu.src, phi.dst))

        def sweep(ctx, blocks, temps) -> bool:
            if not blocks:
                return False
            pk = _pack(ctx)
            (phi, mu, dst), geom = fields(ctx, pk, blocks)
            t_old, _keep = _temperature_table(temps, 0)
            return backend_module().phi_blocks_raw(
                len(blocks), phi, mu, t_old, dst, geom, *pk["phi"],
                1 if shortcuts else 0,
            )

        return sweep

    return make


def _mu_blocks(shortcuts: bool, include_at: int = 1, only_at: int = 0):
    """Factory of block-list mu sweeps; *only_at* is the seeded
    split-neighbour part, which runs at ``t_new = t_old`` and only with
    anti-trapping."""
    def make():
        fields = _FieldTables(
            lambda phi, mu: (mu.src, phi.src, phi.dst, mu.dst))

        def sweep(ctx, blocks, temps) -> bool:
            if not blocks or (only_at and not ctx.params.anti_trapping):
                return False
            pk = _pack(ctx)
            (mu, phi_src, phi_dst, dst), geom = fields(ctx, pk, blocks)
            t_old, _keep_old = _temperature_table(temps, 0)
            t_new, _keep_new = (
                (t_old, None) if only_at else _temperature_table(temps, 1))
            return backend_module().mu_blocks_raw(
                len(blocks), mu, phi_src, phi_dst, t_old, t_new, dst, geom,
                *pk["mu"], pk["anti_trapping"], 1 if shortcuts else 0,
                include_at, only_at,
            )

        return sweep

    return make


@register("phi", "compiled")
def phi_step_compiled(ctx, phi_src, mu_src, t_ghost):
    """Compiled phi sweep (tz precomputation, no shortcuts)."""
    return _phi_compiled(ctx, phi_src, mu_src, t_ghost, shortcuts=False)


@register("phi", "compiled_shortcuts")
def phi_step_compiled_shortcuts(ctx, phi_src, mu_src, t_ghost):
    """Compiled phi sweep with per-cell region branches."""
    return _phi_compiled(ctx, phi_src, mu_src, t_ghost, shortcuts=True)


@register("mu", "compiled")
def mu_step_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_new):
    """Compiled mu sweep (tz precomputation, no shortcuts)."""
    return _mu_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_new,
                        shortcuts=False)


@register("mu", "compiled_shortcuts")
def mu_step_compiled_shortcuts(ctx, mu_src, phi_src, phi_dst, t_old, t_new):
    """Compiled mu sweep with per-cell region branches."""
    return _mu_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_new,
                        shortcuts=True)


# ---- split mu sweep (Algorithm 2) ----------------------------------------

def _make_split(shortcuts: bool):
    def local(ctx, mu_src, phi_src, phi_dst, t_old, t_new):
        return _mu_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_new,
                            shortcuts, include_at=0)

    def neighbor(ctx, mu_partial, mu_src, phi_src, phi_dst, t_old):
        if not ctx.params.anti_trapping:
            return mu_partial
        return _mu_compiled(ctx, mu_src, phi_src, phi_dst, t_old, t_old,
                            shortcuts, include_at=1, only_at=1,
                            seed=mu_partial)

    local.blocks = _mu_blocks(shortcuts, include_at=0)
    neighbor.blocks = _mu_blocks(shortcuts, include_at=1, only_at=1)
    return local, neighbor


phi_step_compiled.blocks = _phi_blocks(False)
phi_step_compiled_shortcuts.blocks = _phi_blocks(True)
mu_step_compiled.blocks = _mu_blocks(False)
mu_step_compiled_shortcuts.blocks = _mu_blocks(True)
register_split_mu("compiled", *_make_split(False))
register_split_mu("compiled_shortcuts", *_make_split(True))


# --------------------------------------------------------------------------
# warmup
# --------------------------------------------------------------------------

def warmup(ctx: KernelContext, dim: int | None = None) -> float:
    """Compile/load the backend against *ctx* on a tiny dummy problem.

    Runs every entry point (both shortcut variants, full and split mu)
    on a one-cell domain so that the shared-library build (when the cache
    is cold) and the constants pack are paid for *before* any timed
    stepping — the recorded return value (seconds) is what the
    benchmarks report as compile cost so warmup never pollutes MLUP/s.
    Raises :class:`CompiledBackendUnavailable` when no backend is usable.
    """
    t0 = time.perf_counter()
    backend_module()  # triggers import/build of the backend itself
    d = ctx.dim if dim is None else dim
    gshape = (3,) * d
    phi = np.zeros((ctx.n_phases,) + gshape)
    phi[ctx.liquid] = 1.0
    phi[(0,) + (slice(0, 1),) * d] = 0.5  # mixed corner: exercises branches
    mu = np.full((ctx.n_solutes,) + gshape, 0.01)
    tg = np.full(3, ctx.t_eut)
    for shortcuts in (False, True):
        _phi_compiled(ctx, phi, mu, tg, shortcuts)
        _mu_compiled(ctx, mu, phi, phi, tg, tg, shortcuts)
        local, neighbor = _make_split(shortcuts)
        partial = local(ctx, mu, phi, phi, tg, tg)
        neighbor(ctx, partial, mu, phi, phi, tg)
    return time.perf_counter() - t0


def maybe_fallback(kernel: str) -> str:
    """Resolve a compiled rung to its NumPy fallback when unavailable.

    The clean-degradation knob of the solvers: requesting
    ``kernel="compiled"`` without a usable backend warns and returns the
    equivalent NumPy rung instead of failing deep inside the first step.
    Non-compiled rung names pass through untouched.
    """
    from repro.core.kernels.api import COMPILED_RUNGS, FALLBACK_RUNGS

    if kernel in COMPILED_RUNGS and not available():
        fallback = FALLBACK_RUNGS[kernel]
        warnings.warn(
            f"compiled kernel backend unavailable "
            f"({unavailable_reason()}); falling back to the NumPy "
            f"{fallback!r} rung",
            RuntimeWarning,
            stacklevel=3,
        )
        return fallback
    return kernel
