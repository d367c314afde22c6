"""Compute kernels for the two sweeps of the model (phi and mu updates).

The paper's node-level optimization ladder (Sec. 3.3 / Fig. 6) starts at
general-purpose C code and climbs through specialisation, SIMD, T(z)
slices, staggered buffers and shortcuts.  Here the rungs are *separate
implementations* of the same mathematics, and a regularly running
equivalence test suite pins all of them to the pure-Python reference —
exactly as the authors describe ("a regularly running test suite checks
all kernel versions for equivalence").  The steps between the referee
and the compiled rungs are not separate implementations: they are read
off the one compiled body, whose T(z) tables and staggered buffers are
compile-time ablations (``TZ``, ``STAGGER``) that give the shipped bits.

=================== ========================================= =====================
rung                paper                                     this repo
=================== ========================================= =====================
reference           general-purpose C code (function           per-cell pure Python
                    pointers)
buffered            staggered-value buffering (Fig. 3), in     whole-array NumPy:
                    the no-compiler fallback                   slice T, face-flux
                                                               arrays computed once
                                                               per face
shortcut            region-dependent term skipping, in the    boolean-mask gather/
                    no-compiler fallback                       scatter on interface
                                                               and front cells
compiled            specialised kernel + explicit SIMD +      C sweeps (cffi):
                    T(z) + staggered buffers                  compile-time N, K, dim;
                                                               four z cells per AVX2
                                                               vector; its W = 1
                                                               compile with T(z) /
                                                               stagger compiled out
                                                               are the ladder's
                                                               lower steps (Fig. 6)
compiled_shortcuts  compiled kernel + region skipping          same, with per-lane
                                                               region branches
=================== ========================================= =====================

The two ``compiled*`` rungs are backed by :mod:`repro.core.kernels.compiled`
and need a C toolchain + cffi.  They register
unconditionally but may be *unavailable*; query :func:`rung_available` /
:func:`available_rungs`, or let :func:`repro.core.kernels.compiled.maybe_fallback`
degrade them to their NumPy twins (``compiled`` -> ``buffered``,
``compiled_shortcuts`` -> ``shortcut``) with a :class:`RuntimeWarning` —
the solvers do this automatically.  Backend choice is controlled by the
``REPRO_KERNEL_BACKEND`` environment variable (``auto`` | ``cffi`` |
``none``).  Compiled rungs are pinned to the reference by the
equivalence suite at the same documented tolerance (atol 1e-11) as the
NumPy rungs; bitwise identity is not promised because the compiled code
uses the analytic 2x2 chi solve and the O(N) driving-force form of the
NumPy rungs, not ``np.linalg.solve``.
"""

from repro.core.kernels.api import (
    COMPILED_RUNGS,
    FALLBACK_RUNGS,
    KernelContext,
    LADDER,
    MU_KERNELS,
    PHI_KERNELS,
    available_rungs,
    get_mu_kernel,
    get_phi_kernel,
    get_split_mu_kernel,
    make_context,
    rung_available,
)

__all__ = [
    "COMPILED_RUNGS",
    "FALLBACK_RUNGS",
    "KernelContext",
    "LADDER",
    "MU_KERNELS",
    "PHI_KERNELS",
    "available_rungs",
    "compiled",
    "get_mu_kernel",
    "get_phi_kernel",
    "get_split_mu_kernel",
    "make_context",
    "rung_available",
]


def __getattr__(name):
    # Lazy so `import repro.core.kernels` stays cheap; the compiled package
    # itself defers backend probing until a kernel is invoked.
    if name == "compiled":
        import importlib

        return importlib.import_module("repro.core.kernels.compiled")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
