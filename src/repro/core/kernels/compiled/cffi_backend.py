"""The compiled kernels: generated C, built on demand, loaded through cffi.

The C text below is the single source of the ``compiled`` /
``compiled_shortcuts`` rungs.  It is built with the system C compiler
into a shared library and loaded through ``cffi``'s ABI mode
(``dlopen``) — no setuptools machinery, no build at install time.
``reference.py`` and the NumPy rungs are its referees
(``tests/test_kernels_equivalence.py``, ``tests/test_kernels_compiled.py``).

Layout conventions
------------------
* Fields arrive C-contiguous with the component axis leading: a ghosted
  field of interior shape ``(n0, n1, n2)`` (``n0 == 1`` and no x-ghosts
  in 2-D) is indexed as ``field[comp * cs + cell]`` where ``cs`` is the
  ghosted cells-per-component stride.  Outputs are interior-only with
  stride ``ocs``.
* ``geom = [dim3, n0, n1, n2, N, K, liquid]`` (int64) and
  ``scal = [dx, dt, eps, gamma_triple, t_eut]`` (float64) carry the
  :class:`~repro.core.kernels.api.KernelContext` constants; matrices are
  flattened row-major (``gamma[a*N+b]``, ``inv_curv[(a*K+i)*K+j]``).

What the sweeps contain (the paper's node-level ladder, Sec. 3.3)
-----------------------------------------------------------------
* **Specialisation.**  Each sweep body is written once in terms of
  ``N``, ``K`` and the number of axes and instantiated with them as
  compile-time constants for the shipped dataset (``N = 4, K = 2`` in
  2-D and 3-D), plus one run-time-generic instantiation for any other
  ``N <= 8, K <= 4``.  The instantiation is chosen once per call.
* **T(z) precomputation.**  Slice coefficient tables, once per sweep.
* **Staggered face buffers.**  The flux through a face is evaluated once,
  in the ``+d`` orientation, by the cell below it, and read back by the
  cell above: a z face from registers, the others from O(plane) scratch,
  one line of slots for the previous y-line and one plane for the
  previous x-plane.  Every slot carries the ghosted index of the cell
  that wrote it and is valid only for the cell directly above that
  writer; a cell that finds no valid slot (block boundary, first line of
  a thread's share, a neighbour skipped by a shortcut) evaluates the
  face itself.  Both evaluations give the same bits (DESIGN.md,
  "Compiled kernels"), so a block's result is a pure function of its
  ghosted input, independent of block shape, position and thread count.
* **Ablations.**  The T(z) tables and the staggered buffers are
  compile-time macros of the body (``TZ``, ``STAGGER``, both 1 when
  shipped).  The test hook :func:`_ablated` builds the W = 1 text with
  either turned off into an object of its own, on first use, so that
  Fig. 6 reads those two steps of the ladder off this body; they give
  the shipped bits.
* **Shortcuts** (``compiled_shortcuts`` only, a run-time flag of the
  body): inactive cells copy through, non-diffuse active cells skip the
  driving force, non-front cells skip anti-trapping.  A face therefore
  keeps its diffusive value and its diffusive-plus-anti-trapping value
  separately, and each cell takes the one its own flag asks for.  The
  flags are computed per lane; a vector skips work where all its lanes
  agree and blends where they do not.
* **One body, two widths** (both rungs): written in lane operations and
  compiled at W = 1 (a lane is a ``double``) and at W = 4 (GCC vectors
  under AVX2).  On a host with AVX2 the shipped instantiations sweep
  four consecutive z cells in lockstep (:func:`simd_width`); everything
  else runs the W = 1 compile.  Both give the same bits (DESIGN.md,
  "The four-cell body").
* **Exact-zero skips** (the mu body).  Per vector of W faces or cells
  the mu body leaves out a term that is exactly +-0 on every lane: the
  anti-trapping current of a solid phase whose face amplitude
  ``phi_f[a] * phi_f[liquid]`` is 0 (bulk solid, bulk melt), and the
  phase-change source of cells whose phi did not change.  Subtracting
  +-0 from a flux that started at +0.0 is the identity, so the bits are
  those of the full evaluation; a lane skips only when every value the
  term reads is finite and below 2^240 (a NaN or inf input turns the
  skip off where it is read).  Unlike the tolerance shortcuts of
  ``compiled_shortcuts``, which drop terms that are small and so change
  the result, these drop nothing but zeros.

Compilation policy
------------------
* Two translation units, the C text at W = 1 (every entry point, the
  generic instantiation at ``-O2``) and at W = 4 (the shipped ones),
  compiled concurrently at :func:`load` and linked into one shared
  object.  Sources, cdef, compiler path and the
  flags actually used are hashed into the file name; the object is
  cached under ``_build/`` next to this module (override with
  ``REPRO_COMPILED_CACHE``), so each environment compiles exactly once.
  The compiler reads each unit from stdin into a private directory and
  the object is published by ``os.replace``, so processes that start
  together against an empty cache each build privately and race benignly.
* ``-O3 -ffp-contract=off``, no ``-ffast-math``, no ``-march`` and no
  ``-mfma``: the W = 4 unit gets AVX2 from a ``target`` pragma and is
  chosen at run time by ``__builtin_cpu_supports``, so the object runs
  on any x86-64 host, and the W = 1 unit builds with any C compiler.
  The equivalence suite pins the compiled rungs to
  the pure-Python reference at the same tolerance as the NumPy rungs,
  and buffer reuse and lane arithmetic are bit-exact only under IEEE
  semantics without contraction.
* ``-fopenmp`` is attempted first and dropped if the toolchain lacks it;
  the library records which variant is loaded (:func:`num_threads`).  A
  process forked after the library ran a team of more than one thread
  sweeps on one thread (GNU OpenMP's team does not survive a fork) and
  warns once.

Parallel safety: all scratch is allocated per call and private to one
OpenMP thread; the kernels never touch ``KernelContext.get_scratch``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.settings import Settings

__all__ = [
    "available",
    "load",
    "build_error",
    "num_threads",
    "simd_width",
    "pointer",
    "phi_step_raw",
    "mu_step_raw",
    "table",
    "geometry_table",
    "phi_blocks_raw",
    "mu_blocks_raw",
]

_CDEF = """
int repro_phi_step(
    const double *phi, const double *mu, const double *tg, double *out,
    const long long *geom, const double *scal,
    const double *gamma, const double *tau, const double *inv_curv,
    const double *c_eq, const double *c_slope, const double *latent,
    const double *diff, int shortcuts);
int repro_mu_step(
    const double *mu, const double *phi_src, const double *phi_dst,
    const double *t_old, const double *t_new, double *out,
    const long long *geom, const double *scal,
    const double *inv_curv, const double *c_eq, const double *c_slope,
    const double *diff, int anti_trapping, int shortcuts,
    int include_at, int only_at);
int repro_phi_blocks(
    int nblocks, double **phi, double **mu, double **tg, double **dst,
    long long **geom, const double *scal,
    const double *gamma, const double *tau, const double *inv_curv,
    const double *c_eq, const double *c_slope, const double *latent,
    const double *diff, int shortcuts);
int repro_mu_blocks(
    int nblocks, double **mu, double **phi_src, double **phi_dst,
    double **t_old, double **t_new, double **dst, long long **geom,
    const double *scal, const double *inv_curv, const double *c_eq,
    const double *c_slope, const double *diff, int anti_trapping,
    int shortcuts, int include_at, int only_at);
int repro_num_threads(void);
int repro_forked_after_team(void);
int repro_set_simd(int on);
int repro_simd_width(void);
"""

_C_SOURCE = r"""
#include <math.h>
#include <pthread.h>
#include <stdlib.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

/* Two steps of the ladder (Fig. 6) as compile-time ablations, both 1 in
   the shipped units.  At TZ 0 a thread rebuilds the T(z) coefficient
   rows of each line it sweeps, so every cell's coefficients are
   evaluated once per cell instead of once per sweep; at STAGGER 0 no
   face is kept for the cell above it, so every cell evaluates both faces
   of each axis.  Either gives the bits of the shipped body (DESIGN.md,
   "Compiled kernels").  An ablated unit is the W = 1 text alone. */
#ifndef TZ
#define TZ 1
#endif
#ifndef STAGGER
#define STAGGER 1
#endif

/* The W = 4 compile of the body needs GCC's vector extensions on
   x86-64; anywhere else, and in an ablated unit, every sweep runs the
   W = 1 compile. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) \
    && TZ && STAGGER
#define SIMD 1
#else
#define SIMD 0
#endif
#if defined(__GNUC__) && !defined(__clang__)
#define GCC_OPTIONS 1
#else
#define GCC_OPTIONS 0
#endif

#define MAXN 8
#define MAXK 4
#define TOL 1e-9
#define GRAD_TOL 1e-12
/* Forced inlining is what instantiates a body: N, K and NAX reach it as
   literal constants from the dispatch in the shares. */
#define BODY static inline __attribute__((always_inline))
#define SHARE static __attribute__((noinline))
/* The run-time-generic instantiation (any other N <= 8, K <= 4) is
   rare, and at -O3 it adds about 2 s to the W = 1 unit's compile. */
#if GCC_OPTIONS
#define GENERIC static __attribute__((noinline, optimize("O2")))
#else
#define GENERIC SHARE
#endif

typedef long long i64;

/* Slot of the staggered buffer that holds the face below cell
   (i1, i2) along an axis d < NAX - 1: the previous y-line or x-plane
   (z faces stay in registers). */
BODY i64 face_slot(const int NAX, int d, i64 n2, i64 i1, i64 i2)
{
    if (d == NAX - 2) return i2;
    return n2 + i1 * n2 + i2;
}

typedef struct {
    const double *phi, *mu, *tg, *gamma, *tau, *inv_curv;
    const double *cmin_z, *lat_z;  /* T(z) tables, [comp][z] */
#if !TZ
    const double *c_eq, *c_slope, *latent;  /* what the tables are of */
    double t_eut;
#endif
    double *out;
    double *scratch;               /* per_thread doubles for each thread */
    i64 n0, n1, n2, slots, per_thread;
    double dx, dt, eps, gt;
    int N, K, nax, shortcuts, simd;
} phi_args;

typedef struct {
    const double *mu, *phi_src, *phi_dst, *t_old, *t_new;
    const double *inv_curv, *c_slope, *diff;
    const double *cmin_c, *cmin_f;  /* T(z) tables, [comp][z]: centres,
                                       z-faces */
#if !TZ
    const double *c_eq;             /* what the tables are of */
    double t_eut;
#endif
    double *out;
    double *scratch;                /* per_thread doubles for each thread */
    i64 n0, n1, n2, slots, per_thread;
    double dx, dt, eps;
    int N, K, nax, ell, anti_trapping, shortcuts, include_at, only_at, simd;
} mu_args;

/* Everything a face evaluation needs besides the two cells. */
typedef struct {
    const double *mu, *ps, *pd;
    i64 cs, off[3];
    double inv_dx, inv_2dx, dt, pref_at;
    int ell;
    int tame;  /* the anti-trapping skips are safe */
    double ic[MAXN][MAXK][MAXK], diff[MAXN];
} mu_face_env;

/* Sweep constants of the phi body. */
BODY void phi_constants(const int N, const int K, const phi_args *A,
                        double gam2[MAXN][MAXN], double gamw[MAXN][MAXN],
                        double rate[MAXN], double ic[MAXN][MAXK][MAXK])
{
    const double pref = 16.0 / (M_PI * M_PI);
    for (int a = 0; a < N; a++) {
        rate[a] = A->dt / (A->tau[a] * A->eps);
        for (int b = 0; b < N; b++) {
            gam2[a][b] = 2.0 * A->gamma[a * N + b];
            gamw[a][b] = pref * A->gamma[a * N + b];
        }
        for (int i = 0; i < K; i++)
            for (int j = 0; j < K; j++)
                ic[a][i][j] = A->inv_curv[(a * K + i) * K + j];
    }
}

/* Sweep constants of the mu body: the face environment and the
   concentration slopes. */
BODY void mu_constants(const int N, const int K, const int NAX,
                       const mu_args *A, mu_face_env *E,
                       double c_slope[MAXN][MAXK])
{
    const i64 g1 = A->n1 + 2, g2 = A->n2 + 2;
    E->mu = A->mu; E->ps = A->phi_src; E->pd = A->phi_dst;
    E->cs = (NAX == 3 ? A->n0 + 2 : 1) * g1 * g2;
    E->off[0] = g2; E->off[1] = 1; E->off[2] = 0;
    if (NAX == 3) { E->off[0] = g1 * g2; E->off[1] = g2; E->off[2] = 1; }
    E->inv_dx = 1.0 / A->dx; E->inv_2dx = 1.0 / (2.0 * A->dx);
    E->dt = A->dt; E->pref_at = M_PI * A->eps / 4.0; E->ell = A->ell;
    for (int a = 0; a < N; a++) {
        E->diff[a] = A->diff[a];
        for (int i = 0; i < K; i++) {
            c_slope[a][i] = A->c_slope[a * K + i];
            for (int j = 0; j < K; j++)
                E->ic[a][i][j] = A->inv_curv[(a * K + i) * K + j];
        }
    }
}

#if !TZ
/* T(z) off: the T(z) rows of one line, rebuilt by the thread that sweeps
   it, in the layout and with the formula of the per-call tables of
   repro_phi_step and repro_mu_step. */
BODY void phi_rows(const int N, const int K, const phi_args *A,
                   double *cmin_z, double *lat_z)
{
    const i64 n2 = A->n2;
    for (i64 iz = 0; iz < n2; iz++) {
        const double dT = A->tg[iz + 1] - A->t_eut;
        for (int a = 0; a < N; a++) {
            lat_z[a * n2 + iz] = A->latent[a] * dT;
            for (int i = 0; i < K; i++)
                cmin_z[(a * K + i) * n2 + iz] =
                    A->c_eq[a * K + i] + A->c_slope[a * K + i] * dT;
        }
    }
}

BODY void mu_rows(const int N, const int K, const mu_args *A,
                  double *cmin_c, double *cmin_f)
{
    const i64 n2 = A->n2;
    const double *t_old = A->t_old;
    for (i64 iz = 0; iz < n2; iz++) {
        const double dT = t_old[iz + 1] - A->t_eut;
        for (int a = 0; a < N; a++)
            for (int i = 0; i < K; i++)
                cmin_c[(a * K + i) * n2 + iz] =
                    A->c_eq[a * K + i] + A->c_slope[a * K + i] * dT;
    }
    for (i64 f = 0; f < n2 + 1; f++) {
        const double dT = 0.5 * (t_old[f] + t_old[f + 1]) - A->t_eut;
        for (int a = 0; a < N; a++)
            for (int i = 0; i < K; i++)
                cmin_f[(a * K + i) * (n2 + 1) + f] =
                    A->c_eq[a * K + i] + A->c_slope[a * K + i] * dT;
    }
}
#endif

#if SIMD
/* The shares of the W = 4 unit. */
#define UNIT __attribute__((visibility("hidden")))
UNIT void phi_share_4(const phi_args *A, i64 lo, i64 hi,
                      double *fbuf, i64 *stamp);
UNIT void mu_share_4(const mu_args *A, i64 lo, i64 hi,
                     double *fdiff, double *ffull, i64 *sdiff, i64 *sfull);
#endif

/* The W = 4 unit is empty where GCC's vector extensions are not. */
#if W == 1 || SIMD
/* ------------------------------------------------------------------ */
/* the sweep body: W consecutive z cells in lockstep                   */
/* ------------------------------------------------------------------ */

/* Written once in lane operations, compiled at W = 1 (a lane is a
   double) and at W = 4 (GCC vectors under AVX2).  Each lane performs
   the same IEEE operations in the same order at either width, so both
   give the same bits; a branch is a compare and a blend of both sides,
   never a masked addition (-0.0 + 0.0 is +0.0).  Besides arithmetic:
   * the lower z face of a vector is its upper z face vector shifted by
     one lane, the previous vector's last lane shifted in;
   * the x/y face slots of W consecutive z cells are one vector, stored
     component-major (fbuf[comp * slots + slot]); a vector writes all W
     of its slots or none, so lane 0's stamp answers for the vector;
   * T(z) tables are component-major ([comp][z]), one vector per load;
   * a line whose length is not a multiple of W ends with an overlapped
     vector over its last W cells, which evaluates all its lower faces:
     a recomputed cell or face has the bits of the first evaluation.
   Shortcuts (compiled_shortcuts, a run-time flag) are lane predicates:
   a vector whose lanes all take a shortcut skips the work, one whose
   lanes disagree does it and blends.  A skipped vector writes no slot
   and no z face, so the vector after it evaluates its lower z faces
   itself: zend, the c of the vector the kept z faces belong below,
   answers per vector.  Lane masks are -1 (set) or 0. */
#if W == 4
#include <immintrin.h>
#pragma GCC target("avx2")
typedef double vd __attribute__((vector_size(8 * W)));
typedef i64 vm __attribute__((vector_size(8 * W)));
#define ALL_LANES ((vm){-1, -1, -1, -1})
#define NO_LANES ((vm){0, 0, 0, 0})
BODY vd vload(const double *p) { vd v; memcpy(&v, p, sizeof v); return v; }
BODY void vstore(double *p, vd v) { memcpy(p, &v, sizeof v); }
BODY vd vsplat(double x) { return (vd){x, x, x, x}; }
BODY vm vlt(vd a, vd b) { return (vm)(a < b); }
BODY vm vgt(vd a, vd b) { return (vm)(a > b); }
BODY vm vle(vd a, vd b) { return (vm)(a <= b); }
BODY vm vge(vd a, vd b) { return (vm)(a >= b); }
/* the bits of x */
BODY vm vbits(vd x) { return (vm)x; }
/* every lane of m set; some lane of m set; lane 0 set */
BODY int vall(vm m) { return _mm256_movemask_pd((__m256d)m) == 0xF; }
BODY int vany(vm m) { return _mm256_movemask_pd((__m256d)m) != 0; }
BODY int lane0(vm m) { return m[0] != 0; }
BODY vd vabs(vd x) { return (vd)((vm)x & ~(vm)vsplat(-0.0)); }
/* m ? a : b, lane by lane */
BODY vd vblend(vm m, vd a, vd b) { return (vd)((m & (vm)a) | (~m & (vm)b)); }
BODY vd vsqrt(vd x) { return _mm256_sqrt_pd(x); }
/* The lower neighbours' values of a vector: prev's last lane, then the
   first W - 1 lanes of cur. */
BODY vd vbelow(vd prev, vd cur)
{
    return __builtin_shuffle(prev, cur, (vm){3, 4, 5, 6});
}
/* the lanes from lane k on */
BODY vm lanes_from(i64 k) { return (vm){0, 1, 2, 3} >= k; }
/* u[0..N) sorted descending per lane, in the order of an insertion sort:
   as compare-swaps, a swap moves the larger value up exactly where an
   insertion shifts. */
BODY void vsort_desc(const int N, vd *u)
{
    for (int a = 1; a < N; a++)
        for (int b = a - 1; b >= 0; b--) {
            const vm lt = vlt(u[b], u[b + 1]);
            const vd hi = vblend(lt, u[b + 1], u[b]);
            u[b + 1] = vblend(lt, u[b], u[b + 1]);
            u[b] = hi;
        }
}
#else
typedef double vd;
typedef i64 vm;
#define ALL_LANES ((vm)-1)
#define NO_LANES ((vm)0)
BODY vd vload(const double *p) { return *p; }
BODY void vstore(double *p, vd v) { *p = v; }
BODY vd vsplat(double x) { return x; }
BODY vm vlt(vd a, vd b) { return -(vm)(a < b); }
BODY vm vgt(vd a, vd b) { return -(vm)(a > b); }
BODY vm vle(vd a, vd b) { return -(vm)(a <= b); }
BODY vm vge(vd a, vd b) { return -(vm)(a >= b); }
BODY vm vbits(vd x) { vm m; memcpy(&m, &x, sizeof m); return m; }
BODY int vall(vm m) { return m != 0; }
BODY int vany(vm m) { return m != 0; }
BODY int lane0(vm m) { return m != 0; }
BODY vd vabs(vd x) { return fabs(x); }
BODY vd vblend(vm m, vd a, vd b) { return m ? a : b; }
BODY vd vsqrt(vd x) { return sqrt(x); }
BODY vd vbelow(vd prev, vd cur) { (void)cur; return prev; }
BODY vm lanes_from(i64 k) { return -(vm)(k <= 0); }
/* the insertion sort itself: its early stop is worth 5-10 % of the phi
   sweep over the compare-swaps */
BODY void vsort_desc(const int N, vd *u)
{
    for (int a = 1; a < N; a++) {
        const vd key = u[a];
        int b = a - 1;
        while (b >= 0 && u[b] < key) { u[b + 1] = u[b]; b--; }
        u[b + 1] = key;
    }
}
#endif
/* Whether a flag scan may stop at m: at W = 1 the scans stop at the
   first neighbour that settles the flag, as a cellwise loop does; four
   lanes scan every neighbour. */
#define SETTLED(m) (W == 1 && vall(m))

/* if (v < 0) v = 0; else if (v > 1) v = 1; */
BODY vd vclamp01(vd v)
{
    return vblend(vlt(v, vsplat(0.0)), vsplat(0.0),
                  vblend(vgt(v, vsplat(1.0)), vsplat(1.0), v));
}

/* The shortcut flags of the W cells from c, lane by lane (NaN compares
   false): diffuse, no phase of pc at or above 1 - TOL; active, the
   return value, diffuse or some phase of a face neighbour in p more than
   TOL from pc. */
BODY vm lanes_active(const int N, const int NAX, const double *p, i64 cs,
                     const i64 *off, i64 c, const vd *pc, vm *diffuse)
{
    vm dif = ALL_LANES;
    for (int a = 0; a < N; a++) dif &= ~vge(pc[a], vsplat(1.0 - TOL));
    vm act = dif;
    for (int d = 0; d < NAX && !vall(act); d++)
        for (int si = 0; si < 2 && !SETTLED(act); si++) {
            const i64 nb = c + (i64)(1 - 2 * si) * off[d];
            for (int a = 0; a < N && !SETTLED(act); a++)
                act |= vgt(vabs(vload(p + a * cs + nb) - pc[a]),
                           vsplat(TOL));
        }
    *diffuse = dif;
    return act;
}

/* The mu body's flags of the W cells from c: active, and front (active,
   with liquid above TOL at the cell or a face neighbour). */
BODY void lanes_front(const int N, const int NAX, const double *ps, i64 cs,
                      const i64 *off, int ell, i64 c, vm *active, vm *front)
{
    vd pc[MAXN];
    vm dif;
    for (int a = 0; a < N; a++) pc[a] = vload(ps + a * cs + c);
    *active = lanes_active(N, NAX, ps, cs, off, c, pc, &dif);
    if (SETTLED(~*active)) {
        *front = NO_LANES;
        return;
    }
    const double *pl = ps + ell * cs;
    vm near = vgt(vload(pl + c), vsplat(TOL));
    for (int d = 0; d < NAX && !SETTLED(near); d++)
        near |= vgt(vload(pl + c + off[d]), vsplat(TOL))
            | vgt(vload(pl + c - off[d]), vsplat(TOL));
    *front = near & *active;
}
/* ------------------------------------------------------------------ */
/* phi sweep (Eqs. 1-2)                                                */
/* ------------------------------------------------------------------ */

/* dA/d(grad phi_a) through the W faces between lower and upper cells,
   oriented along +d. */
BODY void phi_face(const int N, const vd *lo, const vd *up,
                   double g2[MAXN][MAXN], double inv_dx, vd *f)
{
    vd avg[MAXN], dd[MAXN];
    for (int a = 0; a < N; a++) {
        avg[a] = 0.5 * (lo[a] + up[a]);
        dd[a] = (up[a] - lo[a]) * inv_dx;
    }
    for (int a = 0; a < N; a++) {
        vd acc = vsplat(0.0);
        for (int b = 0; b < N; b++) {
            if (b == a || g2[a][b] == 0.0) continue;
            acc += g2[a][b]
                * (avg[b] * avg[b] * dd[a] - avg[a] * avg[b] * dd[b]);
        }
        f[a] = acc;
    }
}

/* Lines [p_lo, p_hi) of the (i0, i1) plane, W cells at a time (lines of
   >= W cells), with private face buffers: fbuf[comp * slots + slot]
   written by the cell stamp[slot]. */
BODY void phi_lines(const int N, const int K, const int NAX,
                    const phi_args *A, i64 p_lo, i64 p_hi,
                    double *fbuf, i64 *stamp)
{
    const double *phi = A->phi, *mu = A->mu, *tg = A->tg;
#if TZ
    const double *cmin_z = A->cmin_z, *lat_z = A->lat_z;
#else
    /* the rows of the line being swept, in the scratch after the stamps */
    double *const cmin_z = (double *)(stamp + A->slots);
    double *const lat_z = cmin_z + A->n2 * N * K;
#endif
    double *out = A->out;
    const i64 n1 = A->n1, n2 = A->n2, slots = A->slots;
    const i64 g1 = n1 + 2, g2 = n2 + 2;
    const i64 cs = (NAX == 3 ? A->n0 + 2 : 1) * g1 * g2;
    const i64 ocs = A->n0 * n1 * n2;
    const double eps = A->eps, gt = A->gt;
    const double inv_dx = 1.0 / A->dx, inv_2dx = 1.0 / (2.0 * A->dx);
    const int shortcuts = A->shortcuts;
    i64 off[3] = {g2, 1, 0};
    if (NAX == 3) { off[0] = g1 * g2; off[1] = g2; off[2] = 1; }

    /* sweep constants, local so that no store can alias them */
    double gam2[MAXN][MAXN], gamw[MAXN][MAXN], rate[MAXN];
    double ic[MAXN][MAXK][MAXK];
    phi_constants(N, K, A, gam2, gamw, rate, ic);

    for (i64 p01 = p_lo; p01 < p_hi; p01++) {
        const i64 i0 = p01 / n1;
        const i64 i1 = p01 - i0 * n1;
        const i64 base01 =
            NAX == 3 ? ((i0 + 1) * g1 + (i1 + 1)) * g2 : (i1 + 1) * g2;
#if !TZ
        phi_rows(N, K, A, cmin_z, lat_z);
#endif
        /* upper z faces of the last vector: the lower z faces of the
           vector from zend */
        vd zup[MAXN];
        i64 zend = -1;
        for (i64 j = 0; j < n2; j += W) {
            const i64 i2 = j + W <= n2 ? j : n2 - W;
            const int tail = i2 != j;
            const i64 c = base01 + i2 + 1;
            const i64 oc = p01 * n2 + i2;
            vd pc[MAXN], pp[3][MAXN], pm[3][MAXN], mu_c[MAXK];
            vd grad[3][MAXN], face[2][MAXN];
            vd rhs[MAXN], psi[MAXN], vnew[MAXN], u[MAXN];
            for (int a = 0; a < N; a++) pc[a] = vload(phi + a * cs + c);
            vm diffuse = ALL_LANES, active = ALL_LANES;
            if (shortcuts) {
                active = lanes_active(N, NAX, phi, cs, off, c, pc, &diffuse);
                if (!vany(active)) {
                    /* bulk with uniform neighbourhood: a fixed point */
                    for (int a = 0; a < N; a++)
                        vstore(out + a * ocs + oc, pc[a]);
                    continue;
                }
            }
            for (int i = 0; i < K; i++) mu_c[i] = vload(mu + i * cs + c);
            /* neighbours and centred phase gradients */
            for (int d = 0; d < NAX; d++)
                for (int a = 0; a < N; a++) {
                    pp[d][a] = vload(phi + a * cs + c + off[d]);
                    pm[d][a] = vload(phi + a * cs + c - off[d]);
                    grad[d][a] = (pp[d][a] - pm[d][a]) * inv_2dx;
                }

            /* dA/dphi_a */
            for (int a = 0; a < N; a++) {
                vd acc = vsplat(0.0);
                for (int b = 0; b < N; b++) {
                    if (b == a || gam2[a][b] == 0.0) continue;
                    vd dot = vsplat(0.0);
                    for (int d = 0; d < NAX; d++)
                        dot += (pc[a] * grad[d][b]
                                - pc[b] * grad[d][a]) * grad[d][b];
                    acc += gam2[a][b] * dot;
                }
                rhs[a] = acc;
            }

            /* - div(dA/d grad phi_a): lower faces kept by the cells
               below where they left them, upper faces kept */
            for (int d = 0; d < NAX; d++) {
                phi_face(N, pc, pp[d], gam2, inv_dx, face[1]);
#if !STAGGER
                /* stagger off: the lower face evaluated here as well */
                phi_face(N, pm[d], pc, gam2, inv_dx, face[0]);
#else
                if (d == NAX - 1) {
                    if (zend == c)
                        for (int a = 0; a < N; a++)
                            face[0][a] = vbelow(zup[a], face[1][a]);
                    else
                        phi_face(N, pm[d], pc, gam2, inv_dx, face[0]);
                    for (int a = 0; a < N; a++) zup[a] = face[1][a];
                    zend = c + W;
                } else {
                    const i64 slot = face_slot(NAX, d, n2, i1, i2);
                    if (!tail && stamp[slot] == c - off[d])
                        for (int a = 0; a < N; a++)
                            face[0][a] = vload(fbuf + a * slots + slot);
                    else
                        phi_face(N, pm[d], pc, gam2, inv_dx, face[0]);
                    for (int a = 0; a < N; a++)
                        vstore(fbuf + a * slots + slot, face[1][a]);
                    for (int l = 0; l < W; l++) stamp[slot + l] = c + l;
                }
#endif
                for (int a = 0; a < N; a++) {
                    rhs[a] -= face[1][a] * inv_dx;
                    rhs[a] += face[0][a] * inv_dx;
                }
            }

            const vd t = vload(tg + i2 + 1);
            for (int a = 0; a < N; a++) rhs[a] *= t * eps;

            /* obstacle potential dW/dphi_a */
            for (int a = 0; a < N; a++) {
                vd acc = vsplat(0.0);
                for (int b = 0; b < N; b++)
                    if (b != a) acc += gamw[a][b] * pc[b];
                if (gt != 0.0) {
                    vd acc3 = vsplat(0.0);
                    for (int b = 0; b < N; b++) {
                        if (b == a) continue;
                        for (int e = b + 1; e < N; e++) {
                            if (e == a) continue;
                            acc3 += pc[b] * pc[e];
                        }
                    }
                    acc += gt * acc3;
                }
                rhs[a] += (t / eps) * acc;
            }

            /* driving force, added on the diffuse lanes */
            if (vany(diffuse)) {
                vd sq_sum = vsplat(0.0);
                for (int a = 0; a < N; a++) sq_sum += pc[a] * pc[a];
                sq_sum += 1e-300;
                for (int a = 0; a < N; a++) {
                    vd quad = vsplat(0.0);
                    for (int i = 0; i < K; i++) {
                        quad += ic[a][i][i] * mu_c[i] * mu_c[i];
                        for (int j2 = i + 1; j2 < K; j2++)
                            quad += 2.0 * ic[a][i][j2] * mu_c[i] * mu_c[j2];
                    }
                    vd lin = vsplat(0.0);
                    for (int i = 0; i < K; i++)
                        lin += mu_c[i]
                            * vload(cmin_z + (a * K + i) * n2 + i2);
                    psi[a] = -0.5 * quad - lin + vload(lat_z + a * n2 + i2);
                }
                vd weighted = vsplat(0.0);
                for (int a = 0; a < N; a++)
                    weighted += pc[a] * pc[a] * psi[a];
                weighted /= sq_sum;
                for (int a = 0; a < N; a++) {
                    const vd sum =
                        rhs[a] + (2.0 / sq_sum) * pc[a] * (psi[a] - weighted);
                    rhs[a] = vall(diffuse) ? sum
                        : vblend(diffuse, sum, rhs[a]);
                }
            }

            /* Lagrange term, explicit Euler, simplex projection */
            vd mean = vsplat(0.0);
            for (int a = 0; a < N; a++) mean += rhs[a];
            mean /= (double)N;
            for (int a = 0; a < N; a++)
                vnew[a] = pc[a] - rate[a] * (rhs[a] - mean);

            /* Michelot/Condat: sort desc, last positive pivot, clip */
            for (int a = 0; a < N; a++) u[a] = vnew[a];
            vsort_desc(N, u);
            vd css = vsplat(0.0), theta = vsplat(0.0);
            for (int a = 0; a < N; a++) {
                css += u[a];
                const vd cand = u[a] + (1.0 - css) / (double)(a + 1);
                theta = vblend(vgt(cand, vsplat(0.0)),
                               (1.0 - css) / (a + 1.0), theta);
            }
            /* inactive lanes copy through */
            for (int a = 0; a < N; a++) {
                const vd x = vnew[a] + theta;
                const vd y = vblend(vgt(x, vsplat(0.0)), x, vsplat(0.0));
                vstore(out + a * ocs + oc,
                       vall(active) ? y : vblend(active, y, pc[a]));
            }
        }
    }
}

#if W == 1
/* ------------------------------------------------------------------ */
/* entry points (the W = 1 unit)                                       */
/* ------------------------------------------------------------------ */

/* GNU OpenMP's worker team does not survive a fork: a process forked
   after this library ran a team of more than one thread would wait for
   it in its first parallel region.  Such a process runs every sweep on
   one thread. */
static int team_ran = 0, forked_after_team = 0;

static void after_fork_in_child(void)
{
    forked_after_team = team_ran;
}

__attribute__((constructor)) static void watch_forks(void)
{
    pthread_atfork(NULL, NULL, after_fork_in_child);
}

int repro_forked_after_team(void)
{
    return forked_after_team;
}

int repro_num_threads(void)
{
#ifdef _OPENMP
    return forked_after_team ? 1 : omp_get_max_threads();
#else
    return 1;
#endif
}

/* Lanes of the sweeps: 4 on a host with AVX2, else 1.  Chosen at load;
   set_simd(0) selects the W = 1 compile everywhere. */
static int lanes = 1;

int repro_set_simd(int on)
{
#if SIMD
    __builtin_cpu_init();
    lanes = on && __builtin_cpu_supports("avx2") ? 4 : 1;
#else
    (void)on;
#endif
    return lanes;
}

int repro_simd_width(void)
{
    return lanes;
}

/* The W = 4 compile runs the shipped instantiations, with or without
   shortcuts (a run-time flag of the body), on lines of at least four
   cells. */
static int four_cell(int N, int K, i64 n2)
{
    return lanes == 4 && N == 4 && K == 2 && n2 >= 4;
}

/* Threads of a sweep: each gets a contiguous share of the (i0, i1)
   lines, so never more threads than lines. */
static int team_size(i64 lines)
{
    const i64 t = repro_num_threads();
    return (int)(t < lines ? t : (lines > 0 ? lines : 1));
}

static i64 face_slots(int nax, i64 n1, i64 n2)
{
    return n2 + (nax == 3 ? n1 * n2 : 0);
}

GENERIC void phi_generic(const phi_args *A, i64 lo, i64 hi,
                         double *fbuf, i64 *stamp)
{
    phi_lines(A->N, A->K, A->nax, A, lo, hi, fbuf, stamp);
}

/* One thread's share of the sweep: its lines, its face buffer and
   stamps, the width and instantiation that fit. */
SHARE void phi_share(const phi_args *A, i64 tid, i64 nt)
{
    const i64 lines = A->n0 * A->n1;
    const i64 lo = lines * tid / nt, hi = lines * (tid + 1) / nt;
    double *fbuf = A->scratch + tid * A->per_thread;
    i64 *stamp = (i64 *)(fbuf + A->slots * A->N);
    for (i64 s = 0; s < A->slots; s++) stamp[s] = -1;
#if SIMD
    if (A->simd)
        phi_share_4(A, lo, hi, fbuf, stamp);
    else
#endif
    if (A->N == 4 && A->K == 2 && A->nax == 3)
        phi_lines(4, 2, 3, A, lo, hi, fbuf, stamp);
    else if (A->N == 4 && A->K == 2)
        phi_lines(4, 2, 2, A, lo, hi, fbuf, stamp);
    else
        phi_generic(A, lo, hi, fbuf, stamp);
}

int repro_phi_step(
    const double *phi, const double *mu, const double *tg, double *out,
    const i64 *geom, const double *scal,
    const double *gamma, const double *tau, const double *inv_curv,
    const double *c_eq, const double *c_slope, const double *latent,
    const double *diff, int shortcuts)
{
    const int nax = geom[0] ? 3 : 2;
    const i64 n0 = geom[1], n1 = geom[2], n2 = geom[3];
    const int N = (int)geom[4], K = (int)geom[5];
    const double t_eut = scal[4];
    const i64 slots = face_slots(nax, n1, n2);
    const int team = team_size(n0 * n1);
    (void)diff;

    /* per call: T(z) tables, then each thread's face buffer + stamps */
#if TZ
    const i64 per_thread = slots * (N + 1);
#else
    /* ... + the T(z) rows of its line */
    const i64 per_thread = slots * (N + 1) + n2 * N * (K + 1);
#endif
    double *mem = (double *)malloc(
        (size_t)(n2 * N * (K + 1) + team * per_thread) * sizeof(double));
    if (!mem) return 1;
    double *cmin_z = mem, *lat_z = cmin_z + n2 * N * K;
    for (i64 iz = 0; iz < n2; iz++) {
        const double dT = tg[iz + 1] - t_eut;
        for (int a = 0; a < N; a++) {
            lat_z[a * n2 + iz] = latent[a] * dT;
            for (int i = 0; i < K; i++)
                cmin_z[(a * K + i) * n2 + iz] =
                    c_eq[a * K + i] + c_slope[a * K + i] * dT;
        }
    }
    const phi_args A = {
        .phi = phi, .mu = mu, .tg = tg, .gamma = gamma, .tau = tau,
        .inv_curv = inv_curv, .cmin_z = cmin_z, .lat_z = lat_z, .out = out,
#if !TZ
        .c_eq = c_eq, .c_slope = c_slope, .latent = latent, .t_eut = t_eut,
#endif
        .scratch = lat_z + n2 * N, .n0 = n0, .n1 = n1, .n2 = n2,
        .slots = slots, .per_thread = per_thread,
        .dx = scal[0], .dt = scal[1], .eps = scal[2], .gt = scal[3],
        .N = N, .K = K, .nax = nax, .shortcuts = shortcuts,
        .simd = four_cell(N, K, n2),
    };
#ifdef _OPENMP
    if (team > 1) {
        __atomic_store_n(&team_ran, 1, __ATOMIC_RELAXED);
#pragma omp parallel num_threads(team)
        phi_share(&A, omp_get_thread_num(), omp_get_num_threads());
    } else
#endif
        phi_share(&A, 0, 1);
    free(mem);
    return 0;
}

#else
/* The shares of the W = 4 unit: the shipped instantiations. */
UNIT void phi_share_4(const phi_args *A, i64 lo, i64 hi,
                      double *fbuf, i64 *stamp)
{
    if (A->nax == 3)
        phi_lines(4, 2, 3, A, lo, hi, fbuf, stamp);
    else
        phi_lines(4, 2, 2, A, lo, hi, fbuf, stamp);
}
#endif

/* ------------------------------------------------------------------ */
/* mu sweep (Eqs. 3-4)                                                 */
/* ------------------------------------------------------------------ */

#if GCC_OPTIONS
/* Unswitching the mu body's uniform mode flags would double its
   compile time and gains no measurable speed. */
#pragma GCC optimize("no-unswitch-loops")
#endif

/* Exact-zero skips.  The mu body leaves out two terms where they are
   +-0 on all W lanes:
   * the anti-trapping term of a solid phase a through a face where
     phi_f[a] * phi_f[ell] == 0 (its amplitude is a zero factor), and
     the liquid normal with it when no phase is left;
   * the phase-change source of a cell vector whose phi_dst equals
     phi_src bitwise (h_new is h_old, dh is 0); h_new is reused.
   A flux or rhs starts at +0.0 and a sum that starts there is never
   -0.0, so subtracting +-0 leaves it bitwise unchanged.  A zero factor
   gives +-0 only if every other factor is finite (0 * inf and 0 * NaN
   are NaN), so a lane skips only when every value the term reads is
   tame: |value| <= TAME for the phi, phi_dst and mu values read, its
   stencils and ghosts included, and for the sweep constants, which
   keeps every product the term forms below 2^500.  NaN is never tame;
   a term with an untame lane is evaluated in full. */
#define TAME 0x1p240

/* Whether the sweep constants a skipped term reads are tame: 1/dx,
   1/dt, the anti-trapping prefactor, the inverse curvatures and the
   T(z) tables of the call. */
BODY int tame_constants(const int N, const int K, const mu_args *A,
                        const mu_face_env *E)
{
    double m = fabs(E->inv_dx) + fabs(E->inv_2dx) + fabs(E->pref_at)
        + 1.0 / fabs(E->dt);
    for (int a = 0; a < N; a++)
        for (int i = 0; i < K; i++)
            for (int j = 0; j < K; j++) m += fabs(E->ic[a][i][j]);
    for (i64 k = 0; k < A->n2 * N * K; k++) m += fabs(A->cmin_c[k]);
    for (i64 k = 0; k < (A->n2 + 1) * N * K; k++) m += fabs(A->cmin_f[k]);
    return m <= TAME;
}

/* Whether the n >= W values from p are tame. */
BODY vm tame_span(const double *p, i64 n)
{
    const vd big = vsplat(TAME);
    vm ok = vle(vabs(vload(p + n - W)), big);
    for (i64 k = 0; k + W <= n; k += W) ok &= vle(vabs(vload(p + k)), big);
    return ok;
}

/* Whether the n values from ghosted cell `first` on are tame in every
   component of phi_src, phi_dst and mu. */
BODY int tame_cells(const int N, const int K, const mu_face_env *E,
                    i64 first, i64 n)
{
    vm ok = ALL_LANES;
    for (int a = 0; a < N; a++)
        ok &= tame_span(E->ps + a * E->cs + first, n)
            & tame_span(E->pd + a * E->cs + first, n);
    for (int i = 0; i < K; i++)
        ok &= tame_span(E->mu + i * E->cs + first, n);
    return vall(ok);
}

/* Whether a cell vector's h_old (in [0, 1] or NaN) and mu are tame. */
BODY int tame_centre(const int N, const int K, const vd *h, const vd *mu)
{
    vd m = vsplat(0.0);
    for (int a = 0; a < N; a++) m += h[a];
    for (int i = 0; i < K; i++) m += vabs(mu[i]);
    return vall(vle(m, vsplat(TAME)));
}

/* M grad mu through the W faces from cl.. (lower) to cu.. (upper),
   oriented along +d, added to flux. */
BODY void mu_face_diffusive(const int N, const int K, const mu_face_env *E,
                            i64 cl, i64 cu, vd *flux)
{
    const i64 cs = E->cs;
    vd dmu[MAXK];
    for (int i = 0; i < K; i++)
        dmu[i] = (vload(E->mu + i * cs + cu) - vload(E->mu + i * cs + cl))
            * E->inv_dx;
    for (int a = 0; a < N; a++) {
        const vd w = vclamp01(
            0.5 * (vload(E->ps + a * cs + cl) + vload(E->ps + a * cs + cu)));
        for (int i = 0; i < K; i++) {
            vd acc = vsplat(0.0);
            for (int j = 0; j < K; j++) acc += E->ic[a][i][j] * dmu[j];
            flux[i] += w * E->diff[a] * acc;
        }
    }
}

/* Unit normal of one phase at the faces (cl, cu) along axis d: the face
   difference along d, the mean of the two centred differences across. */
BODY void face_normal(const int NAX, const mu_face_env *E, const double *p,
                      int d, i64 cl, i64 cu, vd *n)
{
    vd g[3], nsq = vsplat(0.0);
    for (int e = 0; e < NAX; e++) {
        if (e == d) {
            g[e] = (vload(p + cu) - vload(p + cl)) * E->inv_dx;
        } else {
            const i64 oe = E->off[e];
            g[e] = 0.5 * ((vload(p + cl + oe) - vload(p + cl - oe))
                          * E->inv_2dx
                          + (vload(p + cu + oe) - vload(p + cu - oe))
                          * E->inv_2dx);
        }
        nsq += g[e] * g[e];
    }
    const vd norm = vsqrt(nsq);
    const vm big = vgt(norm, vsplat(GRAD_TOL));
    for (int e = 0; e < NAX; e++)
        n[e] = vblend(big, g[e] / norm, vsplat(0.0));
}

/* Anti-trapping current through the same faces, subtracted from flux;
   the T(z) coefficients of (a, i) are the vector at
   cm + (a * K + i) * cstride.  The term of a solid phase a whose
   amplitude sqrt(phi_f[a] phi_f[ell]) is 0 on every lane is +-0 there
   and is left out, when every value it reads is tame. */
BODY void mu_face_antitrapping(const int N, const int K, const int NAX,
                               const mu_face_env *E, int d, i64 cl, i64 cu,
                               const double *cm, i64 cstride, vd *flux)
{
    const i64 cs = E->cs;
    const int ell = E->ell;
    vd lo[MAXN], up[MAXN], phi_f[MAXN], mu_f[MAXK];
    vd nl[3], na[3], c_l[MAXK];
    vd sqs = vsplat(0.0);
    for (int a = 0; a < N; a++) {
        lo[a] = vload(E->ps + a * cs + cl);
        up[a] = vload(E->ps + a * cs + cu);
        const vd v = vclamp01(0.5 * (lo[a] + up[a]));
        phi_f[a] = v;
        sqs += v * v;
    }
    sqs += 1e-300;
    int live[MAXN], nlive = 0;
    for (int a = 0; a < N; a++) {
        live[a] = a != ell
            && (!E->tame
                || !vall((vm)(phi_f[a] * phi_f[ell] == 0.0)));
        nlive += live[a];
    }
    if (!nlive) return;
    for (int i = 0; i < K; i++)
        mu_f[i] = 0.5 * (vload(E->mu + i * cs + cl)
                         + vload(E->mu + i * cs + cu));
    face_normal(NAX, E, E->ps + ell * cs, d, cl, cu, nl);
    /* c_l(mu_f, T_face) */
    for (int i = 0; i < K; i++) {
        vd acc = vsplat(0.0);
        for (int j = 0; j < K; j++) acc += E->ic[ell][i][j] * mu_f[j];
        c_l[i] = vload(cm + (ell * K + i) * cstride) + acc;
    }
    for (int a = 0; a < N; a++) {
        if (!live[a]) continue;
        face_normal(NAX, E, E->ps + a * cs, d, cl, cu, na);
        const vd dphidt_f = 0.5 * ((vload(E->pd + a * cs + cl) - lo[a])
                                   + (vload(E->pd + a * cs + cu) - up[a]))
            / E->dt;
        const vd amp = vsqrt(phi_f[a] * phi_f[ell]) * phi_f[ell] / sqs;
        vd dot = vsplat(0.0);
        for (int e = 0; e < NAX; e++) dot += na[e] * nl[e];
        const vd scalf = E->pref_at * amp * dphidt_f * dot * na[d];
        for (int i = 0; i < K; i++) {
            vd c_ai = vload(cm + (a * K + i) * cstride);
            for (int j = 0; j < K; j++) c_ai += E->ic[a][i][j] * mu_f[j];
            flux[i] -= scalf * (c_l[i] - c_ai);
        }
    }
}

/* Where the mu body keeps the faces a vector leaves for the cells above
   it.  A face has two versions: 0, the diffusive flux (0 under only_at),
   and 1, that flux continued with the anti-trapping current ("continued,
   never re-summed").  Per version v: the x/y slots fb[v] with their
   stamps st[v], and the upper z faces z[v] of the last vector, valid as
   the lower z faces of the vector from zend[v]. */
typedef struct {
    double *fb[2];
    i64 *st[2];
    vd z[2][MAXK];
    i64 zend[2];
} mu_kept;

/* Version v of the lower faces of the W cells from c along d, if the
   cells below kept it: shifted in from up (this vector's upper z faces
   in version v) and z[v], or loaded from the slots.  A vector keeps all
   W slots of a version or none, so lane 0's stamp answers for it. */
BODY int kept_below(const int K, const int NAX, const mu_kept *P, int v,
                    int d, i64 slots, i64 slot, i64 c, i64 cl, int tail,
                    const vd *up, vd *lo)
{
#if STAGGER
    if (d == NAX - 1) {
        if (P->zend[v] != c) return 0;
        for (int i = 0; i < K; i++) lo[i] = vbelow(P->z[v][i], up[i]);
    } else {
        if (tail || P->st[v][slot] != cl) return 0;
        for (int i = 0; i < K; i++)
            lo[i] = vload(P->fb[v] + i * slots + slot);
    }
    return 1;
#else
    return 0;  /* stagger off: every cell evaluates its lower faces */
#endif
}

/* Keep version v of the upper faces up of the W cells from c. */
BODY void keep_above(const int K, const int NAX, mu_kept *P, int v, int d,
                     i64 slots, i64 slot, i64 c, const vd *up)
{
#if STAGGER
    if (d == NAX - 1) {
        for (int i = 0; i < K; i++) P->z[v][i] = up[i];
        P->zend[v] = c + W;
    } else {
        for (int i = 0; i < K; i++) vstore(P->fb[v] + i * slots + slot, up[i]);
        for (int l = 0; l < W; l++) P->st[v][slot + l] = c + l;
    }
#endif
}

/* The face terms of the W cells from c, added to rhs (per axis the
   upper face, then the lower one), when every lane takes version v:
   only that version is evaluated, in place.  Version 0 is kept as well
   when keep0. */
BODY void mu_faces_one(const int N, const int K, const int NAX,
                       const mu_face_env *E, const mu_args *A, mu_kept *P,
                       int keep0, int v, i64 c, i64 i1, i64 i2, int tail,
                       vd *rhs)
{
    const i64 n2 = A->n2, slots = A->slots;
    const int diffusive = !A->only_at;
    for (int d = 0; d < NAX; d++) {
        const int z = d == NAX - 1;
        /* T(z) rows: z faces below and above, or the centres */
        const double *cm = z ? A->cmin_f + i2 : A->cmin_c + i2;
        const i64 cstride = z ? n2 + 1 : n2;
        const i64 cl = c - E->off[d], slot = face_slot(NAX, d, n2, i1, i2);
        vd up[MAXK], lo[MAXK];
        /* lo holds version v of the lower faces (have) or version 0 to
           continue (base); x/y slots are read before they are refilled */
        int have = 0, base = 0;
        if (!z) {
            have = kept_below(K, NAX, P, v, d, slots, slot, c, cl, tail,
                              up, lo);
            if (!have && v)
                base = kept_below(K, NAX, P, 0, d, slots, slot, c, cl, tail,
                                  up, lo);
        }
        for (int i = 0; i < K; i++) up[i] = vsplat(0.0);
        if (diffusive) mu_face_diffusive(N, K, E, c, c + E->off[d], up);
        if (z) {
            base = kept_below(K, NAX, P, 0, d, slots, slot, c, cl, tail,
                              up, lo);
            have = !v && base;
        }
        if (keep0) keep_above(K, NAX, P, 0, d, slots, slot, c, up);
        if (v) {
            mu_face_antitrapping(N, K, NAX, E, d, c, c + E->off[d],
                                 cm + z, cstride, up);
            if (z)
                have = kept_below(K, NAX, P, 1, d, slots, slot, c, cl, tail,
                                  up, lo);
            keep_above(K, NAX, P, 1, d, slots, slot, c, up);
        }
        if (!have) {
            if (!base) {
                for (int i = 0; i < K; i++) lo[i] = vsplat(0.0);
                if (diffusive) mu_face_diffusive(N, K, E, cl, c, lo);
            }
            if (v)
                mu_face_antitrapping(N, K, NAX, E, d, cl, c, cm, cstride,
                                     lo);
        }
        for (int i = 0; i < K; i++) {
            rhs[i] += up[i] * E->inv_dx;
            rhs[i] -= lo[i] * E->inv_dx;
        }
    }
}

/* What each lane takes: version 1 where want has it, else version 0. */
BODY void take(const int K, vm want, int any, int all, vd f[2][MAXK],
               vd *flux)
{
    for (int i = 0; i < K; i++)
        flux[i] = all ? f[1][i] : any ? vblend(want, f[1][i], f[0][i])
                                      : f[0][i];
}

/* mu_faces_one for a vector whose lanes, or whose last lane and the
   next vector's first, disagree: version 0 is evaluated and kept, and
   version 1 where some lane takes it (next_wants: the next vector's
   first lane, which takes the last upper z face as its lower one). */
BODY void mu_faces_two(const int N, const int K, const int NAX,
                       const mu_face_env *E, const mu_args *A, mu_kept *P,
                       vm want, int any, int all, int next_wants, i64 c,
                       i64 i1, i64 i2, int tail, vd *rhs)
{
    const i64 n2 = A->n2, slots = A->slots;
    for (int d = 0; d < NAX; d++) {
        const int z = d == NAX - 1;
        const double *cm = z ? A->cmin_f + i2 : A->cmin_c + i2;
        const i64 cstride = z ? n2 + 1 : n2;
        const i64 cl = c - E->off[d], slot = face_slot(NAX, d, n2, i1, i2);
        const int full = any || (z && next_wants);
        vd up[2][MAXK], lo[2][MAXK], face[2][MAXK];
        int have0 = 0, have1 = 0;
        if (!z) {
            have1 = any && kept_below(K, NAX, P, 1, d, slots, slot, c, cl,
                                      tail, up[1], lo[1]);
            have0 = kept_below(K, NAX, P, 0, d, slots, slot, c, cl, tail,
                               up[0], lo[0]);
        }
        for (int i = 0; i < K; i++) up[0][i] = vsplat(0.0);
        mu_face_diffusive(N, K, E, c, c + E->off[d], up[0]);
        for (int i = 0; i < K; i++) up[1][i] = up[0][i];
        if (full)
            mu_face_antitrapping(N, K, NAX, E, d, c, c + E->off[d],
                                 cm + z, cstride, up[1]);
        if (z) {
            have0 = kept_below(K, NAX, P, 0, d, slots, slot, c, cl, tail,
                               up[0], lo[0]);
            have1 = any && kept_below(K, NAX, P, 1, d, slots, slot, c, cl,
                                      tail, up[1], lo[1]);
        }
        keep_above(K, NAX, P, 0, d, slots, slot, c, up[0]);
        if (full) keep_above(K, NAX, P, 1, d, slots, slot, c, up[1]);
        if (!have0) {
            for (int i = 0; i < K; i++) lo[0][i] = vsplat(0.0);
            mu_face_diffusive(N, K, E, cl, c, lo[0]);
        }
        if (any && !have1) {
            for (int i = 0; i < K; i++) lo[1][i] = lo[0][i];
            mu_face_antitrapping(N, K, NAX, E, d, cl, c, cm, cstride,
                                 lo[1]);
        }
        take(K, want, any, all, up, face[1]);
        take(K, want, any, all, lo, face[0]);
        for (int i = 0; i < K; i++) {
            rhs[i] += face[1][i] * E->inv_dx;
            rhs[i] -= face[0][i] * E->inv_dx;
        }
    }
}

/* mu_faces_two out of line, instantiated: a vector whose lanes disagree
   is rare (the edges of the front), and the sweep loop keeps its
   registers for the common one. */
#define MIXED_FACES(NAME, ATTR, N_, K_, NAX_)                               \
    ATTR void NAME(const mu_face_env *E, const mu_args *A, mu_kept *P,      \
                   vm want, int any, int all, int next_wants, i64 c,        \
                   i64 i1, i64 i2, int tail, vd *rhs)                       \
    {                                                                       \
        mu_faces_two(N_, K_, NAX_, E, A, P, want, any, all, next_wants, c,  \
                     i1, i2, tail, rhs);                                    \
    }
MIXED_FACES(mu_faces_two_3, SHARE, 4, 2, 3)
MIXED_FACES(mu_faces_two_2, SHARE, 4, 2, 2)
#if W == 1
MIXED_FACES(mu_faces_two_g, GENERIC, A->N, A->K, A->nax)

/* chi sol = rhs for K != 2 (the W = 4 unit runs K = 2 only): Gaussian
   elimination with partial pivoting. */
BODY void chi_solve(const int N, const int K, const mu_face_env *E,
                    const double *h, const double *rhs, double *sol)
{
    double chi[MAXK][MAXK];
    for (int i = 0; i < K; i++) {
        for (int j = 0; j < K; j++) {
            double acc = 0.0;
            for (int a = 0; a < N; a++) acc += h[a] * E->ic[a][i][j];
            chi[i][j] = acc;
        }
        sol[i] = rhs[i];
    }
    for (int col = 0; col < K; col++) {
        int piv = col;
        for (int r = col + 1; r < K; r++)
            if (fabs(chi[r][col]) > fabs(chi[piv][col])) piv = r;
        if (piv != col) {
            for (int j = 0; j < K; j++) {
                const double tmp = chi[col][j];
                chi[col][j] = chi[piv][j];
                chi[piv][j] = tmp;
            }
            const double tmp = sol[col];
            sol[col] = sol[piv];
            sol[piv] = tmp;
        }
        for (int r = col + 1; r < K; r++) {
            const double f = chi[r][col] / chi[col][col];
            for (int j = col; j < K; j++) chi[r][j] -= f * chi[col][j];
            sol[r] -= f * sol[col];
        }
    }
    for (int col = K - 1; col >= 0; col--) {
        double acc = sol[col];
        for (int j = col + 1; j < K; j++) acc -= chi[col][j] * sol[j];
        sol[col] = acc / chi[col][col];
    }
}
#endif

/* Lines [p_lo, p_hi) of the (i0, i1) plane, W cells at a time (lines of
   >= W cells), with private face buffers (mu_kept). */
BODY void mu_lines(const int N, const int K, const int NAX,
                   const mu_args *A, i64 p_lo, i64 p_hi,
                   double *fdiff, double *ffull, i64 *sdiff, i64 *sfull)
{
    const double *mu = A->mu, *phi_src = A->phi_src, *phi_dst = A->phi_dst;
    const double *t_old = A->t_old, *t_new = A->t_new;
#if TZ
    const double *cmin_c = A->cmin_c;
#endif
    double *out = A->out;
    const i64 n1 = A->n1, n2 = A->n2;
    const i64 g1 = n1 + 2, g2 = n2 + 2;
    const i64 cs = (NAX == 3 ? A->n0 + 2 : 1) * g1 * g2;
    const i64 ocs = A->n0 * n1 * n2;
    const double dt = A->dt;
    const int only_at = A->only_at, shortcuts = A->shortcuts;
    const int diffusive = !only_at;
    const int at = A->anti_trapping && A->include_at;
    /* without shortcuts every lane of a call takes the same version */
    const int keep0 = diffusive && (shortcuts || !at);
    /* the front flag matters where a lane may take anti-trapping; else
       the active flag alone, where the source is evaluated */
    const int flag_front = shortcuts && A->anti_trapping
        && (A->include_at || only_at);

    /* sweep constants, local so that no store can alias them */
    mu_face_env E;
    double c_slope[MAXN][MAXK];
    mu_constants(N, K, NAX, A, &E, c_slope);
    const int tame = tame_constants(N, K, A, &E);
#if !TZ
    /* the rows of the line being swept, in the scratch after the stamps:
       the faces and the source read them, the check above read the
       per-call tables */
    mu_args R = *A;
    double *const rows = (double *)(sfull + A->slots);
    R.cmin_c = rows;
    R.cmin_f = rows + n2 * N * K;
    A = &R;
    const double *cmin_c = rows;
#endif
    const i64 *off = E.off;
    mu_kept P = {.fb = {fdiff, ffull}, .st = {sdiff, sfull}};
    /* A line reads three units (x-planes in 3-D, y-lines in 2-D) of the
       ghosted fields: its own and one on either side.  Its anti-trapping
       skips need all three tame.  Each unit is scanned once before its
       first reader; in 3-D the plane after a line's three is scanned in
       n1 slices, one per line of the plane before it. */
    const i64 unit = NAX == 3 ? g1 * g2 : g2;
    const i64 units = NAX == 3 ? A->n0 + 2 : g1;
    i64 scanned = NAX == 3 ? p_lo / n1 : p_lo, untame = -1;

    for (i64 p01 = p_lo; p01 < p_hi; p01++) {
        const i64 i0 = p01 / n1;
        const i64 i1 = p01 - i0 * n1;
        const i64 base01 =
            NAX == 3 ? ((i0 + 1) * g1 + (i1 + 1)) * g2 : (i1 + 1) * g2;
        if (at) {
            const i64 u = NAX == 3 ? i0 : i1;  /* ghosted units u..u+2 */
            for (; scanned <= u + 2; scanned++)
                if (!tame_cells(N, K, &E, scanned * unit, unit))
                    untame = scanned;
            if (NAX == 3 && scanned < units) {
                const i64 lo = p01 == p_lo ? 0 : unit * i1 / n1;
                const i64 hi = unit * (i1 + 1) / n1;
                if (!tame_cells(N, K, &E, scanned * unit + lo, hi - lo))
                    untame = scanned;
                scanned += i1 == n1 - 1;
            }
            E.tame = tame && untame < u;
        }
#if !TZ
        mu_rows(N, K, A, rows, rows + n2 * N * K);
#endif
        P.zend[0] = P.zend[1] = -1;
        /* the flags of the vector from c_next, taken one vector ahead
           (at W > 1 only: at W = 1 a face a cell did not keep for the
           next one costs less to evaluate again than both versions) */
        vm act_next = ALL_LANES, front_next = ALL_LANES;
        i64 c_next = -1;
        for (i64 j = 0; j < n2; j += W) {
            const i64 i2 = j + W <= n2 ? j : n2 - W;
            const int tail = i2 != j;
            const i64 c = base01 + i2 + 1;
            const i64 oc = p01 * n2 + i2;
            const int ahead = W > 1 && j + 2 * W <= n2;  /* next one aligned */
            vm active = ALL_LANES, front = ALL_LANES;
            if (flag_front) {
                if (c_next == c) {
                    active = act_next;
                    front = front_next;
                } else {
                    lanes_front(N, NAX, phi_src, cs, off, E.ell, c,
                                &active, &front);
                }
                if (ahead) {
                    c_next = c + W;
                    lanes_front(N, NAX, phi_src, cs, off, E.ell, c_next,
                                &act_next, &front_next);
                }
            }
            const vm do_at = A->anti_trapping ? front : NO_LANES;
            if (only_at && !vany(do_at))
                continue;  /* out holds the local partial result */
            const vm want = at ? front : NO_LANES;
            const int any = vany(want), all = vall(want);
            /* the next vector's first lane takes this vector's last
               upper z face as its lower face */
            const int next_wants = at && ahead && lane0(front_next);
            const int two = shortcuts && !only_at
                && ((any && !all) || (ahead && next_wants != all));

            vd phio[MAXN], phin[MAXN], mu_c[MAXK];
            vd h_old[MAXN], h_new[MAXN], rhs[MAXK], sol[MAXK];
            vm changed = NO_LANES;
            for (int a = 0; a < N; a++) {
                phio[a] = vload(phi_src + a * cs + c);
                phin[a] = vload(phi_dst + a * cs + c);
                changed |= vbits(phio[a]) ^ vbits(phin[a]);
            }
            for (int i = 0; i < K; i++) mu_c[i] = vload(mu + i * cs + c);
            /* phi unchanged bitwise on every lane: h_new is h_old */
            const int steady = vall(changed == 0);

            /* Moelans interpolation weights of both time levels */
            vd sqo = vsplat(0.0), sqn = vsplat(0.0);
            for (int a = 0; a < N; a++) sqo += phio[a] * phio[a];
            sqo += 1e-300;
            if (!steady) {
                for (int a = 0; a < N; a++) sqn += phin[a] * phin[a];
                sqn += 1e-300;
            }
            for (int a = 0; a < N; a++) {
                h_old[a] = phio[a] * phio[a] / sqo;
                h_new[a] = steady ? h_old[a] : phin[a] * phin[a] / sqn;
            }

            for (int i = 0; i < K; i++) rhs[i] = vsplat(0.0);
            if (diffusive) {
                /* phase-change source on the active lanes, left out
                   where it is +-0 on all of them */
                const int source =
                    !steady || !tame || !tame_centre(N, K, h_old, mu_c);
                vm dif;
                if (source && shortcuts && !flag_front)
                    active = lanes_active(N, NAX, phi_src, cs, off, c, phio,
                                          &dif);
                if (source && vany(active)) {
                    for (int a = 0; a < N; a++) {
                        const vd dh = h_new[a] - h_old[a];
                        for (int i = 0; i < K; i++) {
                            vd c_ai = vload(cmin_c + (a * K + i) * n2 + i2);
                            for (int k = 0; k < K; k++)
                                c_ai += E.ic[a][i][k] * mu_c[k];
                            rhs[i] -= dh * c_ai / dt;
                        }
                    }
                    /* inactive lanes keep the +0.0 the source started on */
                    if (!vall(active))
                        for (int i = 0; i < K; i++)
                            rhs[i] = vblend(active, rhs[i], vsplat(0.0));
                }
                /* temperature drift source */
                const vd fac =
                    (vload(t_new + i2 + 1) - vload(t_old + i2 + 1)) / dt;
                for (int i = 0; i < K; i++) {
                    vd acc = vsplat(0.0);
                    for (int a = 0; a < N; a++)
                        acc += h_new[a] * c_slope[a][i];
                    rhs[i] -= acc * fac;
                }
            }

            /* div(M grad mu - J_at) */
            if (two && N == 4 && K == 2 && NAX == 3)
                mu_faces_two_3(&E, A, &P, want, any, all, next_wants, c, i1,
                               i2, tail, rhs);
            else if (two && N == 4 && K == 2)
                mu_faces_two_2(&E, A, &P, want, any, all, next_wants, c, i1,
                               i2, tail, rhs);
#if W == 1
            else if (two)
                mu_faces_two_g(&E, A, &P, want, any, all, next_wants, c, i1,
                               i2, tail, rhs);
#endif
            else
                mu_faces_one(N, K, NAX, &E, A, &P, keep0,
                             only_at ? 1 : all, c, i1, i2, tail, rhs);

            /* susceptibility solve chi dmu = rhs */
            if (K == 2) {
                vd ca = vsplat(0.0), cb = vsplat(0.0);
                vd cc = vsplat(0.0), cd = vsplat(0.0);
                for (int a = 0; a < N; a++) {
                    ca += h_new[a] * E.ic[a][0][0];
                    cb += h_new[a] * E.ic[a][0][1];
                    cc += h_new[a] * E.ic[a][1][0];
                    cd += h_new[a] * E.ic[a][1][1];
                }
                const vd det = ca * cd - cb * cc;
                sol[0] = (cd * rhs[0] - cb * rhs[1]) / det;
                sol[1] = (ca * rhs[1] - cc * rhs[0]) / det;
            }
#if W == 1
            else
                chi_solve(N, K, &E, h_new, rhs, sol);
#endif

            if (only_at) {
                /* accumulate once per cell, on the lanes with a
                   neighbour part: the lanes an overlapped tail shares
                   with the previous vector keep theirs */
                const vm fresh = lanes_from(j - i2) & do_at;
                for (int i = 0; i < K; i++) {
                    const vd old = vload(out + i * ocs + oc);
                    vstore(out + i * ocs + oc,
                           vblend(fresh, old + dt * sol[i], old));
                }
            } else {
                for (int i = 0; i < K; i++)
                    vstore(out + i * ocs + oc, mu_c[i] + dt * sol[i]);
            }
        }
    }
}

#if W == 1
GENERIC void mu_generic(const mu_args *A, i64 lo, i64 hi, double *fdiff,
                        double *ffull, i64 *sdiff, i64 *sfull)
{
    mu_lines(A->N, A->K, A->nax, A, lo, hi, fdiff, ffull, sdiff, sfull);
}

/* One thread's share of the sweep: its lines, its two face buffers and
   their stamps, the width and instantiation that fit. */
SHARE void mu_share(const mu_args *A, i64 tid, i64 nt)
{
    const i64 lines = A->n0 * A->n1, slots = A->slots;
    const i64 lo = lines * tid / nt, hi = lines * (tid + 1) / nt;
    double *fdiff = A->scratch + tid * A->per_thread;
    double *ffull = fdiff + slots * A->K;
    i64 *sdiff = (i64 *)(ffull + slots * A->K), *sfull = sdiff + slots;
    if (A->only_at && !A->anti_trapping)
        return;  /* no cell has a neighbour part */
    for (i64 s = 0; s < 2 * slots; s++) sdiff[s] = -1;
#if SIMD
    if (A->simd)
        mu_share_4(A, lo, hi, fdiff, ffull, sdiff, sfull);
    else
#endif
    if (A->N == 4 && A->K == 2 && A->nax == 3)
        mu_lines(4, 2, 3, A, lo, hi, fdiff, ffull, sdiff, sfull);
    else if (A->N == 4 && A->K == 2)
        mu_lines(4, 2, 2, A, lo, hi, fdiff, ffull, sdiff, sfull);
    else
        mu_generic(A, lo, hi, fdiff, ffull, sdiff, sfull);
}

int repro_mu_step(
    const double *mu, const double *phi_src, const double *phi_dst,
    const double *t_old, const double *t_new, double *out,
    const i64 *geom, const double *scal,
    const double *inv_curv, const double *c_eq, const double *c_slope,
    const double *diff, int anti_trapping, int shortcuts,
    int include_at, int only_at)
{
    const int nax = geom[0] ? 3 : 2;
    const i64 n0 = geom[1], n1 = geom[2], n2 = geom[3];
    const int N = (int)geom[4], K = (int)geom[5];
    const double t_eut = scal[4];
    const i64 slots = face_slots(nax, n1, n2);
    const int team = team_size(n0 * n1);

    /* per call: T(z) tables at cell centres and growth-axis faces, then
       each thread's two face buffers + two stamp arrays */
#if TZ
    const i64 per_thread = slots * (2 * K + 2);
#else
    /* ... + the T(z) rows of its line */
    const i64 per_thread = slots * (2 * K + 2) + (2 * n2 + 1) * N * K;
#endif
    double *mem = (double *)malloc(
        (size_t)((2 * n2 + 1) * N * K + team * per_thread) * sizeof(double));
    if (!mem) return 1;
    double *cmin_c = mem, *cmin_f = cmin_c + n2 * N * K;
    for (i64 iz = 0; iz < n2; iz++) {
        const double dT = t_old[iz + 1] - t_eut;
        for (int a = 0; a < N; a++)
            for (int i = 0; i < K; i++)
                cmin_c[(a * K + i) * n2 + iz] =
                    c_eq[a * K + i] + c_slope[a * K + i] * dT;
    }
    for (i64 f = 0; f < n2 + 1; f++) {
        const double dT = 0.5 * (t_old[f] + t_old[f + 1]) - t_eut;
        for (int a = 0; a < N; a++)
            for (int i = 0; i < K; i++)
                cmin_f[(a * K + i) * (n2 + 1) + f] =
                    c_eq[a * K + i] + c_slope[a * K + i] * dT;
    }
    const mu_args A = {
        .mu = mu, .phi_src = phi_src, .phi_dst = phi_dst,
        .t_old = t_old, .t_new = t_new, .inv_curv = inv_curv,
        .c_slope = c_slope, .diff = diff, .cmin_c = cmin_c, .cmin_f = cmin_f,
#if !TZ
        .c_eq = c_eq, .t_eut = t_eut,
#endif
        .out = out, .scratch = cmin_f + (n2 + 1) * N * K,
        .n0 = n0, .n1 = n1, .n2 = n2, .slots = slots,
        .per_thread = per_thread,
        .dx = scal[0], .dt = scal[1], .eps = scal[2],
        .N = N, .K = K, .nax = nax, .ell = (int)geom[6],
        .anti_trapping = anti_trapping, .shortcuts = shortcuts,
        .include_at = include_at, .only_at = only_at,
        .simd = four_cell(N, K, n2),
    };
#ifdef _OPENMP
    if (team > 1) {
        __atomic_store_n(&team_ran, 1, __ATOMIC_RELAXED);
#pragma omp parallel num_threads(team)
        mu_share(&A, omp_get_thread_num(), omp_get_num_threads());
    } else
#endif
        mu_share(&A, 0, 1);
    free(mem);
    return 0;
}

/* ------------------------------------------------------------------ */
/* block lists: one call per sweep over a rank's blocks                */
/* ------------------------------------------------------------------ */

/* Status of a block-list sweep: a value it stored is not finite. */
#define NONFINITE 2

static i64 interior_cells(const i64 *geom)
{
    return geom[1] * geom[2] * geom[3];
}

/* Copy between an interior-only result `out` of ncomp components and
   the interior of the ghosted field `f` of the same block.  store = 1
   writes `out` into `f` and returns 1 when a written value is not
   finite; store = 0 reads the interior of `f` into `out`. */
static int interior_copy(double *out, double *f, const i64 *geom,
                         int ncomp, int store)
{
    const i64 n0 = geom[1], n1 = geom[2], n2 = geom[3];
    const i64 g1 = n1 + 2, g2 = n2 + 2, g0 = geom[0] ? n0 + 2 : 1;
    const i64 cs = g0 * g1 * g2;
    const i64 first = (geom[0] ? g1 * g2 : 0) + g2 + 1;
    int bad = 0;
    for (int c = 0; c < ncomp; c++)
        for (i64 i0 = 0; i0 < n0; i0++)
            for (i64 i1 = 0; i1 < n1; i1++, out += n2) {
                double *row = f + c * cs + first + (i0 * g1 + i1) * g2;
                if (store)
                    for (i64 i2 = 0; i2 < n2; i2++) {
                        row[i2] = out[i2];
                        bad |= !isfinite(out[i2]);
                    }
                else
                    for (i64 i2 = 0; i2 < n2; i2++) out[i2] = row[i2];
            }
    return bad;
}

/* Scratch for the interior result of the largest of the blocks. */
static double *block_result(int nblocks, const i64 *const *geom, int ncomp)
{
    i64 most = 1;
    for (int b = 0; b < nblocks; b++)
        if (interior_cells(geom[b]) > most) most = interior_cells(geom[b]);
    return (double *)malloc((size_t)(most * ncomp) * sizeof(double));
}

/* The phi sweep of every block: dst[b] is the ghosted buffer whose
   interior receives block b's result. */
int repro_phi_blocks(
    int nblocks, const double *const *phi, const double *const *mu,
    const double *const *tg, double *const *dst, const i64 *const *geom,
    const double *scal, const double *gamma, const double *tau,
    const double *inv_curv, const double *c_eq, const double *c_slope,
    const double *latent, const double *diff, int shortcuts)
{
    if (nblocks < 1) return 0;
    const int N = (int)geom[0][4];
    double *out = block_result(nblocks, geom, N);
    if (!out) return 1;
    int bad = 0;
    for (int b = 0; b < nblocks; b++) {
        const int status = repro_phi_step(
            phi[b], mu[b], tg[b], out, geom[b], scal, gamma, tau, inv_curv,
            c_eq, c_slope, latent, diff, shortcuts);
        if (status) {
            free(out);
            return status;
        }
        bad |= interior_copy(out, dst[b], geom[b], N, 1);
    }
    free(out);
    return bad ? NONFINITE : 0;
}

/* The mu sweep of every block; with only_at (the split-neighbour part)
   each block's result is seeded from the interior of dst[b]. */
int repro_mu_blocks(
    int nblocks, const double *const *mu, const double *const *phi_src,
    const double *const *phi_dst, const double *const *t_old,
    const double *const *t_new, double *const *dst, const i64 *const *geom,
    const double *scal, const double *inv_curv, const double *c_eq,
    const double *c_slope, const double *diff, int anti_trapping,
    int shortcuts, int include_at, int only_at)
{
    if (nblocks < 1) return 0;
    const int K = (int)geom[0][5];
    double *out = block_result(nblocks, geom, K);
    if (!out) return 1;
    int bad = 0;
    for (int b = 0; b < nblocks; b++) {
        if (only_at) interior_copy(out, dst[b], geom[b], K, 0);
        const int status = repro_mu_step(
            mu[b], phi_src[b], phi_dst[b], t_old[b], t_new[b], out, geom[b],
            scal, inv_curv, c_eq, c_slope, diff, anti_trapping, shortcuts,
            include_at, only_at);
        if (status) {
            free(out);
            return status;
        }
        bad |= interior_copy(out, dst[b], geom[b], K, 1);
    }
    free(out);
    return bad ? NONFINITE : 0;
}

#else
UNIT void mu_share_4(const mu_args *A, i64 lo, i64 hi,
                     double *fdiff, double *ffull, i64 *sdiff, i64 *sfull)
{
    if (A->nax == 3)
        mu_lines(4, 2, 3, A, lo, hi, fdiff, ffull, sdiff, sfull);
    else
        mu_lines(4, 2, 2, A, lo, hi, fdiff, ffull, sdiff, sfull);
}
#endif

#endif  /* W == 1 || SIMD */
"""

_CC_CANDIDATES = ("cc", "gcc", "clang")
#: Tried in order; the first list the toolchain accepts is the build.
_FLAG_SETS = (
    ("-O3", "-ffp-contract=off", "-fopenmp"),  # threaded build first
    ("-O3", "-ffp-contract=off"),              # serial fallback
)
_BUILD_TIMEOUT_S = 300
#: Translation units, compiled concurrently and linked into one library:
#: the C text at W = 1, with every entry point, and at W = 4.
_UNITS = tuple(f"#define W {w}\n{_C_SOURCE}" for w in (1, 4))

_lib = None
_ffi = None
_from_buffer = None  # ffi.from_buffer and the ctype of a field, resolved once
_F64 = None
_new = None  # ffi.new, for the pointer tables of the block sweeps
_build_error: str | None = None
_loaded = False


def _cache_dir() -> Path:
    override = Settings.from_env().compiled_cache
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "_build"


def _find_cc() -> str | None:
    for cc in _CC_CANDIDATES:
        path = shutil.which(cc)
        if path:
            return path
    return None


def _tag(cc: str, flags: tuple[str, ...], units=_UNITS) -> str:
    """Cache key of one build: everything that determines the object."""
    text = "\0".join((*units, _CDEF, cc, *flags))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_cc(cc: str, args: list[str], source: str | None = None):
    """One compiler run, *source* on stdin: None, or why it failed."""
    proc = subprocess.run(
        [cc, *args], input=source, capture_output=True, text=True,
        timeout=_BUILD_TIMEOUT_S,
    )
    return None if proc.returncode == 0 else proc.stderr.strip()


def _compile(cc: str, cache: Path, units=_UNITS,
             prefix: str = "repro_kernels") -> Path:
    """Build a library of *units* into the cache, or find it there.

    The translation units reach the compiler on stdin and compile
    concurrently, one compiler process each, into a private directory;
    the linked object is moved into place under its final name, so a
    concurrent process sees either no file or a complete one.
    """
    cache.mkdir(parents=True, exist_ok=True)
    builds = [
        (flags, cache / f"{prefix}_{_tag(cc, flags, units)}.so")
        for flags in _FLAG_SETS
    ]
    for _, target in builds:
        if target.exists():
            return target
    last = None
    for flags, target in builds:
        tmp = tempfile.mkdtemp(prefix="repro_kernels_", dir=str(cache))
        try:
            objs = [os.path.join(tmp, f"unit{i}.o")
                    for i in range(len(units))]
            with ThreadPoolExecutor(len(units)) as pool:
                failed = [why for why in pool.map(
                    lambda unit, obj: _run_cc(
                        cc, [*flags, "-fPIC", "-c", "-x", "c", "-",
                             "-o", obj], unit),
                    units, objs) if why is not None]
            if failed:
                last = failed[0]
                continue
            lib = os.path.join(tmp, "kernels.so")
            last = _run_cc(cc, [*flags, "-shared", *objs, "-o", lib, "-lm"])
            if last is None:
                os.replace(lib, target)
                return target
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    raise RuntimeError(f"C kernel build failed with {cc}: {last}")


def load():
    """Compile (once per environment) and dlopen the kernel library.

    Returns the cffi library handle, or ``None`` when no working C
    toolchain or cffi is present (the registry then reports the compiled
    rungs unavailable instead of erroring).
    """
    global _lib, _ffi, _from_buffer, _F64, _new, _build_error, _loaded
    if _loaded:
        return _lib
    _loaded = True
    try:
        import cffi
    except ImportError:
        _build_error = "cffi is not installed"
        return None
    cc = _find_cc()
    if cc is None:
        _build_error = f"no C compiler found (tried {_CC_CANDIDATES})"
        return None
    try:
        path = _compile(cc, _cache_dir())
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        _lib = ffi.dlopen(str(path))
        _ffi = ffi
        _from_buffer, _F64 = ffi.from_buffer, ffi.typeof("double[]")
        _new = ffi.new
        _lib.repro_set_simd(1)
        os.register_at_fork(after_in_child=_after_fork_in_child)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        _build_error = str(exc) or repr(exc)
        _lib = None
    return _lib


def available() -> bool:
    """True when the C library compiled and loaded in this environment."""
    return load() is not None


def build_error() -> str | None:
    """Why :func:`available` is False (None when it is True)."""
    load()
    return _build_error


def num_threads() -> int:
    """OpenMP thread count of the loaded library (1 = serial build, or a
    process forked after the library ran a team of threads)."""
    lib = load()
    return int(lib.repro_num_threads()) if lib is not None else 0


def _after_fork_in_child() -> None:
    if _lib.repro_forked_after_team():
        warnings.warn(
            "this process was forked after the compiled kernels ran an "
            "OpenMP team, which does not survive a fork: its kernel "
            "sweeps run on one thread (set OMP_NUM_THREADS=1 in the "
            "forking process to keep it from running a team)",
            RuntimeWarning,
            stacklevel=2,
        )


def simd_width() -> int:
    """Cells per lockstep vector of the sweeps of both rungs: 4 on a host
    with AVX2 (the body compiled at W = 4, shortcuts as lane predicates),
    1 where every sweep runs the body compiled at W = 1 (0 without a
    library).  Lines of fewer than four cells and the generic
    instantiation always run the W = 1 compile."""
    lib = load()
    return int(lib.repro_simd_width()) if lib is not None else 0


@contextlib.contextmanager
def _scalar_sweeps():
    """Test hook: every sweep inside the block runs the body compiled at
    W = 1, the cellwise sweep, which gives the bits of the W = 4 one."""
    lib = load()
    lib.repro_set_simd(0)
    try:
        yield
    finally:
        lib.repro_set_simd(1)


#: Ablated libraries by ``(tz, stagger)``, loaded by :func:`_ablated`.
_ablations: dict = {}


@contextlib.contextmanager
def _ablated(tz: bool = True, stagger: bool = True):
    """Test hook: every sweep inside the block runs the body compiled at
    W = 1 with its T(z) tables (*tz*) and staggered face buffers
    (*stagger*) on or off, the steps of the Fig. 6 ladder below
    ``compiled``.  Each setting is built on first use into an object of
    its own (:func:`load` never builds one) and gives the shipped bits."""
    global _lib
    if tz and stagger:
        raise ValueError("nothing to ablate: the shipped body at W = 1 is "
                         "_scalar_sweeps()")
    shipped = load()
    key = (bool(tz), bool(stagger))
    if key not in _ablations:
        unit = f"#define TZ {int(tz)}\n#define STAGGER {int(stagger)}\n"
        path = _compile(_find_cc(), _cache_dir(), (unit + _UNITS[0],),
                        "repro_ablated")
        _ablations[key] = _ffi.dlopen(str(path))
    _lib = _ablations[key]
    try:
        yield
    finally:
        _lib = shipped


def pointer(arr, ctype: str = "double[]"):
    """cdata view of a C-contiguous array (keeps *arr* alive)."""
    load()
    return _from_buffer(ctype, arr)


#: Status of a block-list sweep that stored a non-finite value.
NONFINITE = 2


def _check(status: int) -> bool:
    """Raise on a failed scratch allocation; True when a block-list
    sweep reports a non-finite stored value."""
    if status == 1:
        raise MemoryError("compiled kernel could not allocate its scratch")
    return status == NONFINITE


def phi_step_raw(phi, mu, tg, out, geom, scal, gamma, tau, inv_curv,
                 c_eq, c_slope, latent, diff, shortcuts):
    """Phi sweep.  The fields *phi*, *mu*, *tg*, *out* are C-contiguous
    float64 arrays (not checked here); *geom* and the constants are cdata
    from :func:`pointer`, converted once by the caller."""
    lib, fb, f64 = load(), _from_buffer, _F64
    _check(lib.repro_phi_step(
        fb(f64, phi), fb(f64, mu), fb(f64, tg), fb(f64, out), geom, scal,
        gamma, tau, inv_curv, c_eq, c_slope, latent, diff, shortcuts,
    ))
    return out


def mu_step_raw(mu, phi_src, phi_dst, t_old, t_new, out, geom, scal,
                inv_curv, c_eq, c_slope, diff,
                anti_trapping, shortcuts, include_at, only_at):
    """Mu sweep.  The fields *mu* ... *out* are C-contiguous float64
    arrays (not checked here); *geom* and the constants are cdata from
    :func:`pointer`, converted once by the caller."""
    lib, fb, f64 = load(), _from_buffer, _F64
    _check(lib.repro_mu_step(
        fb(f64, mu), fb(f64, phi_src), fb(f64, phi_dst), fb(f64, t_old),
        fb(f64, t_new), fb(f64, out), geom, scal,
        inv_curv, c_eq, c_slope, diff,
        anti_trapping, shortcuts, include_at, only_at,
    ))
    return out


def table(arrays):
    """``(double *[] cdata, buffers)``: the pointer table of C-contiguous
    float64 *arrays* (not checked here).  The table points into the
    buffers, which keep the arrays alive: hold the pair while it is used."""
    buffers = [_from_buffer(_F64, a) for a in arrays]
    return _new("double *[]", buffers), buffers


def geometry_table(geoms):
    """``long long *[]`` of geometry cdata (which the caller keeps alive)."""
    return _new("long long *[]", geoms)


def phi_blocks_raw(n, phi, mu, tg, dst, geom, scal, gamma, tau, inv_curv,
                   c_eq, c_slope, latent, diff, shortcuts) -> bool:
    """Phi sweep of *n* blocks in one call.  *phi*, *mu*, *tg* and *dst*
    are pointer tables (:func:`table`) of the ghosted inputs, the slice
    temperatures and the ghosted buffers whose interiors receive the
    results, *geom* the blocks' :func:`geometry_table`.  True when a
    stored value is non-finite."""
    return _check(load().repro_phi_blocks(
        n, phi, mu, tg, dst, geom,
        scal, gamma, tau, inv_curv, c_eq, c_slope, latent, diff, shortcuts,
    ))


def mu_blocks_raw(n, mu, phi_src, phi_dst, t_old, t_new, dst, geom, scal,
                  inv_curv, c_eq, c_slope, diff,
                  anti_trapping, shortcuts, include_at, only_at) -> bool:
    """Mu sweep of *n* blocks in one call (tables as in
    :func:`phi_blocks_raw`); with *only_at* each block's result is
    seeded from the interior of its *dst*.  True when a stored value is
    non-finite."""
    return _check(load().repro_mu_blocks(
        n, mu, phi_src, phi_dst, t_old, t_new, dst, geom,
        scal, inv_curv, c_eq, c_slope, diff,
        anti_trapping, shortcuts, include_at, only_at,
    ))
