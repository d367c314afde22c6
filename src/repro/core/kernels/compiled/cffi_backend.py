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
  cell above from O(plane) scratch: one slot for the previous z-cell,
  one line of slots for the previous y-line, one plane for the previous
  x-plane.  Every slot carries the ghosted index of the cell that wrote
  it and is valid only for the cell directly above that writer; a cell
  that finds no valid slot (block boundary, first line of a thread's
  share, a neighbour skipped by a shortcut) evaluates the face itself.
  Both evaluations give the same bits (DESIGN.md, "Compiled kernels"),
  so a block's result is a pure function of its ghosted input,
  independent of block shape, position and thread count.
* **Shortcuts** (``compiled_shortcuts`` only) are per-cell branches:
  inactive cells copy through, non-diffuse active cells skip the driving
  force, non-front cells skip anti-trapping.  A face therefore keeps its
  diffusive value and its diffusive-plus-anti-trapping value separately,
  and each cell takes the one its own flag asks for.
* **Four cells per vector** (``compiled`` only): on a host with AVX2 the
  shipped instantiations sweep W = 4 consecutive z cells in lockstep
  (:func:`simd_width`).  Each lane performs the scalar body's IEEE
  operations in its order and branches become bit blends, so the result
  is bitwise the scalar body's (DESIGN.md, "The four-cell body").

Compilation policy
------------------
* Two translation units — the scalar bodies with every entry point, and
  the four-cell bodies — compiled concurrently at :func:`load` and
  linked into one shared object.  Sources, cdef, compiler path and the
  flags actually used are hashed into the file name; the object is
  cached under ``_build/`` next to this module (override with
  ``REPRO_COMPILED_CACHE``), so each environment compiles exactly once.
  The compiler reads each unit from stdin into a private directory and
  the object is published by ``os.replace``, so processes that start
  together against an empty cache each build privately and race benignly.
* ``-O3 -ffp-contract=off``, no ``-ffast-math``, no ``-march`` and no
  ``-mfma``: the four-cell unit gets AVX2 from a ``target`` pragma and is
  chosen at run time by ``__builtin_cpu_supports``, so the object runs
  on any x86-64 host.  The equivalence suite pins the compiled rungs to
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

_C_HEADER = r"""
#include <math.h>
#include <pthread.h>
#include <stdlib.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

/* The four-cell bodies need GCC's vector extensions on x86-64; anywhere
   else every sweep runs the scalar body. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define SIMD 1
#else
#define SIMD 0
#endif

#define MAXN 8
#define MAXK 4
#define TOL 1e-9
#define GRAD_TOL 1e-12
/* Lanes of a four-cell vector: consecutive z cells. */
#define W 4
/* Forced inlining is what instantiates a body: N, K and NAX reach it as
   literal constants from the dispatch in phi_share / mu_share. */
#define BODY static inline __attribute__((always_inline))
#define SHARE static __attribute__((noinline))

typedef long long i64;

/* Slot of the staggered buffer that holds the face below cell
   (i1, i2) along axis d: the previous z-cell, y-line or x-plane. */
BODY i64 face_slot(const int NAX, int d, i64 n2, i64 i1, i64 i2)
{
    if (d == NAX - 1) return 0;
    if (d == NAX - 2) return 1 + i2;
    return 1 + n2 + i1 * n2 + i2;
}

typedef struct {
    const double *phi, *mu, *tg, *gamma, *tau, *inv_curv;
    const double *cmin_z, *lat_z;  /* T(z) tables */
    double *out;
    double *scratch;               /* per_thread doubles for each thread */
    i64 n0, n1, n2, slots, per_thread;
    double dx, dt, eps, gt;
    int N, K, nax, shortcuts, simd;
} phi_args;

typedef struct {
    const double *mu, *phi_src, *phi_dst, *t_old, *t_new;
    const double *inv_curv, *c_slope, *diff;
    const double *cmin_c, *cmin_f;  /* T(z) tables: centres, z-faces */
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
    double ic[MAXN][MAXK][MAXK], diff[MAXN];
} mu_face_env;

/* Sweep constants of the phi bodies. */
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

/* Sweep constants of the mu bodies: the face environment and the
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

#if SIMD
/* The four-cell shares, in the SIMD unit. */
#define UNIT __attribute__((visibility("hidden")))
UNIT void phi_share_v(const phi_args *A, i64 lo, i64 hi,
                      double *fbuf, i64 *stamp);
UNIT void mu_share_v(const mu_args *A, i64 lo, i64 hi,
                     double *fbuf, i64 *stamp);
#endif
"""

_C_SOURCE = _C_HEADER + r"""

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

/* Lanes of the sweeps without shortcuts: W on a host with AVX2, else 1.
   Chosen at load; set_simd(0) selects the scalar body everywhere. */
static int lanes = 1;

int repro_set_simd(int on)
{
#if SIMD
    __builtin_cpu_init();
    lanes = on && __builtin_cpu_supports("avx2") ? W : 1;
#else
    (void)on;
#endif
    return lanes;
}

int repro_simd_width(void)
{
    return lanes;
}

/* The four-cell body runs the shipped instantiations, without
   shortcuts, on lines of at least W cells. */
static int four_cell(int N, int K, i64 n2, int shortcuts)
{
    return lanes == W && N == 4 && K == 2 && n2 >= W && !shortcuts;
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
    return 1 + n2 + (nax == 3 ? n1 * n2 : 0);
}

/* ------------------------------------------------------------------ */
/* phi sweep (Eqs. 1-2)                                                */
/* ------------------------------------------------------------------ */

/* dA/d(grad phi_a) through the face between a lower and an upper cell,
   oriented along +d. */
BODY void phi_face(const int N, const double *lo, const double *up,
                   double g2[MAXN][MAXN], double inv_dx, double *f)
{
    double avg[MAXN], dd[MAXN];
    for (int a = 0; a < N; a++) {
        avg[a] = 0.5 * (lo[a] + up[a]);
        dd[a] = (up[a] - lo[a]) * inv_dx;
    }
    for (int a = 0; a < N; a++) {
        double acc = 0.0;
        for (int b = 0; b < N; b++) {
            if (b == a || g2[a][b] == 0.0) continue;
            acc += g2[a][b]
                * (avg[b] * avg[b] * dd[a] - avg[a] * avg[b] * dd[b]);
        }
        f[a] = acc;
    }
}

/* Lines [p_lo, p_hi) of the (i0, i1) plane, with private face buffers:
   fbuf[slot * N + a] written by the cell stamp[slot]. */
BODY void phi_lines(const int N, const int K, const int NAX,
                    const phi_args *A, i64 p_lo, i64 p_hi,
                    double *fbuf, i64 *stamp)
{
    const double *phi = A->phi, *mu = A->mu, *tg = A->tg;
    const double *cmin_z = A->cmin_z, *lat_z = A->lat_z;
    double *out = A->out;
    const i64 n1 = A->n1, n2 = A->n2;
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
        double pc[MAXN], pp[3][MAXN], pm[3][MAXN], mu_c[MAXK];
        double grad[3][MAXN], face[2][MAXN];
        double rhs[MAXN], psi[MAXN], vnew[MAXN], u[MAXN];
        for (i64 i2 = 0; i2 < n2; i2++) {
            const i64 c = base01 + i2 + 1;
            const i64 oc = p01 * n2 + i2;
            for (int a = 0; a < N; a++) pc[a] = phi[a * cs + c];

            int diffuse = 1;
            if (shortcuts) {
                for (int a = 0; a < N; a++)
                    if (pc[a] >= 1.0 - TOL) { diffuse = 0; break; }
                int active = diffuse;
                for (int d = 0; d < NAX && !active; d++)
                    for (int si = 0; si < 2 && !active; si++) {
                        const i64 nb = c + (i64)(1 - 2 * si) * off[d];
                        for (int a = 0; a < N; a++)
                            if (fabs(phi[a * cs + nb] - pc[a]) > TOL) {
                                active = 1;
                                break;
                            }
                    }
                if (!active) {
                    /* bulk cell with uniform neighbourhood: fixed point */
                    for (int a = 0; a < N; a++) out[a * ocs + oc] = pc[a];
                    continue;
                }
            }

            for (int i = 0; i < K; i++) mu_c[i] = mu[i * cs + c];
            /* neighbours and centred phase gradients */
            for (int d = 0; d < NAX; d++)
                for (int a = 0; a < N; a++) {
                    pp[d][a] = phi[a * cs + c + off[d]];
                    pm[d][a] = phi[a * cs + c - off[d]];
                    grad[d][a] = (pp[d][a] - pm[d][a]) * inv_2dx;
                }

            /* dA/dphi_a */
            for (int a = 0; a < N; a++) {
                double acc = 0.0;
                for (int b = 0; b < N; b++) {
                    if (b == a || gam2[a][b] == 0.0) continue;
                    double dot = 0.0;
                    for (int d = 0; d < NAX; d++)
                        dot += (pc[a] * grad[d][b]
                                - pc[b] * grad[d][a]) * grad[d][b];
                    acc += gam2[a][b] * dot;
                }
                rhs[a] = acc;
            }

            /* - div(dA/d grad phi_a): lower face from the buffer when the
               cell below left it there, upper face into the buffer */
            for (int d = 0; d < NAX; d++) {
                const i64 slot = face_slot(NAX, d, n2, i1, i2);
                double *kept = fbuf + slot * N;
                for (int side = 0; side < 2; side++) {
                    if (!side && stamp[slot] == c - off[d])
                        for (int a = 0; a < N; a++) face[0][a] = kept[a];
                    else
                        phi_face(N, side ? pc : pm[d], side ? pp[d] : pc,
                                 gam2, inv_dx, face[side]);
                }
                for (int a = 0; a < N; a++) {
                    rhs[a] -= face[1][a] * inv_dx;
                    rhs[a] += face[0][a] * inv_dx;
                    kept[a] = face[1][a];
                }
                stamp[slot] = c;
            }

            const double t = tg[i2 + 1];
            for (int a = 0; a < N; a++) rhs[a] *= t * eps;

            /* obstacle potential dW/dphi_a */
            for (int a = 0; a < N; a++) {
                double acc = 0.0;
                for (int b = 0; b < N; b++)
                    if (b != a) acc += gamw[a][b] * pc[b];
                if (gt != 0.0) {
                    double acc3 = 0.0;
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

            /* driving force (diffuse cells only under shortcuts) */
            if (!shortcuts || diffuse) {
                double sq_sum = 0.0;
                for (int a = 0; a < N; a++) sq_sum += pc[a] * pc[a];
                sq_sum += 1e-300;
                for (int a = 0; a < N; a++) {
                    double quad = 0.0;
                    for (int i = 0; i < K; i++) {
                        quad += ic[a][i][i] * mu_c[i] * mu_c[i];
                        for (int j = i + 1; j < K; j++)
                            quad += 2.0 * ic[a][i][j] * mu_c[i] * mu_c[j];
                    }
                    double lin = 0.0;
                    for (int i = 0; i < K; i++)
                        lin += mu_c[i] * cmin_z[(i2 * N + a) * K + i];
                    psi[a] = -0.5 * quad - lin + lat_z[i2 * N + a];
                }
                double weighted = 0.0;
                for (int a = 0; a < N; a++)
                    weighted += pc[a] * pc[a] * psi[a];
                weighted /= sq_sum;
                for (int a = 0; a < N; a++)
                    rhs[a] += (2.0 / sq_sum) * pc[a] * (psi[a] - weighted);
            }

            /* Lagrange term, explicit Euler, simplex projection */
            double mean = 0.0;
            for (int a = 0; a < N; a++) mean += rhs[a];
            mean /= N;
            for (int a = 0; a < N; a++)
                vnew[a] = pc[a] - rate[a] * (rhs[a] - mean);

            /* Michelot/Condat: sort desc, last positive pivot, clip */
            for (int a = 0; a < N; a++) u[a] = vnew[a];
            for (int a = 1; a < N; a++) {
                const double key = u[a];
                int b = a - 1;
                while (b >= 0 && u[b] < key) { u[b + 1] = u[b]; b--; }
                u[b + 1] = key;
            }
            double css = 0.0, theta = 0.0;
            for (int a = 0; a < N; a++) {
                css += u[a];
                const double cand = u[a] + (1.0 - css) / (a + 1);
                if (cand > 0.0) theta = (1.0 - css) / (a + 1.0);
            }
            for (int a = 0; a < N; a++) {
                const double x = vnew[a] + theta;
                out[a * ocs + oc] = x > 0.0 ? x : 0.0;
            }
        }
    }
}

/* One thread's share of the sweep: its lines, its face buffer and
   stamps, the instantiation that fits. */
SHARE void phi_share(const phi_args *A, i64 tid, i64 nt)
{
    const i64 lines = A->n0 * A->n1;
    const i64 lo = lines * tid / nt, hi = lines * (tid + 1) / nt;
    double *fbuf = A->scratch + tid * A->per_thread;
    i64 *stamp = (i64 *)(fbuf + A->slots * A->N);
    for (i64 s = 0; s < A->slots; s++) stamp[s] = -1;
#if SIMD
    if (A->simd)
        phi_share_v(A, lo, hi, fbuf, stamp);
    else
#endif
    if (A->N == 4 && A->K == 2 && A->nax == 3)
        phi_lines(4, 2, 3, A, lo, hi, fbuf, stamp);
    else if (A->N == 4 && A->K == 2)
        phi_lines(4, 2, 2, A, lo, hi, fbuf, stamp);
    else
        phi_lines(A->N, A->K, A->nax, A, lo, hi, fbuf, stamp);
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
    const int simd = four_cell(N, K, n2, shortcuts);
    (void)diff;

    /* per call: T(z) tables ([z][comp], component-major for the
       four-cell body), then each thread's face buffer + stamps */
    const i64 per_thread = slots * (N + 1);
    double *mem = (double *)malloc(
        (size_t)(n2 * N * (K + 1) + team * per_thread) * sizeof(double));
    if (!mem) return 1;
    double *cmin_z = mem, *lat_z = cmin_z + n2 * N * K;
    for (i64 iz = 0; iz < n2; iz++) {
        const double dT = tg[iz + 1] - t_eut;
        for (int a = 0; a < N; a++) {
            lat_z[simd ? a * n2 + iz : iz * N + a] = latent[a] * dT;
            for (int i = 0; i < K; i++)
                cmin_z[simd ? (a * K + i) * n2 + iz : (iz * N + a) * K + i] =
                    c_eq[a * K + i] + c_slope[a * K + i] * dT;
        }
    }
    const phi_args A = {
        .phi = phi, .mu = mu, .tg = tg, .gamma = gamma, .tau = tau,
        .inv_curv = inv_curv, .cmin_z = cmin_z, .lat_z = lat_z, .out = out,
        .scratch = lat_z + n2 * N, .n0 = n0, .n1 = n1, .n2 = n2,
        .slots = slots, .per_thread = per_thread,
        .dx = scal[0], .dt = scal[1], .eps = scal[2], .gt = scal[3],
        .N = N, .K = K, .nax = nax, .shortcuts = shortcuts, .simd = simd,
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

/* ------------------------------------------------------------------ */
/* mu sweep (Eqs. 3-4)                                                 */
/* ------------------------------------------------------------------ */

/* M grad mu through the face between cells cl (lower) and cu (upper),
   oriented along +d, added to flux. */
BODY void mu_face_diffusive(const int N, const int K, const mu_face_env *E,
                            i64 cl, i64 cu, double *flux)
{
    double dmu[MAXK];
    for (int i = 0; i < K; i++)
        dmu[i] = (E->mu[i * E->cs + cu] - E->mu[i * E->cs + cl]) * E->inv_dx;
    for (int a = 0; a < N; a++) {
        double w = 0.5 * (E->ps[a * E->cs + cl] + E->ps[a * E->cs + cu]);
        if (w < 0.0) w = 0.0;
        else if (w > 1.0) w = 1.0;
        for (int i = 0; i < K; i++) {
            double acc = 0.0;
            for (int j = 0; j < K; j++) acc += E->ic[a][i][j] * dmu[j];
            flux[i] += w * E->diff[a] * acc;
        }
    }
}

/* Unit normal of one phase at the face (cl, cu) along axis d: the face
   difference along d, the mean of the two centred differences across. */
BODY void face_normal(const int NAX, const mu_face_env *E, const double *p,
                      int d, i64 cl, i64 cu, double *n)
{
    double g[3], nsq = 0.0;
    for (int e = 0; e < NAX; e++) {
        if (e == d) {
            g[e] = (p[cu] - p[cl]) * E->inv_dx;
        } else {
            const i64 oe = E->off[e];
            g[e] = 0.5 * ((p[cl + oe] - p[cl - oe]) * E->inv_2dx
                          + (p[cu + oe] - p[cu - oe]) * E->inv_2dx);
        }
        nsq += g[e] * g[e];
    }
    const double norm = sqrt(nsq);
    for (int e = 0; e < NAX; e++)
        n[e] = norm > GRAD_TOL ? g[e] / norm : 0.0;
}

/* Anti-trapping current through the same face, subtracted from flux;
   cm is the T(z) coefficient row of the face. */
BODY void mu_face_antitrapping(const int N, const int K, const int NAX,
                               const mu_face_env *E, int d, i64 cl, i64 cu,
                               const double *cm, double *flux)
{
    const i64 cs = E->cs;
    const int ell = E->ell;
    double phi_f[MAXN], dphidt_f[MAXN], mu_f[MAXK];
    double nl[3], na[3], c_l[MAXK];
    double sqs = 0.0;
    for (int a = 0; a < N; a++) {
        const double lo = E->ps[a * cs + cl], up = E->ps[a * cs + cu];
        double v = 0.5 * (lo + up);
        if (v < 0.0) v = 0.0;
        else if (v > 1.0) v = 1.0;
        phi_f[a] = v;
        dphidt_f[a] = 0.5 * ((E->pd[a * cs + cl] - lo)
                             + (E->pd[a * cs + cu] - up)) / E->dt;
        sqs += v * v;
    }
    sqs += 1e-300;
    for (int i = 0; i < K; i++)
        mu_f[i] = 0.5 * (E->mu[i * cs + cl] + E->mu[i * cs + cu]);
    face_normal(NAX, E, E->ps + ell * cs, d, cl, cu, nl);
    /* c_l(mu_f, T_face) */
    for (int i = 0; i < K; i++) {
        double acc = 0.0;
        for (int j = 0; j < K; j++) acc += E->ic[ell][i][j] * mu_f[j];
        c_l[i] = cm[ell * K + i] + acc;
    }
    for (int a = 0; a < N; a++) {
        if (a == ell) continue;
        face_normal(NAX, E, E->ps + a * cs, d, cl, cu, na);
        const double amp = sqrt(phi_f[a] * phi_f[ell]) * phi_f[ell] / sqs;
        double dot = 0.0;
        for (int e = 0; e < NAX; e++) dot += na[e] * nl[e];
        const double scalf = E->pref_at * amp * dphidt_f[a] * dot * na[d];
        for (int i = 0; i < K; i++) {
            double c_ai = cm[a * K + i];
            for (int j = 0; j < K; j++) c_ai += E->ic[a][i][j] * mu_f[j];
            flux[i] -= scalf * (c_l[i] - c_ai);
        }
    }
}

/* Lines [p_lo, p_hi) of the (i0, i1) plane, with private face buffers.
   A slot keeps the diffusive flux (fdiff, written by sdiff[slot]) and
   the complete flux including anti-trapping (ffull, by sfull[slot]). */
BODY void mu_lines(const int N, const int K, const int NAX,
                   const mu_args *A, i64 p_lo, i64 p_hi,
                   double *fdiff, double *ffull, i64 *sdiff, i64 *sfull)
{
    const double *mu = A->mu, *phi_src = A->phi_src, *phi_dst = A->phi_dst;
    const double *t_old = A->t_old, *t_new = A->t_new;
    const double *cmin_c = A->cmin_c, *cmin_f = A->cmin_f;
    double *out = A->out;
    const i64 n1 = A->n1, n2 = A->n2;
    const i64 g1 = n1 + 2, g2 = n2 + 2;
    const i64 cs = (NAX == 3 ? A->n0 + 2 : 1) * g1 * g2;
    const i64 ocs = A->n0 * n1 * n2;
    const double dt = A->dt;
    const int ell = A->ell, shortcuts = A->shortcuts;
    const int include_at = A->include_at, only_at = A->only_at;

    /* sweep constants, local so that no store can alias them */
    mu_face_env E;
    double c_slope[MAXN][MAXK];
    mu_constants(N, K, NAX, A, &E, c_slope);
    const i64 *off = E.off;
    const double inv_dx = E.inv_dx;

    for (i64 p01 = p_lo; p01 < p_hi; p01++) {
        const i64 i0 = p01 / n1;
        const i64 i1 = p01 - i0 * n1;
        const i64 base01 =
            NAX == 3 ? ((i0 + 1) * g1 + (i1 + 1)) * g2 : (i1 + 1) * g2;
        double phio[MAXN], phin[MAXN], mu_c[MAXK];
        double h_old[MAXN], h_new[MAXN];
        double rhs[MAXK], face[2][MAXK];
        double chi[MAXK][MAXK], sol[MAXK];
        for (i64 i2 = 0; i2 < n2; i2++) {
            const i64 c = base01 + i2 + 1;
            const i64 oc = p01 * n2 + i2;
            const double told = t_old[i2 + 1];
            const double tnew = t_new[i2 + 1];
            for (int a = 0; a < N; a++) {
                phio[a] = phi_src[a * cs + c];
                phin[a] = phi_dst[a * cs + c];
            }
            for (int i = 0; i < K; i++) mu_c[i] = mu[i * cs + c];

            int active = 1, front = 1;
            if (shortcuts) {
                int diffuse = 1;
                for (int a = 0; a < N; a++)
                    if (phio[a] >= 1.0 - TOL) { diffuse = 0; break; }
                active = diffuse;
                for (int d = 0; d < NAX && !active; d++)
                    for (int si = 0; si < 2 && !active; si++) {
                        const i64 nb = c + (i64)(1 - 2 * si) * off[d];
                        for (int a = 0; a < N; a++)
                            if (fabs(phi_src[a * cs + nb] - phio[a]) > TOL) {
                                active = 1;
                                break;
                            }
                    }
                if (active) {
                    int near = phi_src[ell * cs + c] > TOL;
                    for (int d = 0; d < NAX && !near; d++)
                        for (int si = 0; si < 2; si++) {
                            const i64 nb = c + (i64)(1 - 2 * si) * off[d];
                            if (phi_src[ell * cs + nb] > TOL) {
                                near = 1;
                                break;
                            }
                        }
                    front = near;
                } else {
                    front = 0;
                }
            }

            const int do_at = A->anti_trapping && front;
            if (only_at && !do_at)
                continue;  /* out already holds the local partial result */
            const int want_at = do_at && include_at;

            /* Moelans interpolation weights of both time levels */
            double sqo = 0.0, sqn = 0.0;
            for (int a = 0; a < N; a++) {
                sqo += phio[a] * phio[a];
                sqn += phin[a] * phin[a];
            }
            sqo += 1e-300;
            sqn += 1e-300;
            for (int a = 0; a < N; a++) {
                h_old[a] = phio[a] * phio[a] / sqo;
                h_new[a] = phin[a] * phin[a] / sqn;
            }

            for (int i = 0; i < K; i++) rhs[i] = 0.0;
            if (!only_at) {
                if (active) {
                    /* phase-change source */
                    for (int a = 0; a < N; a++) {
                        const double dh = h_new[a] - h_old[a];
                        for (int i = 0; i < K; i++) {
                            double c_ai = cmin_c[(i2 * N + a) * K + i];
                            for (int j = 0; j < K; j++)
                                c_ai += E.ic[a][i][j] * mu_c[j];
                            rhs[i] -= dh * c_ai / dt;
                        }
                    }
                }
                /* temperature drift source */
                const double fac = (tnew - told) / dt;
                for (int i = 0; i < K; i++) {
                    double acc = 0.0;
                    for (int a = 0; a < N; a++)
                        acc += h_new[a] * c_slope[a][i];
                    rhs[i] -= acc * fac;
                }
            }

            /* div(M grad mu - J_at): per axis the lower face (side 0,
               reusing what the cell below left in the slot) and the
               upper face (side 1, left in the slot for the cell above).
               A value that stops at the diffusive part is continued,
               never re-summed. */
            for (int d = 0; d < NAX; d++) {
                const i64 slot = face_slot(NAX, d, n2, i1, i2);
                double *kdiff = fdiff + slot * K, *kfull = ffull + slot * K;
                for (int side = 0; side < 2; side++) {
                    const i64 cl = side ? c : c - off[d];
                    const i64 cu = side ? c + off[d] : c;
                    const double *cm = d == NAX - 1
                        ? cmin_f + (i2 + side) * N * K
                        : cmin_c + i2 * N * K;
                    double *flux = face[side];
                    int have = 0;  /* 1: diffusive part, 2: complete */
                    for (int i = 0; i < K; i++) flux[i] = 0.0;
                    if (!side && want_at && sfull[slot] == cl) {
                        for (int i = 0; i < K; i++) flux[i] = kfull[i];
                        have = 2;
                    } else if (!side && !only_at && sdiff[slot] == cl) {
                        for (int i = 0; i < K; i++) flux[i] = kdiff[i];
                        have = 1;
                    }
                    if (!have && !only_at)
                        mu_face_diffusive(N, K, &E, cl, cu, flux);
                    if (side && !only_at) {
                        for (int i = 0; i < K; i++) kdiff[i] = flux[i];
                        sdiff[slot] = c;
                    }
                    if (have < 2 && want_at)
                        mu_face_antitrapping(N, K, NAX, &E, d, cl, cu, cm,
                                             flux);
                    if (side && want_at) {
                        for (int i = 0; i < K; i++) kfull[i] = flux[i];
                        sfull[slot] = c;
                    }
                }
                for (int i = 0; i < K; i++) {
                    rhs[i] += face[1][i] * inv_dx;
                    rhs[i] -= face[0][i] * inv_dx;
                }
            }

            /* susceptibility solve chi dmu = rhs */
            if (K == 2) {
                double ca = 0.0, cb = 0.0, cc = 0.0, cd = 0.0;
                for (int a = 0; a < N; a++) {
                    ca += h_new[a] * E.ic[a][0][0];
                    cb += h_new[a] * E.ic[a][0][1];
                    cc += h_new[a] * E.ic[a][1][0];
                    cd += h_new[a] * E.ic[a][1][1];
                }
                const double det = ca * cd - cb * cc;
                sol[0] = (cd * rhs[0] - cb * rhs[1]) / det;
                sol[1] = (ca * rhs[1] - cc * rhs[0]) / det;
            } else {
                for (int i = 0; i < K; i++) {
                    for (int j = 0; j < K; j++) {
                        double acc = 0.0;
                        for (int a = 0; a < N; a++)
                            acc += h_new[a] * E.ic[a][i][j];
                        chi[i][j] = acc;
                    }
                    sol[i] = rhs[i];
                }
                /* Gaussian elimination with partial pivoting */
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
                        for (int j = col; j < K; j++)
                            chi[r][j] -= f * chi[col][j];
                        sol[r] -= f * sol[col];
                    }
                }
                for (int col = K - 1; col >= 0; col--) {
                    double acc = sol[col];
                    for (int j = col + 1; j < K; j++)
                        acc -= chi[col][j] * sol[j];
                    sol[col] = acc / chi[col][col];
                }
            }

            if (only_at) {
                for (int i = 0; i < K; i++)
                    out[i * ocs + oc] += dt * sol[i];
            } else {
                for (int i = 0; i < K; i++)
                    out[i * ocs + oc] = mu_c[i] + dt * sol[i];
            }
        }
    }
}

/* One thread's share of the sweep: its lines, its two face buffers and
   their stamps, the instantiation that fits. */
SHARE void mu_share(const mu_args *A, i64 tid, i64 nt)
{
    const i64 lines = A->n0 * A->n1, slots = A->slots;
    const i64 lo = lines * tid / nt, hi = lines * (tid + 1) / nt;
    double *fdiff = A->scratch + tid * A->per_thread;
    double *ffull = fdiff + slots * A->K;
    i64 *sdiff = (i64 *)(ffull + slots * A->K), *sfull = sdiff + slots;
    for (i64 s = 0; s < 2 * slots; s++) sdiff[s] = -1;
#if SIMD
    if (A->simd)
        mu_share_v(A, lo, hi, fdiff, sdiff);
    else
#endif
    if (A->N == 4 && A->K == 2 && A->nax == 3)
        mu_lines(4, 2, 3, A, lo, hi, fdiff, ffull, sdiff, sfull);
    else if (A->N == 4 && A->K == 2)
        mu_lines(4, 2, 2, A, lo, hi, fdiff, ffull, sdiff, sfull);
    else
        mu_lines(A->N, A->K, A->nax, A, lo, hi, fdiff, ffull, sdiff, sfull);
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
    const int simd = four_cell(N, K, n2, shortcuts);

    /* per call: T(z) tables at cell centres and growth-axis faces
       ([z][comp], component-major for the four-cell body), then each
       thread's two face buffers + two stamp arrays */
    const i64 per_thread = slots * (2 * K + 2);
    double *mem = (double *)malloc(
        (size_t)((2 * n2 + 1) * N * K + team * per_thread) * sizeof(double));
    if (!mem) return 1;
    double *cmin_c = mem, *cmin_f = cmin_c + n2 * N * K;
    for (i64 iz = 0; iz < n2; iz++) {
        const double dT = t_old[iz + 1] - t_eut;
        for (int a = 0; a < N; a++)
            for (int i = 0; i < K; i++)
                cmin_c[simd ? (a * K + i) * n2 + iz : (iz * N + a) * K + i] =
                    c_eq[a * K + i] + c_slope[a * K + i] * dT;
    }
    for (i64 f = 0; f < n2 + 1; f++) {
        const double dT = 0.5 * (t_old[f] + t_old[f + 1]) - t_eut;
        for (int a = 0; a < N; a++)
            for (int i = 0; i < K; i++)
                cmin_f[simd ? (a * K + i) * (n2 + 1) + f
                            : (f * N + a) * K + i] =
                    c_eq[a * K + i] + c_slope[a * K + i] * dT;
    }
    const mu_args A = {
        .mu = mu, .phi_src = phi_src, .phi_dst = phi_dst,
        .t_old = t_old, .t_new = t_new, .inv_curv = inv_curv,
        .c_slope = c_slope, .diff = diff, .cmin_c = cmin_c, .cmin_f = cmin_f,
        .out = out, .scratch = cmin_f + (n2 + 1) * N * K,
        .n0 = n0, .n1 = n1, .n2 = n2, .slots = slots,
        .per_thread = per_thread,
        .dx = scal[0], .dt = scal[1], .eps = scal[2],
        .N = N, .K = K, .nax = nax, .ell = (int)geom[6],
        .anti_trapping = anti_trapping, .shortcuts = shortcuts,
        .include_at = include_at, .only_at = only_at, .simd = simd,
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
"""

_C_SIMD = _C_HEADER + r"""
#if SIMD
#include <immintrin.h>
#pragma GCC target("avx2")

/* ------------------------------------------------------------------ */
/* four-cell bodies: W consecutive z cells in lockstep                 */
/* ------------------------------------------------------------------ */

/* Each lane runs the scalar body's IEEE operations in the scalar order;
   a branch becomes a compare and a bit blend of both sides, never a
   masked addition (-0.0 + 0.0 is +0.0).  Differences from the scalar
   body are in the bookkeeping only:
   * the lower z face of a vector is its upper z face vector shifted by
     one lane, the previous vector's last lane shifted in;
   * the x/y face slots of W consecutive z cells are one vector, stored
     component-major (fbuf[comp * slots + slot]); the stamps of a
     vector's slots agree, so lane 0's answers for all;
   * T(z) tables are component-major ([comp][z]), one vector per load;
   * a line whose length is not a multiple of W ends with an overlapped
     vector over its last W cells, which evaluates all its lower faces:
     a recomputed cell or face has the bits of the first evaluation. */
typedef double vd __attribute__((vector_size(8 * W)));
typedef i64 vm __attribute__((vector_size(8 * W)));  /* lane masks */

BODY vd vload(const double *p) { vd v; memcpy(&v, p, sizeof v); return v; }
BODY void vstore(double *p, vd v) { memcpy(p, &v, sizeof v); }
BODY vd vsplat(double x) { return (vd){x, x, x, x}; }
BODY vm vlt(vd a, vd b) { return (vm)(a < b); }
BODY vm vgt(vd a, vd b) { return (vm)(a > b); }
/* m ? a : b, lane by lane */
BODY vd vblend(vm m, vd a, vd b) { return (vd)((m & (vm)a) | (~m & (vm)b)); }
BODY vd vsqrt(vd x) { return _mm256_sqrt_pd(x); }
/* The lower neighbours' values of a vector: prev's last lane, then the
   first W - 1 lanes of cur. */
BODY vd vbelow(vd prev, vd cur)
{
    return __builtin_shuffle(prev, cur, (vm){3, 4, 5, 6});
}
/* if (v < 0) v = 0; else if (v > 1) v = 1; */
BODY vd vclamp01(vd v)
{
    return vblend(vlt(v, vsplat(0.0)), vsplat(0.0),
                  vblend(vgt(v, vsplat(1.0)), vsplat(1.0), v));
}

/* phi_face on W faces */
BODY void phi_face_v(const int N, const vd *lo, const vd *up,
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

/* phi_lines without shortcuts, W cells at a time (lines of >= W). */
BODY void phi_lines_v(const int N, const int K, const int NAX,
                      const phi_args *A, i64 p_lo, i64 p_hi,
                      double *fbuf, i64 *stamp)
{
    const double *phi = A->phi, *mu = A->mu, *tg = A->tg;
    const double *cmin_z = A->cmin_z, *lat_z = A->lat_z;
    double *out = A->out;
    const i64 n1 = A->n1, n2 = A->n2, slots = A->slots;
    const i64 g1 = n1 + 2, g2 = n2 + 2;
    const i64 cs = (NAX == 3 ? A->n0 + 2 : 1) * g1 * g2;
    const i64 ocs = A->n0 * n1 * n2;
    const double eps = A->eps, gt = A->gt;
    const double inv_dx = 1.0 / A->dx, inv_2dx = 1.0 / (2.0 * A->dx);
    i64 off[3] = {g2, 1, 0};
    if (NAX == 3) { off[0] = g1 * g2; off[1] = g2; off[2] = 1; }

    double gam2[MAXN][MAXN], gamw[MAXN][MAXN], rate[MAXN];
    double ic[MAXN][MAXK][MAXK];
    phi_constants(N, K, A, gam2, gamw, rate, ic);

    for (i64 p01 = p_lo; p01 < p_hi; p01++) {
        const i64 i0 = p01 / n1;
        const i64 i1 = p01 - i0 * n1;
        const i64 base01 =
            NAX == 3 ? ((i0 + 1) * g1 + (i1 + 1)) * g2 : (i1 + 1) * g2;
        vd zup[MAXN];  /* upper z faces of the previous vector */
        for (i64 j = 0; j < n2; j += W) {
            const i64 i2 = j + W <= n2 ? j : n2 - W;
            const int tail = i2 != j;
            const i64 c = base01 + i2 + 1;
            const i64 oc = p01 * n2 + i2;
            vd pc[MAXN], pp[3][MAXN], pm[3][MAXN], mu_c[MAXK];
            vd grad[3][MAXN], face[2][MAXN];
            vd rhs[MAXN], psi[MAXN], vnew[MAXN], u[MAXN];
            for (int a = 0; a < N; a++) pc[a] = vload(phi + a * cs + c);
            for (int i = 0; i < K; i++) mu_c[i] = vload(mu + i * cs + c);
            for (int d = 0; d < NAX; d++)
                for (int a = 0; a < N; a++) {
                    pp[d][a] = vload(phi + a * cs + c + off[d]);
                    pm[d][a] = vload(phi + a * cs + c - off[d]);
                    grad[d][a] = (pp[d][a] - pm[d][a]) * inv_2dx;
                }

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

            for (int d = 0; d < NAX; d++) {
                phi_face_v(N, pc, pp[d], gam2, inv_dx, face[1]);
                if (d == NAX - 1) {
                    if (j > 0 && !tail)
                        for (int a = 0; a < N; a++)
                            face[0][a] = vbelow(zup[a], face[1][a]);
                    else
                        phi_face_v(N, pm[d], pc, gam2, inv_dx, face[0]);
                    for (int a = 0; a < N; a++) zup[a] = face[1][a];
                } else {
                    const i64 slot = face_slot(NAX, d, n2, i1, i2);
                    if (!tail && stamp[slot] == c - off[d])
                        for (int a = 0; a < N; a++)
                            face[0][a] = vload(fbuf + a * slots + slot);
                    else
                        phi_face_v(N, pm[d], pc, gam2, inv_dx, face[0]);
                    for (int a = 0; a < N; a++)
                        vstore(fbuf + a * slots + slot, face[1][a]);
                    for (int l = 0; l < W; l++) stamp[slot + l] = c + l;
                }
                for (int a = 0; a < N; a++) {
                    rhs[a] -= face[1][a] * inv_dx;
                    rhs[a] += face[0][a] * inv_dx;
                }
            }

            const vd t = vload(tg + i2 + 1);
            for (int a = 0; a < N; a++) rhs[a] *= t * eps;

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
                    lin += mu_c[i] * vload(cmin_z + (a * K + i) * n2 + i2);
                psi[a] = -0.5 * quad - lin + vload(lat_z + a * n2 + i2);
            }
            vd weighted = vsplat(0.0);
            for (int a = 0; a < N; a++)
                weighted += pc[a] * pc[a] * psi[a];
            weighted /= sq_sum;
            for (int a = 0; a < N; a++)
                rhs[a] += (2.0 / sq_sum) * pc[a] * (psi[a] - weighted);

            vd mean = vsplat(0.0);
            for (int a = 0; a < N; a++) mean += rhs[a];
            mean /= (double)N;
            for (int a = 0; a < N; a++)
                vnew[a] = pc[a] - rate[a] * (rhs[a] - mean);

            /* the insertion sort as compare-swaps: a swap moves the
               larger value up exactly where the scalar loop shifts */
            for (int a = 0; a < N; a++) u[a] = vnew[a];
            for (int a = 1; a < N; a++)
                for (int b = a - 1; b >= 0; b--) {
                    const vm lt = vlt(u[b], u[b + 1]);
                    const vd hi = vblend(lt, u[b + 1], u[b]);
                    u[b + 1] = vblend(lt, u[b], u[b + 1]);
                    u[b] = hi;
                }
            vd css = vsplat(0.0), theta = vsplat(0.0);
            for (int a = 0; a < N; a++) {
                css += u[a];
                const vd cand = u[a] + (1.0 - css) / (double)(a + 1);
                theta = vblend(vgt(cand, vsplat(0.0)),
                               (1.0 - css) / (a + 1.0), theta);
            }
            for (int a = 0; a < N; a++) {
                const vd x = vnew[a] + theta;
                vstore(out + a * ocs + oc,
                       vblend(vgt(x, vsplat(0.0)), x, vsplat(0.0)));
            }
        }
    }
}

UNIT void phi_share_v(const phi_args *A, i64 lo, i64 hi,
                       double *fbuf, i64 *stamp)
{
    if (A->nax == 3)
        phi_lines_v(4, 2, 3, A, lo, hi, fbuf, stamp);
    else
        phi_lines_v(4, 2, 2, A, lo, hi, fbuf, stamp);
}

/* Unswitching the mu body's uniform mode flags would double its
   compile time and gains no measurable speed. */
#pragma GCC optimize("no-unswitch-loops")

/* mu_face_diffusive on the W faces from cl.. to cu.. */
BODY void mu_face_diffusive_v(const int N, const int K,
                              const mu_face_env *E, i64 cl, i64 cu, vd *flux)
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

BODY void face_normal_v(const int NAX, const mu_face_env *E, const double *p,
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

/* mu_face_antitrapping on W faces; the T(z) coefficients of (a, i) are
   the vector at cm + (a * K + i) * cstride. */
BODY void mu_face_antitrapping_v(const int N, const int K, const int NAX,
                                 const mu_face_env *E, int d, i64 cl, i64 cu,
                                 const double *cm, i64 cstride, vd *flux)
{
    const i64 cs = E->cs;
    const int ell = E->ell;
    vd phi_f[MAXN], dphidt_f[MAXN], mu_f[MAXK];
    vd nl[3], na[3], c_l[MAXK];
    vd sqs = vsplat(0.0);
    for (int a = 0; a < N; a++) {
        const vd lo = vload(E->ps + a * cs + cl);
        const vd up = vload(E->ps + a * cs + cu);
        const vd v = vclamp01(0.5 * (lo + up));
        phi_f[a] = v;
        dphidt_f[a] = 0.5 * ((vload(E->pd + a * cs + cl) - lo)
                             + (vload(E->pd + a * cs + cu) - up)) / E->dt;
        sqs += v * v;
    }
    sqs += 1e-300;
    for (int i = 0; i < K; i++)
        mu_f[i] = 0.5 * (vload(E->mu + i * cs + cl)
                         + vload(E->mu + i * cs + cu));
    face_normal_v(NAX, E, E->ps + ell * cs, d, cl, cu, nl);
    for (int i = 0; i < K; i++) {
        vd acc = vsplat(0.0);
        for (int j = 0; j < K; j++) acc += E->ic[ell][i][j] * mu_f[j];
        c_l[i] = vload(cm + (ell * K + i) * cstride) + acc;
    }
    for (int a = 0; a < N; a++) {
        if (a == ell) continue;
        face_normal_v(NAX, E, E->ps + a * cs, d, cl, cu, na);
        const vd amp = vsqrt(phi_f[a] * phi_f[ell]) * phi_f[ell] / sqs;
        vd dot = vsplat(0.0);
        for (int e = 0; e < NAX; e++) dot += na[e] * nl[e];
        const vd scalf = E->pref_at * amp * dphidt_f[a] * dot * na[d];
        for (int i = 0; i < K; i++) {
            vd c_ai = vload(cm + (a * K + i) * cstride);
            for (int j = 0; j < K; j++) c_ai += E->ic[a][i][j] * mu_f[j];
            flux[i] -= scalf * (c_l[i] - c_ai);
        }
    }
}

/* The flux a mu sweep of this call takes through the W faces from
   cl.. to cu..: diffusive unless only_at, minus anti-trapping when
   wanted (without shortcuts every cell is active and a front cell). */
BODY void mu_face_v(const int N, const int K, const int NAX,
                    const mu_face_env *E, int diffusive, int at, int d,
                    i64 cl, i64 cu, const double *cm, i64 cstride, vd *flux)
{
    for (int i = 0; i < K; i++) flux[i] = vsplat(0.0);
    if (diffusive) mu_face_diffusive_v(N, K, E, cl, cu, flux);
    if (at) mu_face_antitrapping_v(N, K, NAX, E, d, cl, cu, cm, cstride, flux);
}

/* mu_lines without shortcuts, W cells at a time (lines of >= W, K = 2):
   one face buffer fbuf with stamps, holding whichever flux this call
   takes. */
BODY void mu_lines_v(const int N, const int K, const int NAX,
                     const mu_args *A, i64 p_lo, i64 p_hi,
                     double *fbuf, i64 *stamp)
{
    const double *mu = A->mu, *phi_src = A->phi_src, *phi_dst = A->phi_dst;
    const double *t_old = A->t_old, *t_new = A->t_new;
    const double *cmin_c = A->cmin_c, *cmin_f = A->cmin_f;
    double *out = A->out;
    const i64 n1 = A->n1, n2 = A->n2, slots = A->slots;
    const i64 g1 = n1 + 2, g2 = n2 + 2;
    const i64 cs = (NAX == 3 ? A->n0 + 2 : 1) * g1 * g2;
    const i64 ocs = A->n0 * n1 * n2;
    const double dt = A->dt;
    const int only_at = A->only_at;
    const int diffusive = !only_at;
    const int at = A->anti_trapping && A->include_at;

    mu_face_env E;
    double c_slope[MAXN][MAXK];
    mu_constants(N, K, NAX, A, &E, c_slope);
    const i64 *off = E.off;
    const double inv_dx = E.inv_dx;

    for (i64 p01 = p_lo; p01 < p_hi; p01++) {
        const i64 i0 = p01 / n1;
        const i64 i1 = p01 - i0 * n1;
        const i64 base01 =
            NAX == 3 ? ((i0 + 1) * g1 + (i1 + 1)) * g2 : (i1 + 1) * g2;
        vd zup[MAXK];  /* upper z faces of the previous vector */
        for (i64 j = 0; j < n2; j += W) {
            const i64 i2 = j + W <= n2 ? j : n2 - W;
            const int tail = i2 != j;
            const i64 c = base01 + i2 + 1;
            const i64 oc = p01 * n2 + i2;
            vd phio[MAXN], phin[MAXN], mu_c[MAXK];
            vd h_old[MAXN], h_new[MAXN], rhs[MAXK], face[2][MAXK], sol[MAXK];
            for (int a = 0; a < N; a++) {
                phio[a] = vload(phi_src + a * cs + c);
                phin[a] = vload(phi_dst + a * cs + c);
            }
            for (int i = 0; i < K; i++) mu_c[i] = vload(mu + i * cs + c);

            vd sqo = vsplat(0.0), sqn = vsplat(0.0);
            for (int a = 0; a < N; a++) {
                sqo += phio[a] * phio[a];
                sqn += phin[a] * phin[a];
            }
            sqo += 1e-300;
            sqn += 1e-300;
            for (int a = 0; a < N; a++) {
                h_old[a] = phio[a] * phio[a] / sqo;
                h_new[a] = phin[a] * phin[a] / sqn;
            }

            for (int i = 0; i < K; i++) rhs[i] = vsplat(0.0);
            if (diffusive) {
                for (int a = 0; a < N; a++) {
                    const vd dh = h_new[a] - h_old[a];
                    for (int i = 0; i < K; i++) {
                        vd c_ai = vload(cmin_c + (a * K + i) * n2 + i2);
                        for (int k = 0; k < K; k++)
                            c_ai += E.ic[a][i][k] * mu_c[k];
                        rhs[i] -= dh * c_ai / dt;
                    }
                }
                const vd fac =
                    (vload(t_new + i2 + 1) - vload(t_old + i2 + 1)) / dt;
                for (int i = 0; i < K; i++) {
                    vd acc = vsplat(0.0);
                    for (int a = 0; a < N; a++)
                        acc += h_new[a] * c_slope[a][i];
                    rhs[i] -= acc * fac;
                }
            }

            for (int d = 0; d < NAX; d++) {
                const int z = d == NAX - 1;
                /* T(z) rows: z faces below and above, or the centres */
                const double *cm = z ? cmin_f + i2 : cmin_c + i2;
                const i64 cstride = z ? n2 + 1 : n2;
                mu_face_v(N, K, NAX, &E, diffusive, at, d, c, c + off[d],
                          cm + z, cstride, face[1]);
                if (z) {
                    if (j > 0 && !tail)
                        for (int i = 0; i < K; i++)
                            face[0][i] = vbelow(zup[i], face[1][i]);
                    else
                        mu_face_v(N, K, NAX, &E, diffusive, at, d,
                                  c - off[d], c, cm, cstride, face[0]);
                    for (int i = 0; i < K; i++) zup[i] = face[1][i];
                } else {
                    const i64 slot = face_slot(NAX, d, n2, i1, i2);
                    if (!tail && stamp[slot] == c - off[d])
                        for (int i = 0; i < K; i++)
                            face[0][i] = vload(fbuf + i * slots + slot);
                    else
                        mu_face_v(N, K, NAX, &E, diffusive, at, d,
                                  c - off[d], c, cm, cstride, face[0]);
                    for (int i = 0; i < K; i++)
                        vstore(fbuf + i * slots + slot, face[1][i]);
                    for (int l = 0; l < W; l++) stamp[slot + l] = c + l;
                }
                for (int i = 0; i < K; i++) {
                    rhs[i] += face[1][i] * inv_dx;
                    rhs[i] -= face[0][i] * inv_dx;
                }
            }

            /* susceptibility solve, K = 2 */
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

            if (only_at) {
                /* accumulate once per cell: the lanes an overlapped
                   tail shares with the previous vector keep theirs */
                const vm fresh = (vm){0, 1, 2, 3} >= (j - i2);
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

UNIT void mu_share_v(const mu_args *A, i64 lo, i64 hi,
                      double *fbuf, i64 *stamp)
{
    if (A->only_at && !A->anti_trapping)
        return;  /* no cell has a neighbour part */
    if (A->nax == 3)
        mu_lines_v(4, 2, 3, A, lo, hi, fbuf, stamp);
    else
        mu_lines_v(4, 2, 2, A, lo, hi, fbuf, stamp);
}

#endif
"""

_CC_CANDIDATES = ("cc", "gcc", "clang")
#: Tried in order; the first list the toolchain accepts is the build.
_FLAG_SETS = (
    ("-O3", "-ffp-contract=off", "-fopenmp"),  # threaded build first
    ("-O3", "-ffp-contract=off"),              # serial fallback
)
_BUILD_TIMEOUT_S = 300
#: Translation units, compiled concurrently and linked into one library:
#: the scalar bodies with every entry point, and the four-cell bodies.
_UNITS = (_C_SOURCE, _C_SIMD)

_lib = None
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


def _tag(cc: str, flags: tuple[str, ...]) -> str:
    """Cache key of one build: everything that determines the object."""
    text = "\0".join((*_UNITS, _CDEF, cc, *flags))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_cc(cc: str, args: list[str], source: str | None = None):
    """One compiler run, *source* on stdin: None, or why it failed."""
    proc = subprocess.run(
        [cc, *args], input=source, capture_output=True, text=True,
        timeout=_BUILD_TIMEOUT_S,
    )
    return None if proc.returncode == 0 else proc.stderr.strip()


def _compile(cc: str, cache: Path) -> Path:
    """Build the kernel library into the cache, or find it there.

    The translation units reach the compiler on stdin and compile
    concurrently, one compiler process each, into a private directory;
    the linked object is moved into place under its final name, so a
    concurrent process sees either no file or a complete one.
    """
    cache.mkdir(parents=True, exist_ok=True)
    builds = [
        (flags, cache / f"repro_kernels_{_tag(cc, flags)}.so")
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
                    for i in range(len(_UNITS))]
            with ThreadPoolExecutor(len(_UNITS)) as pool:
                failed = [why for why in pool.map(
                    lambda unit, obj: _run_cc(
                        cc, [*flags, "-fPIC", "-c", "-x", "c", "-",
                             "-o", obj], unit),
                    _UNITS, objs) if why is not None]
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
    global _lib, _from_buffer, _F64, _new, _build_error, _loaded
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
    """Cells per lockstep vector of the sweeps without shortcuts: 4 on a
    host with AVX2 (the four-cell body), 1 for the cellwise scalar body
    (0 without a library)."""
    lib = load()
    return int(lib.repro_simd_width()) if lib is not None else 0


@contextlib.contextmanager
def _scalar_sweeps():
    """Test hook: every sweep inside the block runs the scalar body."""
    lib = load()
    lib.repro_set_simd(0)
    try:
        yield
    finally:
        lib.repro_set_simd(1)


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
