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

Compilation policy
------------------
* One translation unit, built at :func:`load`.  Source, cdef, compiler
  path and the flags actually used are hashed into the file name; the
  shared object is cached under ``_build/`` next to this module
  (override with ``REPRO_COMPILED_CACHE``), so each environment compiles
  exactly once.  The compiler reads the source from stdin and the object
  is published by temp name + ``os.replace``, so processes that start
  together against an empty cache each build privately and race benignly.
* ``-O3 -ffp-contract=off``, no ``-ffast-math``, no ``-march``: the
  equivalence suite pins the compiled rungs to the pure-Python reference
  at the same tolerance as the NumPy rungs, and buffer reuse is bit-exact
  only under IEEE semantics without contraction.
* ``-fopenmp`` is attempted first and dropped if the toolchain lacks it;
  the library records which variant is loaded (:func:`num_threads`).

Parallel safety: all scratch is allocated per call and private to one
OpenMP thread; the kernels never touch ``KernelContext.get_scratch``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

from repro.settings import Settings

__all__ = [
    "available",
    "load",
    "build_error",
    "num_threads",
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
"""

_C_SOURCE = r"""
#include <math.h>
#include <stdlib.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#define MAXN 8
#define MAXK 4
#define TOL 1e-9
#define GRAD_TOL 1e-12
/* Forced inlining is what instantiates a body: N, K and NAX reach it as
   literal constants from the dispatch in phi_share / mu_share. */
#define BODY static inline __attribute__((always_inline))
#define SHARE static __attribute__((noinline))

typedef long long i64;

int repro_num_threads(void)
{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

/* Threads of a sweep: each gets a contiguous share of the (i0, i1)
   lines, so never more threads than lines. */
static int team_size(i64 lines)
{
    const i64 t = repro_num_threads();
    return (int)(t < lines ? t : (lines > 0 ? lines : 1));
}

/* Slot of the staggered buffer that holds the face below cell
   (i1, i2) along axis d: the previous z-cell, y-line or x-plane. */
BODY i64 face_slot(const int NAX, int d, i64 n2, i64 i1, i64 i2)
{
    if (d == NAX - 1) return 0;
    if (d == NAX - 2) return 1 + i2;
    return 1 + n2 + i1 * n2 + i2;
}

static i64 face_slots(int nax, i64 n1, i64 n2)
{
    return 1 + n2 + (nax == 3 ? n1 * n2 : 0);
}

/* ------------------------------------------------------------------ */
/* phi sweep (Eqs. 1-2)                                                */
/* ------------------------------------------------------------------ */

typedef struct {
    const double *phi, *mu, *tg, *gamma, *tau, *inv_curv;
    const double *cmin_z, *lat_z;  /* T(z) tables */
    double *out;
    double *scratch;               /* per_thread doubles for each thread */
    i64 n0, n1, n2, slots, per_thread;
    double dx, dt, eps, gt;
    int N, K, nax, shortcuts;
} phi_args;

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
    const double dt = A->dt, eps = A->eps, gt = A->gt;
    const double inv_dx = 1.0 / A->dx, inv_2dx = 1.0 / (2.0 * A->dx);
    const int shortcuts = A->shortcuts;
    const double pref = 16.0 / (M_PI * M_PI);
    i64 off[3] = {g2, 1, 0};
    if (NAX == 3) { off[0] = g1 * g2; off[1] = g2; off[2] = 1; }

    /* sweep constants, local so that no store can alias them */
    double gam2[MAXN][MAXN], gamw[MAXN][MAXN], rate[MAXN];
    double ic[MAXN][MAXK][MAXK];
    for (int a = 0; a < N; a++) {
        rate[a] = dt / (A->tau[a] * eps);
        for (int b = 0; b < N; b++) {
            gam2[a][b] = 2.0 * A->gamma[a * N + b];
            gamw[a][b] = pref * A->gamma[a * N + b];
        }
        for (int i = 0; i < K; i++)
            for (int j = 0; j < K; j++)
                ic[a][i][j] = A->inv_curv[(a * K + i) * K + j];
    }

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
    (void)diff;

    /* per call: T(z) tables, then each thread's face buffer + stamps */
    const i64 per_thread = slots * (N + 1);
    double *mem = (double *)malloc(
        (size_t)(n2 * N * (K + 1) + team * per_thread) * sizeof(double));
    if (!mem) return 1;
    double *cmin_z = mem, *lat_z = cmin_z + n2 * N * K;
    for (i64 iz = 0; iz < n2; iz++) {
        const double dT = tg[iz + 1] - t_eut;
        for (int a = 0; a < N; a++) {
            lat_z[iz * N + a] = latent[a] * dT;
            for (int i = 0; i < K; i++)
                cmin_z[(iz * N + a) * K + i] =
                    c_eq[a * K + i] + c_slope[a * K + i] * dT;
        }
    }
    const phi_args A = {
        .phi = phi, .mu = mu, .tg = tg, .gamma = gamma, .tau = tau,
        .inv_curv = inv_curv, .cmin_z = cmin_z, .lat_z = lat_z, .out = out,
        .scratch = lat_z + n2 * N, .n0 = n0, .n1 = n1, .n2 = n2,
        .slots = slots, .per_thread = per_thread,
        .dx = scal[0], .dt = scal[1], .eps = scal[2], .gt = scal[3],
        .N = N, .K = K, .nax = nax, .shortcuts = shortcuts,
    };
#ifdef _OPENMP
    if (team > 1) {
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

typedef struct {
    const double *mu, *phi_src, *phi_dst, *t_old, *t_new;
    const double *inv_curv, *c_slope, *diff;
    const double *cmin_c, *cmin_f;  /* T(z) tables: centres, z-faces */
    double *out;
    double *scratch;                /* per_thread doubles for each thread */
    i64 n0, n1, n2, slots, per_thread;
    double dx, dt, eps;
    int N, K, nax, ell, anti_trapping, shortcuts, include_at, only_at;
} mu_args;

/* Everything a face evaluation needs besides the two cells. */
typedef struct {
    const double *mu, *ps, *pd;
    i64 cs, off[3];
    double inv_dx, inv_2dx, dt, pref_at;
    int ell;
    double ic[MAXN][MAXK][MAXK], diff[MAXN];
} mu_face_env;

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
    E.mu = mu; E.ps = phi_src; E.pd = phi_dst; E.cs = cs;
    E.off[0] = g2; E.off[1] = 1; E.off[2] = 0;
    if (NAX == 3) { E.off[0] = g1 * g2; E.off[1] = g2; E.off[2] = 1; }
    E.inv_dx = 1.0 / A->dx; E.inv_2dx = 1.0 / (2.0 * A->dx);
    E.dt = dt; E.pref_at = M_PI * A->eps / 4.0; E.ell = ell;
    for (int a = 0; a < N; a++) {
        E.diff[a] = A->diff[a];
        for (int i = 0; i < K; i++) {
            c_slope[a][i] = A->c_slope[a * K + i];
            for (int j = 0; j < K; j++)
                E.ic[a][i][j] = A->inv_curv[(a * K + i) * K + j];
        }
    }
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

    /* per call: T(z) tables at cell centres and growth-axis faces, then
       each thread's two face buffers + two stamp arrays */
    const i64 per_thread = slots * (2 * K + 2);
    double *mem = (double *)malloc(
        (size_t)((2 * n2 + 1) * N * K + team * per_thread) * sizeof(double));
    if (!mem) return 1;
    double *cmin_c = mem, *cmin_f = cmin_c + n2 * N * K;
    for (i64 iz = 0; iz < n2; iz++) {
        const double dT = t_old[iz + 1] - t_eut;
        for (int a = 0; a < N; a++)
            for (int i = 0; i < K; i++)
                cmin_c[(iz * N + a) * K + i] =
                    c_eq[a * K + i] + c_slope[a * K + i] * dT;
    }
    for (i64 f = 0; f < n2 + 1; f++) {
        const double dT = 0.5 * (t_old[f] + t_old[f + 1]) - t_eut;
        for (int a = 0; a < N; a++)
            for (int i = 0; i < K; i++)
                cmin_f[(f * N + a) * K + i] =
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
        .include_at = include_at, .only_at = only_at,
    };
#ifdef _OPENMP
    if (team > 1) {
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

_CC_CANDIDATES = ("cc", "gcc", "clang")
#: Tried in order; the first list the toolchain accepts is the build.
_FLAG_SETS = (
    ("-O3", "-ffp-contract=off", "-fopenmp"),  # threaded build first
    ("-O3", "-ffp-contract=off"),              # serial fallback
)
_BUILD_TIMEOUT_S = 300

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
    import shutil

    for cc in _CC_CANDIDATES:
        path = shutil.which(cc)
        if path:
            return path
    return None


def _tag(cc: str, flags: tuple[str, ...]) -> str:
    """Cache key of one build: everything that determines the object."""
    text = "\0".join((_C_SOURCE, _CDEF, cc, *flags))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _compile(cc: str, cache: Path) -> Path:
    """Build the kernel library into the cache, or find it there.

    The source reaches the compiler on stdin and the object is moved into
    place under its final name, so a concurrent process sees either no
    file or a complete one.
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
        fd, tmp = tempfile.mkstemp(
            suffix=".so", prefix="repro_kernels_", dir=str(cache)
        )
        os.close(fd)
        try:
            proc = subprocess.run(
                [cc, *flags, "-fPIC", "-shared", "-x", "c", "-",
                 "-o", tmp, "-lm"],
                input=_C_SOURCE, capture_output=True, text=True,
                timeout=_BUILD_TIMEOUT_S,
            )
            if proc.returncode == 0:
                os.replace(tmp, target)
                return target
            last = proc.stderr.strip()
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
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
    """OpenMP thread count of the loaded library (1 = serial build)."""
    lib = load()
    return int(lib.repro_num_threads()) if lib is not None else 0


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
