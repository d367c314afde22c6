"""Tests of the compiled kernel rungs and their backend selection.

Three layers are pinned here:

* the selection machinery — ``REPRO_KERNEL_BACKEND`` / ``set_backend``,
  availability reporting, the documented fallback to the NumPy twins —
  which must behave sensibly whether or not a backend exists,
* the build cache of the cffi backend (key, concurrent cold builds,
  error reporting),
* the live backend, when it is usable: registry-invoked equivalence with
  the reference (shipped and generic instantiations, ``dx != 1``), the
  split mu sweep of the overlap schedule, warmup, end-to-end solver
  integration, and the bitwise guarantees the staggered face buffers must
  keep — a block's result is a pure function of its ghosted input,
  whatever the block shape, the OpenMP thread count or the number of
  Python threads inside the library.  With the C text as the single
  source of the algorithm, these are what tells an algorithm bug (wrong
  against the reference everywhere) from a buffering bug (wrong only
  where a face is reused).

The sweep body of both rungs compiled at W = 4 (SIMD) is pinned to the
same body compiled at W = 1 (the "scalar body" of the test names) bit
for bit — its exact-zero skips included, on grown states where most
faces take them and beside NaN/inf inputs that forbid them, and the
shortcuts of ``compiled_shortcuts`` with lanes planted on either side of
each predicate edge.  Both widths are pinned to digests of what the
hand-written cellwise C body, which the W = 1 compile replaced, stored,
and the W = 1 body compiled with its T(z) tables or staggered face
buffers turned off (the Fig. 6 ablations) to the shipped one.
A process forked after the library ran an OpenMP team must still finish
its sweeps.
"""

import contextlib
import hashlib
import os
import signal
import subprocess
import sys
import threading
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    COMPILED_RUNGS,
    FALLBACK_RUNGS,
    available_rungs,
    get_mu_kernel,
    get_phi_kernel,
    get_split_mu_kernel,
    make_context,
    rung_available,
)
from repro.core.kernels import compiled
from repro.core.kernels.compiled import cffi_backend
from repro.core.parameters import PhaseFieldParameters
from repro.core.scenarios import fill_ghosts_periodic, make_scenario
from repro.perf.kernel_analysis import SHORTCUT_TOL
from repro.thermo.calphad import CalphadData
from repro.thermo.parabolic import ParabolicFreeEnergy
from repro.thermo.phases import Component, Phase, PhaseSet
from repro.thermo.system import TernaryEutecticSystem

HAVE_BACKEND = compiled.available()
needs_backend = pytest.mark.skipif(
    not HAVE_BACKEND, reason="no compiled kernel backend available"
)

SHAPE = (4, 5, 7)
SRC = Path(__file__).resolve().parents[1] / "src"


def _state(shape, seed=2, system=None, params=None):
    """Ghosted inputs of both sweeps on the interface scenario and what
    the reference kernels make of them."""
    dim = len(shape)
    phi, mu, tg, system, params = make_scenario(
        "interface", shape, system=system, params=params, seed=seed
    )
    ctx = make_context(system, params)
    ref_phi = get_phi_kernel("reference")(ctx, phi, mu, tg)
    phi_dst = phi.copy()
    phi_dst[(slice(None),) + (slice(1, -1),) * dim] = ref_phi
    fill_ghosts_periodic(phi_dst, dim)
    t_new = tg - 0.015
    ref_mu = get_mu_kernel("reference")(ctx, mu, phi, phi_dst, tg, t_new)
    return dict(
        ctx=ctx, phi=phi, mu=mu, tg=tg, phi_dst=phi_dst, t_new=t_new,
        ref_phi=ref_phi, ref_mu=ref_mu,
    )


@pytest.fixture()
def interface3d():
    return _state(SHAPE)


def _entry_points(rung, s):
    """phi, mu, mu-local and mu-neighbour of *rung* on the state *s*."""
    ctx = s["ctx"]
    local, neighbor = get_split_mu_kernel(rung)
    mu_args = (s["mu"], s["phi"], s["phi_dst"], s["tg"], s["t_new"])
    partial = local(ctx, *mu_args)
    return {
        "phi": get_phi_kernel(rung)(ctx, s["phi"], s["mu"], s["tg"]),
        "mu": get_mu_kernel(rung)(ctx, *mu_args),
        "mu_local": partial,
        "mu_neighbor": neighbor(
            ctx, partial, s["mu"], s["phi"], s["phi_dst"], s["tg"]
        ),
    }


def _binary_eutectic():
    """A 3-phase / 1-solute system: nothing the shipped instantiations
    (N = 4, K = 2) cover, so it runs the generic one."""
    te = 800.0

    def fe(curv, c_eq, c_slope, latent):
        return ParabolicFreeEnergy(
            curvature=np.array([[curv]]), c_eq=np.array([c_eq]),
            c_slope=np.array([c_slope]), latent_slope=latent, t_eutectic=te,
        )

    return TernaryEutecticSystem(CalphadData(
        phase_set=PhaseSet(
            phases=(Phase("alpha"), Phase("beta"),
                    Phase("liquid", is_liquid=True)),
            components=(Component("B"), Component("A", solvent=True)),
        ),
        free_energies=(fe(28.0, 0.1, -6e-4, 0.17), fe(34.0, 0.8, 4e-4, 0.16),
                       fe(9.0, 0.4, 0.0, 0.0)),
        t_eutectic=te, liquid_c_eq=np.array([0.4]),
        diffusivities=(1e-4, 1e-4, 1.0),
    ))


@pytest.fixture()
def restore_backend():
    """Undo any set_backend() override after the test."""
    yield
    compiled.set_backend(None)


# ---------------------------------------------------------------------------
# selection and availability
# ---------------------------------------------------------------------------


class TestSelection:
    def test_disabled_backend_reports_unavailable(self, restore_backend):
        compiled.set_backend("none")
        assert not compiled.available()
        assert compiled.backend_name() is None
        assert "disabled" in compiled.unavailable_reason()
        for rung in COMPILED_RUNGS:
            assert not rung_available(rung)
        assert set(COMPILED_RUNGS).isdisjoint(available_rungs())

    def test_unknown_backend_name_reports_reason(self, restore_backend):
        compiled.set_backend("turbofan")
        assert not compiled.available()
        assert "turbofan" in compiled.unavailable_reason()

    def test_env_var_controls_selection(self, restore_backend, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "none")
        compiled.set_backend(None)  # drop cache, re-read environment
        assert not compiled.available()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        compiled.set_backend(None)
        assert compiled.available() == bool(compiled.available_backends())

    def test_invoking_without_backend_raises(
        self, restore_backend, interface3d
    ):
        compiled.set_backend("none")
        s = interface3d
        with pytest.raises(compiled.CompiledBackendUnavailable,
                           match="no compiled kernel backend"):
            get_phi_kernel("compiled")(s["ctx"], s["phi"], s["mu"], s["tg"])

    def test_maybe_fallback_degrades_with_warning(self, restore_backend):
        compiled.set_backend("none")
        for rung, numpy_twin in FALLBACK_RUNGS.items():
            with pytest.warns(RuntimeWarning, match="falling back"):
                assert compiled.maybe_fallback(rung) == numpy_twin
        # NumPy rungs pass through untouched, warning-free
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compiled.maybe_fallback("shortcut") == "shortcut"

    @needs_backend
    def test_maybe_fallback_keeps_compiled_when_available(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rung in COMPILED_RUNGS:
                assert compiled.maybe_fallback(rung) == rung

    @needs_backend
    def test_registry_reports_compiled_rungs_available(self):
        got = available_rungs()
        for rung in COMPILED_RUNGS:
            assert rung in got


# ---------------------------------------------------------------------------
# build cache of the cffi backend
# ---------------------------------------------------------------------------

_PROBE = (
    f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    "from repro.core.kernels.compiled import cffi_backend as b; "
    "print(b.available(), b.build_error())"
)


class TestBuildCache:
    def test_flags_are_part_of_the_cache_key(self):
        threaded, serial = cffi_backend._FLAG_SETS
        assert threaded != serial
        assert cffi_backend._tag("cc", threaded) != cffi_backend._tag(
            "cc", serial
        )
        assert cffi_backend._tag("cc", serial) != cffi_backend._tag(
            "gcc", serial
        )

    def test_build_timeout_is_reported_not_raised(self, monkeypatch, tmp_path):
        """A compiler that hangs must leave a reason behind (and no temp
        file), not escape ``available()`` and not read as 'unavailable
        for no reason'."""
        pytest.importorskip("cffi")

        def hang(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

        for name, fresh in (("_loaded", False), ("_lib", None),
                            ("_build_error", None)):
            monkeypatch.setattr(cffi_backend, name, fresh)
        monkeypatch.setattr(cffi_backend, "_find_cc", lambda: "/bin/cc")
        monkeypatch.setenv("REPRO_COMPILED_CACHE", str(tmp_path))
        monkeypatch.setattr(subprocess, "run", hang)
        assert cffi_backend.available() is False
        assert "timed out" in cffi_backend.build_error()
        assert list(tmp_path.iterdir()) == []

    @needs_backend
    def test_concurrent_cold_builds_all_succeed(self, tmp_path):
        """Four processes started together against an empty cache: every
        one ends up with a working library and the cache with exactly one
        object (nothing half-written is ever visible)."""
        env = dict(os.environ, REPRO_COMPILED_CACHE=str(tmp_path),
                   REPRO_KERNEL_BACKEND="cffi")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _PROBE], env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(4)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            assert out.split() == ["True", "None"], (out, err)
        assert len(list(tmp_path.glob("*.so"))) == 1
        assert [p.name for p in tmp_path.iterdir() if p.suffix != ".so"] == []


# ---------------------------------------------------------------------------
# live backend (skipped without a C toolchain + cffi)
# ---------------------------------------------------------------------------


@needs_backend
class TestCompiledBackend:
    @pytest.mark.parametrize("rung", COMPILED_RUNGS)
    def test_split_mu_equals_full_sweep(self, interface3d, rung):
        """local + neighbour must compose to the full mu kernel — the
        contract the Algorithm 2 overlap schedule relies on."""
        s = interface3d
        full = get_mu_kernel(rung)(
            s["ctx"], s["mu"], s["phi"], s["phi_dst"], s["tg"], s["t_new"]
        )
        local, neighbor = get_split_mu_kernel(rung)
        partial = local(
            s["ctx"], s["mu"], s["phi"], s["phi_dst"], s["tg"], s["t_new"]
        )
        out = neighbor(
            s["ctx"], partial, s["mu"], s["phi"], s["phi_dst"], s["tg"]
        )
        np.testing.assert_allclose(out, full, atol=1e-13)
        np.testing.assert_allclose(out, s["ref_mu"], atol=1e-11)

    def test_warmup_returns_elapsed_seconds(self):
        phi, mu, tg, system, params = make_scenario(
            "interface", (2, 2, 2), seed=0
        )
        ctx = make_context(system, params)
        elapsed = compiled.warmup(ctx)
        assert isinstance(elapsed, float)
        assert elapsed >= 0.0

    def test_2d_matches_reference(self):
        phi, mu, tg, system, params = make_scenario(
            "interface", (6, 9), seed=4
        )
        ctx = make_context(system, params)
        ref = get_phi_kernel("reference")(ctx, phi, mu, tg)
        phi_dst = phi.copy()
        phi_dst[(slice(None),) + (slice(1, -1),) * 2] = ref
        fill_ghosts_periodic(phi_dst, 2)
        t_new = tg - 0.01
        ref_mu = get_mu_kernel("reference")(ctx, mu, phi, phi_dst, tg, t_new)
        for rung in COMPILED_RUNGS:
            out = get_phi_kernel(rung)(ctx, phi, mu, tg)
            np.testing.assert_allclose(out, ref, atol=1e-11, err_msg=rung)
            out_mu = get_mu_kernel(rung)(ctx, mu, phi, phi_dst, tg, t_new)
            np.testing.assert_allclose(
                out_mu, ref_mu, atol=1e-11, err_msg=rung
            )


def _assert_matches_reference(s):
    for rung in COMPILED_RUNGS:
        got = _entry_points(rung, s)
        for name, ref in (("phi", "ref_phi"), ("mu", "ref_mu"),
                          ("mu_neighbor", "ref_mu")):
            np.testing.assert_allclose(
                got[name], s[ref], atol=1e-11, err_msg=f"{rung} {name}"
            )


@needs_backend
class TestInstantiations:
    @pytest.mark.parametrize("shape", [(4, 5, 7), (6, 9)])
    def test_generic_instantiation_matches_reference(self, shape):
        """N = 3, K = 1 runs the run-time-generic instantiation and the
        general (K != 2) susceptibility solve."""
        system = _binary_eutectic()
        assert (system.n_phases, system.n_solutes) == (3, 1)
        _assert_matches_reference(_state(shape, seed=1, system=system))

    @pytest.mark.parametrize("dx", [0.5, 0.3])
    @pytest.mark.parametrize("shape", [(4, 5, 7), (6, 9)])
    def test_grid_spacing_other_than_one(self, shape, dx):
        """The sweeps multiply by 1/dx and 1/(2 dx) computed once; that
        is exact only for powers of two and must stay within tolerance
        otherwise."""
        system = TernaryEutecticSystem()
        params = PhaseFieldParameters.for_system(
            system, dim=len(shape), dx=dx
        )
        _assert_matches_reference(_state(shape, params=params))


# whole-array results the cut-outs are compared with: shape -> (state,
# {rung: entry points}); computed once, the reference kernel is slow
_WHOLE: dict = {}


def _speckle(s, seed):
    """Overwrite a third of the cells of state *s* with isolated grains.

    The interface scenario varies along z only, so neighbours across a
    face nearly always agree on being front cells or not.  Grains of
    pure solid, of solid with a liquid trace below the front threshold,
    of two solids and of solid plus melt put every combination of the
    shortcut flags on the two sides of a face, with an anti-trapping
    current through it that is tiny but not zero.
    """
    rng = np.random.default_rng(seed)
    dim = s["phi"].ndim - 1
    ell = s["ctx"].liquid
    solids = [a for a in range(s["ctx"].n_phases) if a != ell]
    grains = []
    for a in solids:
        b = solids[(solids.index(a) + 1) % len(solids)]
        grains += [{a: 1.0}, {a: 1.0 - 5e-10, ell: 5e-10},
                   {a: 0.5, b: 0.5}, {a: 0.7, ell: 0.3}]
    for name in ("phi", "phi_dst"):
        interior = s[name][(slice(None),) + (slice(1, -1),) * dim]
        for idx in np.ndindex(interior.shape[1:]):
            if rng.random() < 1 / 3:
                interior[(slice(None),) + idx] = 0.0
                for a, v in grains[rng.integers(len(grains))].items():
                    interior[(a,) + idx] = v
        fill_ghosts_periodic(s[name], dim)
    return s


def _whole(shape):
    if shape not in _WHOLE:
        s = _speckle(_state(shape, seed=5), seed=7)
        _WHOLE[shape] = (s, {r: _entry_points(r, s) for r in COMPILED_RUNGS})
    return _WHOLE[shape]


@st.composite
def _sub_boxes(draw, shape):
    """Per axis ``(first cell, extent)`` of a sub-box of *shape*."""
    box = []
    for n in shape:
        lo = draw(st.integers(0, n - 1))
        box.append((lo, draw(st.integers(1, n - lo))))
    return tuple(box)


def _cut(arr, box):
    """The ghosted cut-out of a ghosted array around the interior *box*."""
    lead = (slice(None),) * (arr.ndim - len(box))
    return np.ascontiguousarray(
        arr[lead + tuple(slice(lo, lo + n + 2) for lo, n in box)]
    )


def _check_block_independence(shape, box):
    s, whole = _whole(shape)
    (z0, nz) = box[-1]
    sub = dict(
        ctx=s["ctx"], phi=_cut(s["phi"], box), mu=_cut(s["mu"], box),
        phi_dst=_cut(s["phi_dst"], box),
        tg=s["tg"][z0:z0 + nz + 2].copy(),
        t_new=s["t_new"][z0:z0 + nz + 2].copy(),
    )
    region = (slice(None),) + tuple(slice(lo, lo + n) for lo, n in box)
    for rung in COMPILED_RUNGS:
        for name, got in _entry_points(rung, sub).items():
            assert np.array_equal(got, whole[rung][name][region]), (
                rung, name, box
            )


@needs_backend
class TestBitwiseGuarantees:
    """What the staggered buffers must not change: reuse or recompute, a
    face contributes the same bits, so a result depends on the ghosted
    input alone."""

    @settings(max_examples=40, deadline=None)
    @given(box=_sub_boxes((5, 4, 9)))
    def test_block_independence_3d(self, box):
        """Any cut-out block — down to one cell, at any offset — gives
        the bits the whole array gives there: the property the bitwise
        serial-vs-distributed tests of Algorithm 1 rest on."""
        _check_block_independence((5, 4, 9), box)

    @settings(max_examples=40, deadline=None)
    @given(box=_sub_boxes((9, 14)))
    def test_block_independence_2d(self, box):
        _check_block_independence((9, 14), box)

    def test_thread_count_independence(self):
        """One sweep of every entry point on (5, 6, 7), in a process per
        OMP_NUM_THREADS: same CRC whatever the thread count."""
        code = (
            f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(SRC.parent)!r}]\n"
            "from tests.test_kernels_compiled import _crc_of_one_sweep\n"
            "print(_crc_of_one_sweep())\n"
        )
        seen = {}
        for threads in (1, 2, 3):
            done = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                timeout=300,
                env={**os.environ, "OMP_NUM_THREADS": str(threads)},
            )
            assert done.returncode == 0, done.stderr
            used, crc = done.stdout.split()
            if threads > 1 and used == "1":
                pytest.skip("kernel library was built without OpenMP")
            assert int(used) == threads
            seen[threads] = crc
        assert len(set(seen.values())) == 1, seen

    def test_concurrent_entry_from_python_threads(self):
        """cffi releases the GIL, so thread ranks are inside the library
        at the same time: scratch must be per call."""
        states = [_state((4, 5, 6), seed=3), _state((3, 6, 5), seed=4)]
        expected = [_entry_points("compiled_shortcuts", s) for s in states]
        failures = []
        start = threading.Barrier(len(states))

        def sweep(s, want):
            start.wait()
            for _ in range(50):
                got = _entry_points("compiled_shortcuts", s)
                if not all(np.array_equal(got[k], want[k]) for k in want):
                    failures.append(s["phi"].shape)
                    return

        workers = [
            threading.Thread(target=sweep, args=pair)
            for pair in zip(states, expected)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
            assert not t.is_alive()
        assert failures == []


# ---------------------------------------------------------------------------
# block-list sweeps: one call over a rank's blocks
# ---------------------------------------------------------------------------

# whole speckled inputs the blocks are cut from: (dim, generic) -> state
_INPUTS: dict = {}


def _inputs(dim: int, generic: bool):
    """Speckled ghosted inputs of both sweeps (no reference run)."""
    key = (dim, generic)
    if key not in _INPUTS:
        shape = (5, 4, 9) if dim == 3 else (9, 14)
        phi, mu, tg, system, params = make_scenario(
            "interface", shape, seed=5,
            system=_binary_eutectic() if generic else None,
        )
        s = dict(ctx=make_context(system, params), phi=phi, mu=mu, tg=tg,
                 phi_dst=phi.copy(), t_new=tg - 0.015)
        _INPUTS[key] = (shape, _speckle(s, seed=7))
    return _INPUTS[key]


def _blocks(s, boxes):
    """``(blocks, temps)`` of a block list cut from the state *s*: each
    block's Field pair holds its cut-out of the inputs and sits at the z
    offset of its box."""
    from repro.grid.field import Field

    ctx, blocks, temps = s["ctx"], [], []
    for box in boxes:
        shape = tuple(n for _lo, n in box)
        phi = Field(ctx.n_phases, shape)
        mu = Field(ctx.n_solutes, shape)
        phi.src[...] = _cut(s["phi"], box)
        phi.dst[...] = _cut(s["phi_dst"], box)
        mu.src[...] = _cut(s["mu"], box)
        mu.dst.fill(np.nan)
        z0, nz = box[-1]
        blocks.append((phi, mu, z0, nz))
        temps.append((s["tg"][z0:z0 + nz + 2].copy(),
                      s["t_new"][z0:z0 + nz + 2].copy()))
    return blocks, temps


@st.composite
def _block_lists(draw):
    """A dimension, an instantiation and one to three sub-boxes (of
    different shapes, at different z offsets) of its whole input."""
    dim = draw(st.sampled_from([2, 3]))
    generic = draw(st.booleans())
    shape, _s = _inputs(dim, generic)
    boxes = draw(st.lists(_sub_boxes(shape), min_size=1, max_size=3))
    return dim, generic, boxes


def _check_block_list(rung, s, boxes):
    """Every block-list sweep of *rung* stores, in each block's ``dst``
    interior, the bits the per-block kernel returns for that block."""
    from repro.core.kernels.api import block_sweep

    ctx = s["ctx"]
    blocks, temps = _blocks(s, boxes)
    phi_k, mu_k = get_phi_kernel(rung), get_mu_kernel(rung)
    local, neighbor = get_split_mu_kernel(rung)

    def check(kind, kernel, field, per_block):
        want = [per_block(phi, mu, t_old, t_new).copy()
                for (phi, mu, _z, _n), (t_old, t_new) in zip(blocks, temps)]
        nonfinite = block_sweep(kernel, kind)(ctx, blocks, temps)
        for block, expected in zip(blocks, want):
            assert np.array_equal(block[field].interior_dst, expected), (
                rung, kind, boxes)
        assert nonfinite == (not all(np.isfinite(w).all() for w in want))

    check("phi", phi_k, 0, lambda phi, mu, t_old, t_new: phi_k(
        ctx, phi.src, mu.src, t_old))
    check("mu", mu_k, 1, lambda phi, mu, t_old, t_new: mu_k(
        ctx, mu.src, phi.src, phi.dst, t_old, t_new))
    check("mu", local, 1, lambda phi, mu, t_old, t_new: local(
        ctx, mu.src, phi.src, phi.dst, t_old, t_new))
    # the neighbour part is seeded from the local part left in dst
    check("mu_neighbor", neighbor, 1, lambda phi, mu, t_old, t_new: neighbor(
        ctx, mu.interior_dst.copy(), mu.src, phi.src, phi.dst, t_old))


@needs_backend
class TestBlockListSweeps:
    """``repro_phi_blocks`` / ``repro_mu_blocks``: one C call per sweep
    over a block list, results stored in the ghosted ``dst`` interiors,
    non-finite results reported by status."""

    @settings(max_examples=40, deadline=None)
    @given(case=_block_lists())
    def test_equal_to_per_block_calls(self, case):
        """Bitwise equal to one kernel call per block — 2-D and 3-D, the
        specialised (4, 2) and the generic instantiation, both rungs
        (shortcuts off and on), full, split-local and seeded
        split-neighbour µ, blocks at different z offsets."""
        dim, generic, boxes = case
        _shape, s = _inputs(dim, generic)
        for rung in COMPILED_RUNGS:
            _check_block_list(rung, s, boxes)

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    @pytest.mark.parametrize("rung", COMPILED_RUNGS)
    def test_nonfinite_result_is_reported(self, rung, poison):
        """A non-finite input value reaches the stored result of its
        block, and the status says so."""
        _shape, s = _inputs(3, False)
        boxes = [((0, 3), (0, 2), (0, 4)), ((1, 3), (2, 2), (4, 5))]
        blocks, temps = _blocks(s, boxes)
        blocks[1][1].src[0, 2, 2, 3] = poison
        ctx = s["ctx"]
        assert not get_phi_kernel(rung).blocks()(ctx, blocks[:1], temps[:1])
        assert get_mu_kernel(rung).blocks()(ctx, blocks, temps)
        assert np.isfinite(blocks[0][1].interior_dst).all()
        assert not np.isfinite(blocks[1][1].interior_dst).all()

    @pytest.mark.parametrize("rung", COMPILED_RUNGS)
    def test_one_sweep_follows_swapped_and_new_buffers(self, rung):
        """A sweep keeps the pointer tables of the buffers it has seen:
        after the buffers trade roles, or the blocks are replaced, it
        must point at the arrays it is given, not at the ones it saw."""
        from repro.core.kernels.api import block_sweep

        _shape, s = _inputs(3, False)
        ctx, phi_k = s["ctx"], get_phi_kernel(rung)
        sweep = block_sweep(phi_k, "phi")
        boxes = [((0, 3), (0, 2), (0, 4)), ((1, 3), (2, 2), (4, 5))]
        blocks, temps = _blocks(s, boxes)
        for step in range(4):
            if step == 2:
                blocks, temps = _blocks(s, boxes[::-1])
            want = [phi_k(ctx, phi.src, mu.src, t_old)
                    for (phi, mu, _z, _n), (t_old, _t) in zip(blocks, temps)]
            sweep(ctx, blocks, temps)
            for (phi, _mu, _z, _n), expected in zip(blocks, want):
                assert np.array_equal(phi.interior_dst, expected), step
            for phi, mu, _z, _n in blocks:
                mu.dst[...] = mu.src
                phi.swap()
                mu.swap()

    def test_mismatched_block_buffers_rejected(self):
        """Pointers leave Python only for buffers of the block's shape
        and the context's component counts."""
        from repro.grid.field import Field

        _shape, s = _inputs(3, False)
        ctx = s["ctx"]
        blocks, temps = _blocks(s, [((0, 3), (0, 2), (0, 4))])
        phi = blocks[0][0]
        for mu in (Field(ctx.n_solutes, (3, 2, 5)),
                   Field(ctx.n_solutes + 1, (3, 2, 4))):
            with pytest.raises(ValueError, match="ghosted shape"):
                get_mu_kernel("compiled").blocks()(
                    ctx, [(phi, mu, 0, 4)], temps)
        with pytest.raises(TypeError, match="float64"):
            get_phi_kernel("compiled").blocks()(ctx, [(
                Field(ctx.n_phases, (3, 2, 4), dtype=np.float32),
                Field(ctx.n_solutes, (3, 2, 4), dtype=np.float32), 0, 4,
            )], temps)

    def test_empty_block_list(self):
        _shape, s = _inputs(3, False)
        for rung in COMPILED_RUNGS:
            assert get_phi_kernel(rung).blocks()(s["ctx"], [], []) is False
            assert get_mu_kernel(rung).blocks()(s["ctx"], [], []) is False


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("rung", ["buffered", "shortcut"])
def test_numpy_loop_sweep_equals_per_block_loop(rung, dim):
    """The loop adapter of the NumPy rungs stores what the per-block
    loop ``interior_dst[...] = kernel(...)`` stored, and reports a
    non-finite result."""
    _shape, s = _inputs(dim, False)
    boxes = ([((0, 3), (0, 2), (0, 4)), ((1, 4), (2, 2), (4, 5))]
             if dim == 3 else [((0, 5), (0, 6)), ((2, 4), (6, 8))])
    _check_block_list(rung, s, boxes)
    blocks, temps = _blocks(s, boxes)
    blocks[0][0].src[(1,) + (2,) * dim] = np.nan
    from repro.core.kernels.api import loop_sweep

    phi_nonfinite = loop_sweep(get_phi_kernel(rung), "phi")(
        s["ctx"], blocks, temps)
    mu_nonfinite = loop_sweep(get_mu_kernel(rung), "mu")(
        s["ctx"], blocks, temps)
    assert phi_nonfinite or mu_nonfinite


def _crc_of_one_sweep() -> str:
    """``"<kernel threads> <crc>"`` of all entry points of both rungs on
    the (5, 6, 7) interface block (run by the thread-count test)."""
    s = _state((5, 6, 7), seed=6)
    crc = 0
    for rung in COMPILED_RUNGS:
        for name, arr in sorted(_entry_points(rung, s).items()):
            crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return f"{cffi_backend.num_threads()} {crc}"


@needs_backend
class TestSolverIntegration:
    def test_simulation_records_compile_seconds(self):
        from repro.core.solver import Simulation

        sim = Simulation((4, 4, 8), kernel="compiled")
        assert sim.kernel_name == "compiled"
        assert isinstance(sim.compile_seconds, float)
        assert sim.compile_seconds >= 0.0
        numpy_sim = Simulation((4, 4, 8), kernel="shortcut")
        assert numpy_sim.compile_seconds == 0.0

    def test_simulation_matches_numpy_rung(self):
        from repro.core.solver import Simulation

        def run(rung):
            sim = Simulation((4, 4, 12), kernel=rung)
            sim.initialize_voronoi(seed=3)
            sim.step(5)
            return sim

        ref = run("buffered")
        got = run("compiled")
        np.testing.assert_allclose(
            got.phi.interior_src, ref.phi.interior_src, atol=1e-12
        )
        np.testing.assert_allclose(
            got.mu.interior_src, ref.mu.interior_src, atol=1e-12
        )

    def test_simulation_falls_back_when_unavailable(self, restore_backend):
        from repro.core.solver import Simulation

        compiled.set_backend("none")
        with pytest.warns(RuntimeWarning, match="falling back"):
            sim = Simulation((4, 4, 8), kernel="compiled")
        assert sim.kernel_name == "buffered"
        assert sim.compile_seconds == 0.0

    @pytest.mark.parametrize("overlap", [False, True])
    def test_distributed_matches_single_block(self, overlap):
        from repro.core.solver import Simulation
        from repro.distributed.solver import DistributedSimulation

        shape = (4, 4, 12)
        seed_sim = Simulation(shape, kernel="buffered")
        seed_sim.initialize_voronoi(seed=3)
        seed_sim.step(2)
        phi0 = seed_sim.phi.interior_src.copy()
        mu0 = seed_sim.mu.interior_src.copy()

        single = Simulation(shape, kernel="compiled_shortcuts")
        single.initialize(phi0, mu0)
        single.step(4)
        dist = DistributedSimulation(
            shape, (2, 1, 1), kernel="compiled_shortcuts", overlap=overlap
        )
        result = dist.run(4, phi0, mu0)
        np.testing.assert_allclose(
            result.phi, single.phi.interior_src, atol=1e-13
        )
        np.testing.assert_allclose(
            result.mu, single.mu.interior_src, atol=1e-13
        )


# ---------------------------------------------------------------------------
# the four-cell body of ``compiled`` against its scalar body
# ---------------------------------------------------------------------------

def _four_cell_inputs(dim, n2, generic, anti_trapping, dx, seed):
    """Speckled inputs of both sweeps whose z lines are *n2* cells long."""
    shape = (3, 4, n2) if dim == 3 else (5, n2)
    system = _binary_eutectic() if generic else TernaryEutecticSystem()
    params = PhaseFieldParameters.for_system(
        system, dim=dim, dx=dx, anti_trapping=anti_trapping)
    phi, mu, tg, system, params = make_scenario(
        "interface", shape, system=system, params=params, seed=seed)
    s = dict(ctx=make_context(system, params), phi=phi, mu=mu, tg=tg,
             phi_dst=phi.copy(), t_new=tg - 0.015)
    return _speckle(s, seed)


def _sweep_steps(s, boxes, steps=3, rung="compiled"):
    """Interiors stored by three steps of block-list sweeps of *rung*
    (phi, split mu, full mu) whose buffers swap roles after each step,
    the ghosts refilled periodically per block."""
    from repro.core.kernels.api import block_sweep

    ctx = s["ctx"]
    blocks, temps = _blocks(s, boxes)
    local, neighbor = get_split_mu_kernel(rung)
    sweeps = [(block_sweep(get_phi_kernel(rung), "phi"), 0),
              (block_sweep(local, "mu"), 1),
              (block_sweep(neighbor, "mu_neighbor"), 1),
              (block_sweep(get_mu_kernel(rung), "mu"), 1)]
    stored = []
    for _ in range(steps):
        for sweep, field in sweeps:
            sweep(ctx, blocks, temps)
            stored += [block[field].interior_dst.copy() for block in blocks]
        for phi, mu, _z, _n in blocks:
            for f in (phi, mu):
                fill_ghosts_periodic(f.dst, len(boxes[0]))
                f.swap()
    return stored


@needs_backend
class TestFourCellBody:
    """Without shortcuts the sweeps run W = 4 consecutive z cells in
    lockstep on an AVX2 host.  Each lane performs the scalar body's IEEE
    operations in its order, so every entry point must store the scalar
    body's bits: lines shorter than W (scalar body), lines ending in an
    overlapped vector, whole vectors, the generic instantiation (always
    scalar), and block lists whose buffers swap."""

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([2, 3]),
           n2=st.sampled_from([1, 2, 3, 5, 8, 14]),
           generic=st.booleans(), anti_trapping=st.booleans(),
           dx=st.sampled_from([1.0, 0.3]), seed=st.integers(0, 3))
    def test_entry_points_equal_scalar_body(self, dim, n2, generic,
                                            anti_trapping, dx, seed):
        s = _four_cell_inputs(dim, n2, generic, anti_trapping, dx, seed)
        got = _entry_points("compiled", s)
        with cffi_backend._scalar_sweeps():
            want = _entry_points("compiled", s)
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    @settings(max_examples=20, deadline=None)
    @given(case=_block_lists())
    def test_block_lists_equal_scalar_body(self, case):
        dim, generic, boxes = case
        _shape, s = _inputs(dim, generic)
        got = _sweep_steps(s, boxes)
        with cffi_backend._scalar_sweeps():
            want = _sweep_steps(s, boxes)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True), boxes

    def test_scalar_hook_restores_the_width(self):
        width = cffi_backend.simd_width()
        with cffi_backend._scalar_sweeps():
            assert cffi_backend.simd_width() == 1
        assert cffi_backend.simd_width() == width

    def test_avx2_host_runs_four_cells(self):
        try:
            cpuinfo = Path("/proc/cpuinfo").read_text()
        except OSError:
            pytest.skip("no /proc/cpuinfo to read the CPU flags from")
        if " avx2" not in cpuinfo:
            pytest.skip("the CPU has no AVX2")
        assert cffi_backend.simd_width() == 4


# ---------------------------------------------------------------------------
# the exact-zero skips of the four-cell mu body on grown states
# ---------------------------------------------------------------------------

GROWN_SHAPE = (16, 16, 64)
_GROWN: dict = {}


def _grown_state():
    """Ghosted inputs of both sweeps after 30 ``compiled`` steps of the
    interface scenario: bulk solid and bulk melt, where the anti-trapping
    current and the phase-change source are exactly zero, beside a front
    that has grown long enough to leave amplitudes below 1e-9 in it."""
    if not _GROWN:
        from repro.core.solver import Simulation

        phi, mu, tg, system, params = make_scenario(
            "interface", GROWN_SHAPE, seed=0)
        inner = (slice(None),) + (slice(1, -1),) * 3
        sim = Simulation(GROWN_SHAPE, kernel="compiled")
        sim.initialize(phi[inner], mu[inner])
        sim.step(30)
        ctx = make_context(system, params)
        phi = fill_ghosts_periodic(sim.phi.src.copy(), 3)
        mu = fill_ghosts_periodic(sim.mu.src.copy(), 3)
        phi_dst = phi.copy()
        phi_dst[inner] = get_phi_kernel("compiled")(ctx, phi, mu, tg)
        _GROWN.update(ctx=ctx, phi=phi, mu=mu, tg=tg,
                      phi_dst=fill_ghosts_periodic(phi_dst, 3),
                      t_new=tg - 0.015)
    return dict(_GROWN)


def _planted(s, where, value):
    """*s* with *value* written beside a face in the bulk melt whose
    anti-trapping term is skipped: into an edge ghost of a solid phase's
    phi (read by a face normal), a face ghost of its phi_dst (read by
    dphi/dt) or an interior mu cell."""
    s = dict(s, phi=s["phi"].copy(), phi_dst=s["phi_dst"].copy(),
             mu=s["mu"].copy())
    solid = 1 if s["ctx"].liquid == 0 else 0
    k = GROWN_SHAPE[-1] - 4
    if where == "phi edge ghost":
        s["phi"][solid, 0, 0, k] = value
    elif where == "phi_dst ghost":
        s["phi_dst"][solid, 0, 3, k] = value
    else:
        s["mu"][0, 5, 6, k] = value
    return s


def _mu_block_sweeps(s):
    """Status and stored interior of the full, split-local and seeded
    split-neighbour mu block-list sweeps of ``compiled`` over the whole
    state as one block."""
    from repro.core.kernels.api import block_sweep

    ctx = s["ctx"]
    blocks, temps = _blocks(s, [tuple((0, n) for n in GROWN_SHAPE)])
    local, neighbor = get_split_mu_kernel("compiled")
    out = []
    for kernel, kind in ((get_mu_kernel("compiled"), "mu"), (local, "mu"),
                         (neighbor, "mu_neighbor")):
        status = block_sweep(kernel, kind)(ctx, blocks, temps)
        out.append((status, blocks[0][1].interior_dst.copy()))
    return out


@needs_backend
class TestExactZeroSkips:
    """The four-cell mu body leaves out the anti-trapping term of a phase
    whose face amplitude is 0 on all four lanes and the phase-change
    source of cells whose phi did not change; both are +-0, so the
    scalar body's bits must survive, on grown states where most faces
    take the skip and beside non-finite inputs that forbid it."""

    def test_grown_state_takes_the_skips(self):
        from repro.perf.kernel_analysis import skip_census

        s = _grown_state()
        zero_at, steady = skip_census(s["phi"], s["phi_dst"], s["ctx"].liquid)
        assert zero_at >= 0.5
        assert steady >= 0.25

    def test_entry_points_equal_scalar_body(self):
        s = _grown_state()
        got = _entry_points("compiled", s)
        with cffi_backend._scalar_sweeps():
            want = _entry_points("compiled", s)
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("boxes", [
        [((0, 16), (0, 16), (0, 64))],
        [((0, 16), (0, 16), (0, 28)), ((0, 16), (0, 16), (28, 36))],
        [((0, 7), (0, 16), (0, 64)), ((7, 9), (0, 16), (0, 64))],
    ], ids=["one-block", "z-split", "x-split"])
    def test_block_lists_equal_scalar_body(self, boxes):
        s = _grown_state()
        got = _sweep_steps(s, boxes)
        with cffi_backend._scalar_sweeps():
            want = _sweep_steps(s, boxes)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b), boxes

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "where", ["phi edge ghost", "phi_dst ghost", "mu cell"])
    def test_nonfinite_input_beside_a_skipped_face(self, where, value):
        s = _planted(_grown_state(), where, value)
        got, got_sweeps = _entry_points("compiled", s), _mu_block_sweeps(s)
        with cffi_backend._scalar_sweeps():
            want = _entry_points("compiled", s)
            want_sweeps = _mu_block_sweeps(s)
        for name in ("mu", "mu_local", "mu_neighbor"):
            assert np.array_equal(got[name], want[name], equal_nan=True), name
        for (status, stored), (want_status, want_stored) in zip(
                got_sweeps, want_sweeps, strict=True):
            assert status == want_status
            assert np.array_equal(stored, want_stored, equal_nan=True)


# ---------------------------------------------------------------------------
# the shortcuts of ``compiled_shortcuts`` on the four-cell body
# ---------------------------------------------------------------------------

TOL = SHORTCUT_TOL
ABOVE_TOL = np.nextafter(TOL, 1.0)
#: Ghosted (x, y) of the line the planted lanes sit on, and the ghosted z
#: of lane 2 of a vector in the bulk melt (every lane inactive) and of
#: one in the solid (every lane active through its mixed solids, none a
#: front cell) of the grown state.
LINE, MELT, SOLID = (6, 7), 51, 7

#: ``(phase, dx, dy, z, value)`` plants, relative to LINE, putting a lane
#: on either side of each edge of the shortcut predicates.
EDGE_PLANTS = {
    # diffuse: no phase >= 1 - TOL
    "melt at 1-TOL": [("liquid", 0, 0, MELT, 1.0 - TOL)],
    "melt below 1-TOL": [
        ("liquid", 0, 0, MELT, np.nextafter(1.0 - TOL, 0.0))],
    # active: diffuse, or a neighbour more than TOL away
    "neighbour TOL away": [("solid", 1, 0, MELT, TOL)],
    "neighbour beyond TOL": [("solid", 1, 0, MELT, ABOVE_TOL)],
    # front: active, with liquid above TOL at the cell or a neighbour
    "liquid TOL": [("liquid", 0, 0, SOLID, TOL)],
    "liquid beyond TOL": [("liquid", 0, 0, SOLID, ABOVE_TOL)],
    "neighbour liquid TOL": [("liquid", 0, 1, SOLID, TOL)],
    "neighbour liquid beyond TOL": [("liquid", 0, 1, SOLID, ABOVE_TOL)],
}


def _nonfinite_plants(value):
    """*value* in a melt lane's phi, in a ghost beside a melt lane and in
    the liquid of a ghost beside a solid lane."""
    return {
        "pc": [("liquid", 0, 0, MELT, value)],
        "neighbour ghost": [("solid", -LINE[0], 0, MELT, value)],
        "liquid ghost": [("liquid", -LINE[0], 0, SOLID, value)],
    }


def _plant(s, cells):
    """*s* with each plant of *cells* written into phi, ghosts left as
    they are."""
    s = dict(s, phi=s["phi"].copy())
    ell = s["ctx"].liquid
    for phase, dx, dy, z, value in cells:
        comp = ell if phase == "liquid" else (1 if ell == 0 else 0)
        s["phi"][comp, LINE[0] + dx, LINE[1] + dy, z] = value
    return s


def _all_sweeps(rung, s):
    """Entry points of *rung* on *s*, and status and stored interior of
    its phi, full, split-local and seeded split-neighbour mu block-list
    sweeps over the whole state as one block."""
    from repro.core.kernels.api import block_sweep

    ctx = s["ctx"]
    local, neighbor = get_split_mu_kernel(rung)
    out = {name: (None, arr) for name, arr in _entry_points(rung, s).items()}
    blocks, temps = _blocks(s, [tuple((0, n) for n in GROWN_SHAPE)])
    for name, kernel, kind, field in (
            ("phi", get_phi_kernel(rung), "phi", 0),
            ("mu", get_mu_kernel(rung), "mu", 1),
            ("mu_local", local, "mu", 1),
            ("mu_neighbor", neighbor, "mu_neighbor", 1)):
        status = block_sweep(kernel, kind)(ctx, blocks, temps)
        out[name + " sweep"] = (status, blocks[0][field].interior_dst.copy())
    return out


def _assert_scalar_bits(s):
    """Every entry point and block-list sweep of ``compiled_shortcuts``
    stores its scalar body's bits and status."""
    got = _all_sweeps("compiled_shortcuts", s)
    with cffi_backend._scalar_sweeps():
        want = _all_sweeps("compiled_shortcuts", s)
    for name, (status, arr) in want.items():
        assert got[name][0] == status, name
        assert np.array_equal(got[name][1], arr, equal_nan=True), name


@needs_backend
class TestFourCellShortcuts:
    """``compiled_shortcuts`` runs the four-cell body with its shortcuts
    as lane predicates: a vector whose four lanes all copy through, skip
    the driving force or skip anti-trapping skips the work, one whose
    lanes disagree does it and blends, and a face two lanes read with
    different flags keeps both versions.  Every entry point must store
    the scalar shortcut body's bits."""

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([2, 3]),
           n2=st.sampled_from([1, 2, 3, 5, 8, 14]),
           anti_trapping=st.booleans(), dx=st.sampled_from([1.0, 0.3]),
           seed=st.integers(0, 3))
    def test_entry_points_equal_scalar_body(self, dim, n2, anti_trapping,
                                            dx, seed):
        s = _four_cell_inputs(dim, n2, False, anti_trapping, dx, seed)
        got = _entry_points("compiled_shortcuts", s)
        with cffi_backend._scalar_sweeps():
            want = _entry_points("compiled_shortcuts", s)
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("boxes", [
        [((0, 16), (0, 16), (0, 64))],
        [((0, 16), (0, 16), (0, 28)), ((0, 16), (0, 16), (28, 36))],
        [((0, 7), (0, 16), (0, 64)), ((7, 9), (0, 16), (0, 64))],
    ], ids=["one-block", "z-split", "x-split"])
    def test_block_lists_equal_scalar_body(self, boxes):
        s = _grown_state()
        got = _sweep_steps(s, boxes, rung="compiled_shortcuts")
        with cffi_backend._scalar_sweeps():
            want = _sweep_steps(s, boxes, rung="compiled_shortcuts")
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b), boxes

    def test_grown_state_takes_the_skips(self):
        """The grown state has whole vectors on either side of each
        shortcut, so the tests above take the skips as well as the
        blends."""
        from repro.perf.kernel_analysis import shortcut_census

        s = _grown_state()
        inactive, non_diffuse, non_front = shortcut_census(
            s["phi"], s["ctx"].liquid)
        assert inactive >= 0.25
        assert non_diffuse >= 0.30
        assert non_front >= 0.30
        assert max(inactive, non_diffuse, non_front) < 1.0

    @pytest.mark.parametrize("edge", list(EDGE_PLANTS))
    def test_lane_at_a_predicate_edge(self, edge):
        _assert_scalar_bits(_plant(_grown_state(), EDGE_PLANTS[edge]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["pc", "neighbour ghost",
                                       "liquid ghost"])
    def test_nonfinite_input(self, where, value):
        _assert_scalar_bits(
            _plant(_grown_state(), _nonfinite_plants(value)[where]))


# ---------------------------------------------------------------------------
# the ladder's ablations of the body: T(z) tables, staggered buffers off
# ---------------------------------------------------------------------------

#: ``(tz, stagger)`` of the ablated bodies: the two Fig. 6 rows below
#: ``compiled`` (both off, then T(z) on) and T(z) off alone.
ABLATIONS = [(False, False), (True, False), (False, True)]


@needs_backend
class TestAblation:
    """The W = 1 body compiled with its T(z) tables or its staggered face
    buffers turned off (the steps of the Fig. 6 ladder) evaluates every
    coefficient and face with the operations of the shipped body, so
    each entry point must store the bits of the shipped W = 1 body: on
    lines shorter and longer than four cells, in the shipped and the
    generic instantiation, with and without anti-trapping, and on the
    grown state, where the mu body's exact-zero skips fire."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("rung", COMPILED_RUNGS)
    @pytest.mark.parametrize("tz, stagger", ABLATIONS)
    def test_entry_points_equal_shipped_body(self, tz, stagger, rung, dim):
        for n2, generic, anti_trapping, dx, seed in (
                (1, False, True, 1.0, 0), (5, True, True, 0.3, 1),
                (14, False, False, 1.0, 2), (14, False, True, 1.0, 3)):
            s = _four_cell_inputs(dim, n2, generic, anti_trapping, dx, seed)
            with cffi_backend._scalar_sweeps():
                want = _entry_points(rung, s)
            with cffi_backend._ablated(tz=tz, stagger=stagger):
                assert cffi_backend.simd_width() == 1
                got = _entry_points(rung, s)
            for name in want:
                assert np.array_equal(got[name], want[name]), (n2, name)

    @pytest.mark.parametrize("rung", COMPILED_RUNGS)
    @pytest.mark.parametrize("tz, stagger", ABLATIONS)
    def test_grown_state_equal_shipped_body(self, tz, stagger, rung):
        s = _grown_state()
        with cffi_backend._scalar_sweeps():
            want = _entry_points(rung, s)
        with cffi_backend._ablated(tz=tz, stagger=stagger):
            got = _entry_points(rung, s)
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    def test_hook_restores_the_shipped_library(self):
        shipped = cffi_backend.load()
        with cffi_backend._ablated(tz=False, stagger=False):
            assert cffi_backend.load() is not shipped
        assert cffi_backend.load() is shipped
        with pytest.raises(ValueError, match="nothing to ablate"):
            with cffi_backend._ablated(tz=True, stagger=True):
                pass

    def test_load_builds_no_ablation(self, tmp_path):
        """A cold load() in a fresh cache leaves the shipped object alone
        there: the ablated ones are built by the hook only."""
        env = dict(os.environ, REPRO_COMPILED_CACHE=str(tmp_path),
                   REPRO_KERNEL_BACKEND="cffi")
        done = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "None"], done.stdout
        names = [p.name for p in tmp_path.iterdir()]
        assert len(names) == 1 and names[0].startswith("repro_kernels_"), names


# ---------------------------------------------------------------------------
# the bits of the cellwise sweeps, pinned by digest
# ---------------------------------------------------------------------------

def _sha(arrays) -> str:
    """Truncated sha256 of float64 *arrays* in turn, each NaN written as
    the one quiet NaN (a payload is not part of the result)."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.array(a, dtype=np.float64)
        a[np.isnan(a)] = np.nan
        h.update(a.tobytes())
    return h.hexdigest()[:32]


def _ctx_arrays(ctx):
    p = ctx.params
    return (ctx.gamma, ctx.tau, ctx.inv_curv, ctx.c_eq, ctx.c_slope,
            ctx.latent, ctx.diff,
            [p.dx, p.dt, ctx.eps, ctx.gamma_triple, ctx.t_eut])


def _pinned_cases(dim, generic):
    """The speckled states of one (dim, generic) group: n2 in {1, 2, 3,
    5, 8, 14} x anti-trapping off/on x dx in {1, 0.3}, seed 0."""
    for n2 in (1, 2, 3, 5, 8, 14):
        for anti_trapping in (False, True):
            for dx in (1.0, 0.3):
                yield _four_cell_inputs(dim, n2, generic, anti_trapping,
                                        dx, 0)


def _pinned_inputs(dim, generic):
    return _sha(a for s in _pinned_cases(dim, generic)
                for a in (*_ctx_arrays(s["ctx"]), s["phi"], s["mu"],
                          s["tg"], s["phi_dst"], s["t_new"]))


def _pinned_outputs(rung, dim, generic):
    return _sha(a for s in _pinned_cases(dim, generic)
                for a in _entry_points(rung, s).values())


#: Digests of what every entry point stored, per (rung, dim, generic)
#: group of :func:`_pinned_cases`, as the hand-written cellwise C body
#: computed them before the cellwise sweeps became the four-cell body
#: compiled at W = 1.
PINNED_OUTPUTS = {
    ("compiled", 2, False): "0b7b4c68a3ee8f5c083ff4417db899b9",
    ("compiled", 2, True): "08c51146200134a503ead3a1adac4a02",
    ("compiled", 3, False): "ec05c9f2a26332e8c42a04788e0523c7",
    ("compiled", 3, True): "4bffae4b00da312cf05bc2d0dcc22163",
    ("compiled_shortcuts", 2, False): "824d22bc94a6ac7cd7bf674f72e3071f",
    ("compiled_shortcuts", 2, True): "7e276cbfb7efa520c9d88cfb66c5eee7",
    ("compiled_shortcuts", 3, False): "ab8323d83cb1d6bd4cd8212da39f2a29",
    ("compiled_shortcuts", 3, True): "0153177eb651db16dffa8ed015ca6978",
}
#: Digests of the groups' inputs and constants: the outputs above are
#: the kernels' on these inputs only.
PINNED_INPUTS = {
    (2, False): "e5b706e52ff5260a820320896da82282",
    (2, True): "4f0446c91b00bd657457b392facd9c5b",
    (3, False): "b173541b999b1ab6b3100d1558dba1ed",
    (3, True): "9797b860d1053ea301d525a61704c1bb",
}
#: Digests of the grown state's sweeps: its entry points, and three
#: steps of block-list sweeps over each layout of ``GROWN_LAYOUTS``.
PINNED_GROWN = {
    ("compiled", "entry points"): "5467fb7e1d31f99d072a12d67b496f7a",
    ("compiled", "one-block"): "4f8be7f5d0713ab725c44bd5b5855d11",
    ("compiled", "z-split"): "8f1cbf548eedf41d2c5b6ae4e519c91a",
    ("compiled", "x-split"): "d8de7e352b2786b778e93e07ce5cf156",
    ("compiled_shortcuts", "entry points"): "5467fb7e1d31f99d072a12d67b496f7a",
    ("compiled_shortcuts", "one-block"): "4f8be7f5d0713ab725c44bd5b5855d11",
    ("compiled_shortcuts", "z-split"): "8f1cbf548eedf41d2c5b6ae4e519c91a",
    ("compiled_shortcuts", "x-split"): "d8de7e352b2786b778e93e07ce5cf156",
}
#: Digest of the interface scenario the grown state grows from.
PINNED_GROWN_INPUTS = "cfb9d6c762f9b2637710336010cc1391"
GROWN_LAYOUTS = {
    "one-block": [((0, 16), (0, 16), (0, 64))],
    "z-split": [((0, 16), (0, 16), (0, 28)), ((0, 16), (0, 16), (28, 36))],
    "x-split": [((0, 7), (0, 16), (0, 64)), ((7, 9), (0, 16), (0, 64))],
}


def _grown_outputs(rung, layout):
    s = _grown_state()
    if layout == "entry points":
        return _sha(_entry_points(rung, s).values())
    return _sha(_sweep_steps(s, GROWN_LAYOUTS[layout], rung=rung))


def _grown_inputs():
    phi, mu, tg, system, params = make_scenario(
        "interface", GROWN_SHAPE, seed=0)
    return _sha((*_ctx_arrays(make_context(system, params)), phi, mu, tg))


def _width(width):
    """The sweeps at the default width, or every one cellwise."""
    return (cffi_backend._scalar_sweeps() if width == "cellwise"
            else contextlib.nullcontext())


def _require_inputs(got, want):
    """The pinned outputs hold for the pinned inputs only: on a host
    whose NumPy builds other scenario bits (its transcendental functions
    are not correctly rounded everywhere) there is nothing to compare."""
    if got != want:
        pytest.skip(f"scenario inputs differ on this host ({got} != {want})")


@needs_backend
class TestPinnedBits:
    """Every entry point and block-list sweep stores the bits the
    hand-written cellwise C body stored, at the default width and with
    every sweep cellwise.  The digests keep that body a referee after
    its deletion; ``reference.py`` stays the allclose one."""

    @pytest.mark.parametrize("width", ["default", "cellwise"])
    @pytest.mark.parametrize(
        "group", list(PINNED_OUTPUTS),
        ids=[f"{r}-{d}d-{'generic' if g else 'shipped'}"
             for r, d, g in PINNED_OUTPUTS])
    def test_entry_points(self, group, width):
        rung, dim, generic = group
        _require_inputs(_pinned_inputs(dim, generic),
                        PINNED_INPUTS[dim, generic])
        with _width(width):
            assert _pinned_outputs(rung, dim, generic) == PINNED_OUTPUTS[group]

    @pytest.mark.parametrize("width", ["default", "cellwise"])
    @pytest.mark.parametrize("sweep", list(PINNED_GROWN),
                             ids=[f"{r}-{layout}" for r, layout in PINNED_GROWN])
    def test_grown_state(self, sweep, width):
        _require_inputs(_grown_inputs(), PINNED_GROWN_INPUTS)
        with _width(width):
            assert _grown_outputs(*sweep) == PINNED_GROWN[sweep]


# ---------------------------------------------------------------------------
# a fork after the library ran an OpenMP team
# ---------------------------------------------------------------------------

_FORK_AFTER_TEAM = """
import os, sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.core.kernels.compiled import cffi_backend
from repro.core.solver import Simulation
from repro.distributed import DistributedSimulation

shape = (16, 16, 32)
sim = Simulation(shape, kernel="compiled")
sim.initialize_voronoi(seed=3)
sim.step(2)  # runs a team of OMP_NUM_THREADS threads in this process
phi0, mu0 = sim.phi.interior_src.copy(), sim.mu.interior_src.copy()
results = []
for backend in ("process", "thread"):
    with DistributedSimulation(shape, (2, 1, 1), kernel="compiled",
                               n_ranks=2, backend=backend) as dsim:
        res = dsim.run(2, phi0, mu0)
    results.append((res.phi, res.mu))
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    os.write(write, str(cffi_backend.num_threads()).encode())
    os._exit(0)
os.waitpid(pid, 0)
print(cffi_backend.num_threads(), os.read(read, 16).decode(),
      all(np.array_equal(a, b) for a, b in zip(*results)))
"""


@needs_backend
class TestForkAfterTeam:
    def test_process_ranks_forked_after_a_team_finish(self):
        """GNU OpenMP's team does not survive a fork: a process rank
        forked after the caller stepped a threaded compiled sweep must
        run its sweeps on one thread (and say so once), finish, and
        store what thread ranks store."""
        proc = subprocess.Popen(
            [sys.executable, "-c", _FORK_AFTER_TEAM.format(src=str(SRC))],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "OMP_NUM_THREADS": "2"},
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the ranks too
            proc.communicate()
            pytest.fail("process ranks forked after a team hung")
        assert proc.returncode == 0, err
        threads, forked, equal = out.split()
        if threads == "1":
            pytest.skip("kernel library was built without OpenMP")
        assert (threads, forked, equal) == ("2", "1", "True")
        assert err.count("forked after the compiled kernels ran") == 3
