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

The four-cell (SIMD) body of ``compiled`` is pinned to the scalar body
bit for bit, and a process forked after the library ran an OpenMP team
must still finish its sweeps.
"""

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


def _sweep_steps(s, boxes, steps=3):
    """Interiors stored by three steps of block-list sweeps of
    ``compiled`` (phi, split mu, full mu) whose buffers swap roles after
    each step, the ghosts refilled periodically per block."""
    from repro.core.kernels.api import block_sweep

    ctx = s["ctx"]
    blocks, temps = _blocks(s, boxes)
    local, neighbor = get_split_mu_kernel("compiled")
    sweeps = [(block_sweep(get_phi_kernel("compiled"), "phi"), 0),
              (block_sweep(local, "mu"), 1),
              (block_sweep(neighbor, "mu_neighbor"), 1),
              (block_sweep(get_mu_kernel("compiled"), "mu"), 1)]
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
