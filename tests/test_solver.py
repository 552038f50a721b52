import dataclasses
import subprocess
import sys
import tracemalloc
from pathlib import Path
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from pinfin import (ConfigError, Grid, PhysicalParams, RadiusProfile,
                    SurfaceMeasure, closed_form_temperature, solve_temperature)
from pinfin import TemperatureField, heat_flux_boundary, solver
from pinfin.errors import NumericalError
from pinfin.randoms import random_pair

import reference_assembly
from conftest import A0, LENGTH, constant_fin, rel_linf


def test_matches_closed_form_on_constant_profile(demo_params):
    grid, a, b, T = constant_fin(A0, LENGTH, demo_params, 2048)
    exact = closed_form_temperature(grid.nodes, A0, LENGTH, demo_params)
    assert rel_linf(T.values, exact, demo_params.delta_T) < 1e-7


def test_second_order_convergence(demo_params):
    errs = []
    for n in (256, 512, 1024, 2048):
        grid, a, b, T = constant_fin(A0, LENGTH, demo_params, n)
        exact = closed_form_temperature(grid.nodes, A0, LENGTH, demo_params)
        errs.append(rel_linf(T.values, exact, demo_params.delta_T))
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.2 <= e1 / e2 <= 4.8


def test_zero_gap_boundary_data_gives_ambient_field():
    params = PhysicalParams(k=10.0, h=10.0, h_r=10.0, T_d=5.0, T_inf=5.0)
    grid, a, b, T = constant_fin(A0, LENGTH, params, 64)
    assert np.all(T.values == 5.0)


def test_inlet_atom_leaves_temperature_bit_identical(demo_params):
    grid = Grid(LENGTH, 400)
    a = RadiusProfile.constant(A0, grid)
    b_plain = SurfaceMeasure.constant(A0, grid)
    S = 6 * A0 * LENGTH
    b_atom = b_plain.with_atom(0.0, S - A0 * LENGTH)
    T_plain = solve_temperature(a, b_plain, demo_params, grid)
    T_atom = solve_temperature(a, b_atom, demo_params, grid)
    assert np.array_equal(T_plain.values, T_atom.values)


def test_interior_atom_cools_the_fin(demo_params):
    grid = Grid(LENGTH, 400)
    a = RadiusProfile.constant(A0, grid)
    b = SurfaceMeasure.constant(A0, grid)
    T0 = solve_temperature(a, b, demo_params, grid)
    T1 = solve_temperature(a, b.with_atom(0.05, 1e-4), demo_params, grid)
    assert np.all(T1.values <= T0.values + 1e-15)
    assert T1.values[200] < T0.values[200]


def test_atom_on_volume_face_splits_evenly(demo_params):
    grid = Grid(LENGTH, 400)
    a = RadiusProfile.constant(A0, grid)
    face = grid.midpoints[200]
    b_tie = SurfaceMeasure.constant(A0, grid).with_atom(face, 2e-4)
    b_split = SurfaceMeasure.constant(A0, grid) \
        .with_atom(face - grid.dx / 4, 1e-4).with_atom(face + grid.dx / 4, 1e-4)
    T_tie = solve_temperature(a, b_tie, demo_params, grid)
    T_split = solve_temperature(a, b_split, demo_params, grid)
    # the quarter-offset atoms snap to the two neighboring volumes, which is
    # exactly what the even split of the on-face atom produces
    assert np.allclose(T_tie.values, T_split.values, rtol=0, atol=1e-14)


def test_maximum_principle_on_random_profiles(demo_params):
    rng = Random(42)
    grid = Grid(LENGTH, 300)
    dT = demo_params.delta_T
    for _ in range(30):
        a, b = random_pair(rng, A0, grid)
        T = solve_temperature(a, b, demo_params, grid).values
        assert np.max(T) <= demo_params.T_d + 1e-10 * dT
        assert np.min(T) >= demo_params.T_inf - 1e-10 * dT
        assert np.max(np.diff(T)) <= 1e-10 * dT


def test_closed_form_against_high_resolution_solve():
    # grid-refinement oracle: n = 2**20 cells; agreement is then limited by
    # solver roundoff accumulation, a few 1e-7 relative
    params = PhysicalParams(k=10.0, h=10.0, h_r=10.0, T_d=10.0, T_inf=0.0)
    n = 2 ** 20
    grid, a, b, T = constant_fin(A0, LENGTH, params, n)
    x = LENGTH / 2
    ref = T.values[n // 2]
    val = float(closed_form_temperature(x, A0, LENGTH, params))
    assert abs(val - ref) / params.delta_T < 1e-6


def test_solution_scales_exactly_with_the_temperature_gap():
    # solving for the excess temperature makes the solution exactly
    # proportional to T_d - T_inf: tiny gaps lose no relative accuracy
    grid = Grid(LENGTH, 512)
    a = RadiusProfile.constant(A0, grid)
    b = SurfaceMeasure.constant(A0, grid)
    big = PhysicalParams(k=10.0, h=10.0, h_r=10.0, T_d=10.0, T_inf=0.0)
    tiny = PhysicalParams(k=10.0, h=10.0, h_r=10.0, T_d=1.0 + 1e-9, T_inf=1.0)
    theta_big = solve_temperature(a, b, big, grid).excess
    theta_tiny = solve_temperature(a, b, tiny, grid).excess
    assert np.allclose(theta_tiny / tiny.delta_T, theta_big / big.delta_T,
                       rtol=1e-12, atol=0)


def test_closed_form_endpoints(demo_params):
    assert closed_form_temperature(0.0, A0, LENGTH, demo_params) == pytest.approx(
        demo_params.T_d, abs=1e-12)
    # insulated tip: T(L) = T_inf + dT / cosh(sqrt(beta/a0) L)
    params = PhysicalParams(k=10.0, h=10.0, h_r=0.0, T_d=10.0, T_inf=0.0)
    lam = np.sqrt(params.constant_beta() / A0)
    expected = params.T_inf + params.delta_T / np.cosh(lam * LENGTH)
    assert closed_form_temperature(LENGTH, A0, LENGTH, params) == pytest.approx(
        expected, rel=1e-13)


def test_closed_form_requires_constant_h():
    params = PhysicalParams(k=10.0, h=lambda x: 10.0 + 0 * x, h_r=10.0,
                            T_d=10.0, T_inf=0.0)
    with pytest.raises(ConfigError):
        closed_form_temperature(0.05, A0, LENGTH, params)


def test_input_validation(demo_params):
    grid = Grid(LENGTH, 64)
    a = RadiusProfile.constant(A0, grid)
    with pytest.raises(ConfigError):
        SurfaceMeasure.constant(A0, grid).with_atom(2 * LENGTH, 1e-5)
    with pytest.raises(ConfigError):
        SurfaceMeasure.constant(A0, grid).with_atom(0.05, -1e-5)
    with pytest.raises(ConfigError):
        RadiusProfile(np.full(grid.n_cells + 1, A0 / 2), A0, LENGTH)
    with pytest.raises(ConfigError):
        solve_temperature(a, SurfaceMeasure.constant(A0, Grid(LENGTH, 65)),
                          demo_params, grid)


@pytest.mark.parametrize("kind, field, size", [(RadiusProfile, "values", 3),
                                               (SurfaceMeasure, "density", 2)],
                         ids=["radius", "density"])
def test_sampled_profiles_share_one_floor_rule(kind, field, size):
    # a radius needs one node more than a density has cells; past that the
    # rule and its wording are one
    ones = np.ones(size)
    faults = [(np.ones((size, size)), 1.0, f"a 1-D array of at least {size} values"),
              (ones[1:], 1.0, f"a 1-D array of at least {size} values"),
              (np.r_[ones, np.nan], 1.0, "contains non-finite values"),
              # non-finite is refused first, whatever else is wrong
              (np.r_[0.5, ones, np.nan], 1.0, "contains non-finite values"),
              (np.r_[ones, np.nan], 0.0, "contains non-finite values"),
              (np.r_[ones, np.inf], 1.0, "contains non-finite values"),
              (np.r_[-np.inf, ones], 1.0, "contains non-finite values"),
              (ones, 0.0,"floor must be positive, got 0.0"),
              (ones, -1.0, "floor must be positive, got -1.0"),
              (np.r_[ones, 1.0 - 1e-9], 1.0, "drops below its floor 1.0")]
    for values, floor, message in faults:
        with pytest.raises(ConfigError, match=message):
            kind(values, floor, LENGTH)
    dip = np.r_[ones, 1.0 - 1e-13] * A0
    clamped = getattr(kind(dip, A0, LENGTH), field)
    assert clamped.min() == A0 and np.array_equal(clamped[:-1], dip[:-1])


@pytest.mark.parametrize("x", [0.03, np.array(0.03), np.linspace(0.0, LENGTH, 7)])
def test_constant_h_beta_is_the_array_expression_bitwise(x):
    params = PhysicalParams(k=0.7, h=10.0 / 3.0, h_r=1.0, T_d=10.0, T_inf=0.0)
    beta = params.beta(x)
    expected = 2.0 * np.full(np.shape(x), float(params.h)) / params.k
    assert np.shape(beta) == np.shape(x)
    assert np.asarray(beta).dtype == np.float64
    assert np.asarray(beta).tobytes() == np.asarray(expected).tobytes()


def test_physical_params_are_frozen(demo_params):
    with pytest.raises(dataclasses.FrozenInstanceError):
        demo_params.h = 1e-300
    with pytest.raises(dataclasses.FrozenInstanceError):
        demo_params.k = 1.0


def test_variable_h_profile_solves(demo_params):
    grid = Grid(LENGTH, 512)
    params = PhysicalParams(k=10.0, h=lambda x: 20.0 - 100.0 * x, h_r=10.0,
                            T_d=10.0, T_inf=0.0)
    a = RadiusProfile.constant(A0, grid)
    b = SurfaceMeasure.constant(A0, grid)
    T = solve_temperature(a, b, params, grid).values
    assert T[0] == 10.0
    assert np.all(np.diff(T) <= 1e-12)
    # stronger convection than the constant-10 case everywhere except the tip
    T_ref = solve_temperature(a, b, demo_params, grid).values
    assert T[grid.n_cells // 2] < T_ref[grid.n_cells // 2]


# ------------------------------------------------------------------ LAPACK paths

class _AnyGrid(Grid):
    """A grid that also takes one cell, the smallest system dptsv solves."""

    def __post_init__(self):
        pass


def _random_system(rng, n, params=None):
    """A kernel on random radii (any n >= 1), a random density and random point loads."""
    values = A0 * rng.uniform(1.0, 1.5, n + 1)
    # duck-typed, because RadiusProfile wants at least two cells
    radius = SimpleNamespace(values=values, at_midpoints=lambda: 0.5 * (values[:-1] + values[1:]))
    params = params or PhysicalParams(k=10.0, h=10.0, h_r=rng.uniform(0.0, 20.0),
                                      T_d=10.0, T_inf=0.0)
    system = solver.FinSystem(radius, params, _AnyGrid(LENGTH, n))
    loads = list(enumerate(rng.uniform(-1.0, 1.0, n), start=1))
    return system, A0 * rng.uniform(1.0, 4.0, n), loads


@pytest.mark.skipif(solver._BUNDLED is None,
                    reason="numpy has no bundled ILP64 OpenBLAS here")
@pytest.mark.parametrize("n", [1, 2, 500, 4096])
def test_bundled_and_scipy_dptsv_agree_bitwise(monkeypatch, n):
    rng = np.random.default_rng(n)
    system, density, loads = _random_system(rng, n)
    fast = system.solve(density, (), 0.0, loads)
    monkeypatch.setattr(solver, "_dptsv", solver._scipy_dptsv)
    assert np.array_equal(system.solve(density, (), 0.0, loads), fast)
    if n <= 500:
        s, m = system.conductance, reference_assembly.reaction_weights(system, density)
        d = np.append(s[:-1] + s[1:] + m[1:-1], s[-1] + m[-1] + system.robin)
        dense = np.diag(d) - np.diag(s[1:], 1) - np.diag(s[1:], -1)
        rhs = np.array([value for _, value in loads])
        assert np.allclose(dense @ fast[1:], rhs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("path", ["bound", "scipy"])
def test_both_dptsv_paths_raise_on_indefinite_or_nan_systems(monkeypatch, path):
    if path == "scipy":
        monkeypatch.setattr(solver, "_dptsv", solver._scipy_dptsv)
    rng = np.random.default_rng(7)
    system, density, loads = _random_system(rng, 50)
    indefinite = density.copy()
    # a sink far below the conductance sums of the cell's two nodes
    sink = -1e3 * system.conductance.max() / (system.params.constant_beta() * system.grid.dx)
    indefinite[20] = sink
    with pytest.raises(NumericalError, match="singular temperature system"):
        system.solve(indefinite, (), 0.0, loads)
    bad_loads = list(loads)
    bad_loads[10] = (11, np.nan)
    with pytest.raises(NumericalError, match="non-finite"):
        system.solve(density, (), 0.0, bad_loads)
    # the inputs are left as they were: the solve writes only its own theta
    assert np.isnan(bad_loads[10][1]) and indefinite[20] == sink
    # and a failed solve leaves the kernel reusable
    assert np.array_equal(system.solve(density, (), 0.0, loads),
                          _random_system(np.random.default_rng(7), 50)[0]
                          .solve(density, (), 0.0, loads))


@pytest.mark.parametrize("path", ["bundled", "scipy"])
@pytest.mark.parametrize("n", [1, 2, 500, 4096])
def test_theta_matches_the_per_call_assembly_bitwise(monkeypatch, n, path):
    if path == "bundled" and solver._BUNDLED is None:
        pytest.skip("numpy has no bundled ILP64 OpenBLAS here")
    if path == "scipy":
        monkeypatch.setattr(solver, "_dptsv", solver._scipy_dptsv)
    rng = np.random.default_rng(1000 + n)
    params = PhysicalParams(k=10.0, h=lambda x: 10.0 + 50.0 * x, h_r=7.0,
                            T_d=10.0, T_inf=0.0)
    system, _, _ = _random_system(rng, n, params)
    grid = system.grid
    face = float(grid.midpoints[rng.integers(n)] + grid.dx / 2.0) if n > 1 else grid.dx / 2.0
    inlet, tip = (0.0, 2e-4), (LENGTH, 3e-5)
    placed = [inlet, (face, 1e-4), (float(rng.uniform(0.0, LENGTH)), 5e-5), tip]
    # one kernel for every case, so each solve also runs on a reused buffer
    for atoms in ([], [inlet], [placed[1]], [placed[2]], [tip], placed):
        density = A0 * rng.uniform(1.0, 4.0, n)
        expected = reference_assembly.excess(system, density, atoms, path)
        assert system.excess(density, atoms).tobytes() == expected.tobytes()


@pytest.mark.parametrize("path", ["bundled", "scipy"])
@pytest.mark.parametrize("h", [10.0, lambda x: 10.0 + 50.0 * x], ids=["constant_h", "variable_h"])
@pytest.mark.parametrize("n", [2, 500, 4096])
def test_a_reassembled_kernel_is_a_fresh_kernel(monkeypatch, n, h, path):
    if path == "bundled" and solver._BUNDLED is None:
        pytest.skip("numpy has no bundled ILP64 OpenBLAS here")
    if path == "scipy":
        monkeypatch.setattr(solver, "_dptsv", solver._scipy_dptsv)
    rng = np.random.default_rng(2000 + n)
    grid = Grid(LENGTH, n)
    params = PhysicalParams(k=10.0, h=h, h_r=rng.uniform(0.0, 20.0), T_d=10.0, T_inf=0.0)
    kernel = solver.FinSystem(RadiusProfile(A0 * rng.uniform(1.0, 3.0, n + 1), A0, LENGTH),
                              params, grid)
    kernel.excess(A0 * rng.uniform(1.0, 4.0, n))   # leaves a factored d | e behind
    placed = [(0.0, 2e-4), (float(rng.uniform(0.0, LENGTH)), 5e-5), (LENGTH, 3e-5)]
    for atoms in ([], placed, placed[1:2]):
        a = RadiusProfile(A0 * rng.uniform(1.0, 3.0, n + 1), A0, LENGTH)
        b = SurfaceMeasure(A0 * rng.uniform(1.0, 4.0, n), A0, LENGTH, tuple(atoms))
        kernel.assemble(a)
        fresh = solver.FinSystem(a, params, grid)
        theta, expected = (k.excess(b.density, b.atoms) for k in (kernel, fresh))
        assert theta.tobytes() == expected.tobytes()
        assert (kernel.relaxed_flux(theta, b.density, b.atoms)
                == fresh.relaxed_flux(expected, b.density, b.atoms))
        assert kernel.flux_gradient(theta).tobytes() == fresh.flux_gradient(expected).tobytes()
        assert (heat_flux_boundary(TemperatureField(theta, kernel, b))
                == heat_flux_boundary(TemperatureField(expected, fresh, b)))


def test_one_solve_allocates_only_theta_and_a_finiteness_mask(demo_params):
    grid = Grid(LENGTH, 32768)
    system = solver.FinSystem(RadiusProfile.constant(A0, grid), demo_params, grid)
    density = np.full(grid.n_cells, 2.0 * A0)
    system.excess(density)   # the scipy fallback imports its wrapper on the first solve
    tracemalloc.start()
    try:
        theta = system.excess(density)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mask = system.conductance.size * 2 - 1   # one bool per d | e entry, the larger mask
    assert peak <= theta.nbytes + mask + 4096


def test_cli_import_leaves_scipy_unloaded():
    # a fresh interpreter, so no other test's scipy import can mask one here
    probe = ("import sys, numpy, pinfin.cli, pinfin.solver as s; "
             "print('scipy' in sys.modules, s._BUNDLED is not None, "
             "numpy.__file__, sep='\\n')")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, cwd=src).stdout.splitlines()
    scipy_loaded, bound, numpy_init = out[0] == "True", out[1] == "True", out[2]
    assert not scipy_loaded
    libs = Path(numpy_init).resolve().parent.parent / "numpy.libs"
    if any(libs.glob("libscipy_openblas64_*.so*")):
        assert bound
