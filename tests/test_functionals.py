from random import Random

import numpy as np
import pytest
from scipy.integrate import quad

from pinfin import (ConfigError, Grid, PhysicalParams, RadiusProfile,
                    SurfaceMeasure, closed_form_temperature, compute_gamma,
                    directional_derivative, flux_gradient_density, flux_report,
                    generalized_supremum, heat_flux_boundary, heat_flux_relaxed,
                    oscillating_profile, oscillating_profile_volume,
                    solve_temperature, surface, surface_supremum, volume)
from pinfin.randoms import random_pair

from conftest import A0, LENGTH, constant_fin
from linearized import solve_linearized


# ---------------------------------------------------------------- volume

def test_volume_constant_and_scaling():
    grid = Grid(LENGTH, 128)
    assert volume(RadiusProfile.constant(A0, grid), grid) == pytest.approx(
        LENGTH * A0 ** 2, rel=1e-14)
    doubled = RadiusProfile(np.full(grid.n_cells + 1, 2 * A0), A0, LENGTH)
    assert volume(doubled, grid) == pytest.approx(4 * LENGTH * A0 ** 2, rel=1e-14)


def test_volume_of_oscillating_profile_matches_adaptive_quadrature():
    # oracle: scipy adaptive quadrature of the squared arc formula
    a0, ell, m = 0.05, 1.0, 16
    S = 1.5 * a0 * ell
    grid = Grid(ell, 16384)
    prof = oscillating_profile(S, m, a0, grid)
    Mm = a0 + (S - a0 * ell) * m
    off = np.sqrt(Mm ** 2 - a0 ** 2)
    period = 1.0 / m ** 2

    def a_sq(x):
        if x >= 1.0 / m:
            return a0 ** 2
        t = x % period
        t = t if t < period / 2 else period - t
        return Mm ** 2 - (off - t) ** 2

    ref, _ = quad(a_sq, 0.0, ell, limit=4000,
                  points=[i * period / 2 for i in range(2 * m + 1)])
    assert volume(prof, grid) == pytest.approx(ref, rel=1e-5)
    assert oscillating_profile_volume(S, m, a0, ell) == pytest.approx(ref, rel=1e-10)
    # the excess volume dies with m while the surface stays fixed
    assert volume(prof, grid) - a0 ** 2 * ell < 2 * (S - a0 * ell) / m ** 2


# ---------------------------------------------------------------- surface

def test_surface_constant_and_cone():
    grid = Grid(LENGTH, 4096)
    assert surface(RadiusProfile.constant(A0, grid), grid) == pytest.approx(
        LENGTH * A0, rel=1e-13)
    s = 0.03
    cone = RadiusProfile.cone(A0, grid, s)
    expected = (A0 + s * LENGTH / 2) * LENGTH * np.sqrt(1 + s * s)
    assert surface(cone, grid) == pytest.approx(expected, rel=1e-13)


def test_surface_of_oscillating_profile_is_prescribed():
    a0, ell = 0.05, 1.0
    S = 1.5 * a0 * ell
    for m, n in ((8, 8192), (16, 32768)):
        grid = Grid(ell, n)
        prof = oscillating_profile(S, m, a0, grid)
        assert surface(prof, grid) == pytest.approx(S, rel=2e-3)


# ---------------------------------------------------------------- flux

def test_flux_zero_for_zero_temperature_gap():
    params = PhysicalParams(k=10.0, h=10.0, h_r=10.0, T_d=3.0, T_inf=3.0)
    grid, a, b, T = constant_fin(A0, LENGTH, params, 128)
    assert heat_flux_boundary(T) == 0.0
    assert heat_flux_relaxed(T) == 0.0


def test_flux_constant_profile_closed_form(demo_params):
    # oracle: differentiate the closed form at the inlet,
    # F = k pi a0^2 dT gamma sqrt(beta/a0); frozen 40-digit value
    grid, a, b, T = constant_fin(A0, LENGTH, demo_params, 8192)
    frozen = 0.014046123822467836748
    assert heat_flux_boundary(T) == pytest.approx(
        frozen, rel=1e-6)


def test_flux_relaxed_matches_quadrature_of_closed_form(demo_params):
    # oracle: adaptive quadrature of beta a0 (T(x) - T_inf) plus the tip term
    grid, a, b, T = constant_fin(A0, LENGTH, demo_params, 8192)
    beta = demo_params.constant_beta()

    def theta(x):
        return closed_form_temperature(x, A0, LENGTH, demo_params) - demo_params.T_inf

    integral, _ = quad(theta, 0.0, LENGTH, limit=200)
    ref = demo_params.k * np.pi * (beta * A0 * integral
                                   + demo_params.beta_r * A0 ** 2 * theta(LENGTH))
    assert heat_flux_relaxed(T) == pytest.approx(
        ref, rel=1e-6)


def test_inlet_atom_adds_mass_times_inlet_excess(demo_params):
    grid, a, b, T = constant_fin(A0, LENGTH, demo_params, 1024)
    base = heat_flux_relaxed(T)
    mass = 5 * A0 * LENGTH
    b_atom = b.with_atom(0.0, mass)
    T_atom = solve_temperature(a, b_atom, demo_params, grid)
    got = heat_flux_relaxed(T_atom)
    bump = demo_params.k * np.pi * demo_params.constant_beta() \
        * demo_params.delta_T * mass
    assert got == pytest.approx(base + bump, rel=1e-13)
    # the boundary flux does not see inlet mass: the gap is exactly the bump
    rep = flux_report(T_atom)
    assert rep.integral - rep.boundary == pytest.approx(bump, rel=1e-12)


def test_zero_mass_atom_is_a_no_op(demo_params):
    grid, a, b, T = constant_fin(A0, LENGTH, demo_params, 256)
    b_zero = b.with_atom(0.37 * LENGTH, 0.0)
    T2 = solve_temperature(a, b_zero, demo_params, grid)
    assert np.array_equal(T.values, T2.values)
    assert heat_flux_relaxed(T2) == \
        heat_flux_relaxed(T)


def test_flux_identity_extends_to_interior_atoms(demo_params):
    # only mass exactly at the inlet escapes the boundary flux; interior
    # atoms are conservative like the density
    rng = Random(13)
    grid = Grid(LENGTH, 500)
    for _ in range(5):
        a, b = random_pair(rng, A0, grid)
        b = b.with_atom(rng.uniform(0.01, 0.09), 2e-4) \
             .with_atom(grid.midpoints[123], 1e-4)   # one exactly on a face
        T = solve_temperature(a, b, demo_params, grid)
        assert flux_report(T).relative_gap <= 1e-10


def test_functionals_reuse_the_kernel_of_the_solve(demo_params, monkeypatch):
    # the field carries the kernel it was solved on: beta is evaluated on the
    # grid at most once, by the solve (never for constant h), and never again
    # by what reads the field
    ndims = []
    beta = PhysicalParams.beta
    monkeypatch.setattr(PhysicalParams, "beta",
                        lambda self, x: ndims.append(np.ndim(x)) or beta(self, x))
    varying = PhysicalParams(k=10.0, h=lambda x: 20.0 - 100.0 * x, h_r=10.0,
                             T_d=10.0, T_inf=0.0)
    for params, evaluations in [(demo_params, 0), (varying, 1)]:
        ndims.clear()
        T = constant_fin(A0, LENGTH, params, 256)[3]
        flux_report(T)
        heat_flux_relaxed(T)
        flux_gradient_density(T)
        solve_linearized(T, LENGTH / 2, A0 / 10)
        assert sum(n > 0 for n in ndims) == evaluations   # the scalar calls read beta(x0)


def test_flux_identity_on_random_profiles(demo_params):
    rng = Random(3)
    grid = Grid(LENGTH, 500)
    for _ in range(10):
        a, b = random_pair(rng, A0, grid)
        T = solve_temperature(a, b, demo_params, grid)
        assert flux_report(T).relative_gap <= 1e-10


# ---------------------------------------------------------------- suprema

def test_surface_supremum_frozen_value(demo_params):
    # frozen 40-digit evaluation of the closed form at S0 = 6 a0 L
    S0 = 6 * A0 * LENGTH
    assert surface_supremum(A0, LENGTH, S0, demo_params) == pytest.approx(
        0.32820538918144716059, rel=1e-14)


def test_surface_supremum_affine_in_budget(demo_params):
    S0 = 6 * A0 * LENGTH
    base = surface_supremum(A0, LENGTH, A0 * LENGTH, demo_params)
    slope = demo_params.k * np.pi * demo_params.constant_beta() * demo_params.delta_T
    for mult in (2.0, 6.0, 11.5):
        S = mult * A0 * LENGTH
        assert surface_supremum(A0, LENGTH, S, demo_params) == pytest.approx(
            base + slope * (S - A0 * LENGTH), rel=1e-14)
    # doubling the excess adds exactly slope * excess
    v1 = surface_supremum(A0, LENGTH, S0, demo_params)
    v2 = surface_supremum(A0, LENGTH, 2 * S0 - A0 * LENGTH, demo_params)
    assert v2 - v1 == pytest.approx(slope * (S0 - A0 * LENGTH), rel=1e-12)


def test_surface_supremum_budget_floor(demo_params):
    gbase = compute_gamma(A0, LENGTH, 2.0, 1.0)
    expected = 10.0 * np.pi * 2.0 * 10.0 * A0 ** 1.5 * gbase / np.sqrt(2.0)
    assert surface_supremum(A0, LENGTH, A0 * LENGTH, demo_params) == \
        pytest.approx(expected, rel=1e-14)
    with pytest.raises(ConfigError):
        surface_supremum(A0, LENGTH, 0.5 * A0 * LENGTH, demo_params)


def flat_solve(params, n_cells):
    return constant_fin(A0, LENGTH, params, n_cells)[3]


def test_generalized_supremum_reduces_to_constant_formula(demo_params):
    S0 = 6 * A0 * LENGTH
    assert generalized_supremum(flat_solve(demo_params, 2048), S0) == \
        surface_supremum(A0, LENGTH, S0, demo_params)


def test_generalized_supremum_near_constant_h():
    # h equals h(0) except on a handful of cells: stays within quadrature error
    S0 = 6 * A0 * LENGTH
    const = PhysicalParams(k=10.0, h=10.0, h_r=10.0, T_d=10.0, T_inf=0.0)

    def h_dip(x):
        x = np.asarray(x)
        dip = (np.abs(x - 0.043) < 2 * LENGTH / 4096)
        return np.where(dip, 9.999, 10.0)

    varying = PhysicalParams(k=10.0, h=h_dip, h_r=10.0, T_d=10.0, T_inf=0.0)
    ref = surface_supremum(A0, LENGTH, S0, const)
    got = generalized_supremum(flat_solve(varying, 4096), S0)
    assert got == pytest.approx(ref, rel=1e-5)


def test_generalized_supremum_decreasing_affine_high_res_assembly():
    # oracle: independent trapezoid assembly of the three terms from a finer solve
    S0 = 6 * A0 * LENGTH
    params = PhysicalParams(k=10.0, h=lambda x: 20.0 - 100.0 * x, h_r=10.0,
                            T_d=10.0, T_inf=0.0)
    got = generalized_supremum(flat_solve(params, 8192), S0)

    fine = Grid(LENGTH, 32768)
    a = RadiusProfile.constant(A0, fine)
    b = SurfaceMeasure.constant(A0, fine)
    theta = solve_temperature(a, b, params, fine).values
    beta_nodes = params.beta(fine.nodes)
    f = beta_nodes * theta   # trapezoid rule written out: numpy 1.x has no np.trapezoid
    ref = params.k * np.pi * (
        A0 * (np.diff(fine.nodes) * (f[1:] + f[:-1]) / 2.0).sum()
        + (S0 - A0 * LENGTH) * beta_nodes[0] * params.delta_T
        + params.beta_r * A0 ** 2 * theta[-1])
    assert got == pytest.approx(ref, rel=1e-5)


def test_generalized_supremum_requires_max_at_inlet():
    rising = PhysicalParams(k=10.0, h=lambda x: 10.0 + 100.0 * x, h_r=10.0,
                            T_d=10.0, T_inf=0.0)
    with pytest.raises(ConfigError):
        generalized_supremum(flat_solve(rising, 512), 6 * A0 * LENGTH)


def test_generalized_supremum_refuses_a_solve_off_the_flat_design(demo_params):
    grid, a, b, _ = constant_fin(A0, LENGTH, demo_params, 512)
    raised = SurfaceMeasure.constant(1.5 * A0, grid, floor=A0)
    with pytest.raises(ConfigError, match="flat design"):
        generalized_supremum(solve_temperature(a, raised, demo_params, grid), 6 * A0 * LENGTH)
    thick = RadiusProfile(np.full(grid.n_cells + 1, 2 * A0), A0, LENGTH)
    with pytest.raises(ConfigError, match="flat design"):
        generalized_supremum(solve_temperature(thick, b, demo_params, grid), 6 * A0 * LENGTH)


# ---------------------------------------------------- directional derivative

def test_swap_derivative_vanishes_toward_the_inlet(demo_params):
    grid = Grid(LENGTH, 2048)
    a = RadiusProfile.constant(A0, grid)
    b = SurfaceMeasure.constant(A0, grid)
    c = A0 / 10
    T = solve_temperature(a, b, demo_params, grid)
    mid = directional_derivative(T, LENGTH / 2, c)
    near0 = directional_derivative(T, LENGTH / 1e5, c)
    assert mid > 0.0
    assert abs(near0) < 1e-2 * mid


def test_swap_derivative_positive_for_interior_points(demo_params):
    grid = Grid(LENGTH, 1024)
    rng = Random(11)
    for _ in range(5):
        a, b = random_pair(rng, A0, grid)
        x0 = rng.uniform(0.1, 0.9) * LENGTH
        T = solve_temperature(a, b, demo_params, grid)
        assert directional_derivative(T, x0, A0 / 10) > 0.0


def test_swap_derivative_matches_finite_difference_quotient():
    # shallow fin keeps the O(eps) window averaging small; random density
    a0, ell = 0.05, 1.0
    lam = 0.3
    params = PhysicalParams(k=10.0, h=lam * lam * a0 * 10.0 / 2.0,
                            h_r=5.0 * lam * 10.0, T_d=10.0, T_inf=0.0)
    grid = Grid(ell, 8192)
    rng = np.random.default_rng(5)
    a = RadiusProfile.constant(a0, grid)
    # keep headroom so removing c on the swap window stays above the floor
    dens = a0 * (1.15 + 0.3 * rng.random(grid.n_cells))
    b = SurfaceMeasure(dens, a0, ell)
    x0, c, eps = ell / 2, a0 / 10, 1e-3 * ell
    T0 = solve_temperature(a, b, params, grid)
    ana = directional_derivative(T0, x0, c)
    F0 = heat_flux_relaxed(T0)
    x = grid.nodes
    add = np.clip(np.minimum(x[1:], eps) - np.maximum(x[:-1], 0.0), 0, None)
    rem = np.clip(np.minimum(x[1:], x0 + eps / 2)
                  - np.maximum(x[:-1], x0 - eps / 2), 0, None)
    b_eps = SurfaceMeasure(dens + c * (add - rem) / grid.dx, a0, ell)
    T_eps = solve_temperature(a, b_eps, params, grid)
    fd = (heat_flux_relaxed(T_eps) - F0) / eps
    # the quotient carries an O(eps) inlet-window averaging error; 2.5e-3
    # bounds it at this geometry (measured ~1.2e-3)
    assert fd == pytest.approx(ana, rel=2.5e-3)


def test_random_admissible_fluxes_below_the_supremum(demo_params):
    # any admissible profile within the budget stays below the supremum
    # (0.5% headroom for discretization)
    from pinfin import heat_flux_boundary
    from pinfin.randoms import random_pair as rp
    rng = Random(17)
    grid = Grid(LENGTH, 1000)
    S0 = 6 * A0 * LENGTH
    sup = surface_supremum(A0, LENGTH, S0, demo_params)
    checked = 0
    for _ in range(40):
        a, b = rp(rng, A0, grid)
        if surface(a, grid) > S0:
            continue
        T = solve_temperature(a, b, demo_params, grid)
        assert heat_flux_boundary(T) <= sup * 1.005
        checked += 1
    assert checked >= 20


def test_inlet_atom_measure_attains_the_supremum(demo_params):
    # floor density plus all excess as an inlet atom realizes the closed-form
    # supremum (up to discretization): the optimal relaxed design
    grid = Grid(LENGTH, 8192)
    S0 = 6 * A0 * LENGTH
    a = RadiusProfile.constant(A0, grid)
    b = SurfaceMeasure.constant(A0, grid).with_atom(0.0, S0 - A0 * LENGTH)
    T = solve_temperature(a, b, demo_params, grid)
    got = heat_flux_relaxed(T)
    assert got == pytest.approx(surface_supremum(A0, LENGTH, S0, demo_params),
                                rel=1e-6)


# -------------------------------------------------------------- gradient

def test_gradient_density_nonincreasing_when_h_nonincreasing(demo_params):
    grid = Grid(LENGTH, 1024)
    rng = Random(9)
    for params in (demo_params,
                   PhysicalParams(k=10.0, h=lambda x: 20.0 - 100.0 * x,
                                  h_r=10.0, T_d=10.0, T_inf=0.0)):
        a, b = random_pair(rng, A0, grid)
        T = solve_temperature(a, b, params, grid)
        g = flux_gradient_density(T)
        assert np.all(np.diff(g) <= 1e-12 * g[0])
