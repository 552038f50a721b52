import numpy as np
import pytest

from pinfin import (ConfigError, Grid, PhysicalParams, RadiusProfile,
                    SurfaceMeasure, solve_temperature)

from linearized import solve_linearized

A0, LENGTH = 0.05, 1.0


@pytest.fixture
def setup():
    params = PhysicalParams(k=10.0, h=0.1, h_r=0.1, T_d=10.0, T_inf=0.0)
    grid = Grid(LENGTH, 4096)
    a = RadiusProfile.constant(A0, grid)
    b = SurfaceMeasure(np.full(grid.n_cells, 1.3 * A0), A0, LENGTH)
    T = solve_temperature(a, b, params, grid)
    return params, grid, a, b, T


def test_dirichlet_node_is_exactly_zero(setup):
    params, grid, a, b, T = setup
    lin = solve_linearized(T, 0.4 * LENGTH, A0 / 10)
    assert lin.values[0] == 0.0


def test_response_scales_linearly_with_amplitude(setup):
    # c -> 0 limit: the solution is proportional to c, so it vanishes with c
    params, grid, a, b, T = setup
    big = solve_linearized(T, 0.4 * LENGTH, A0 / 10)
    small = solve_linearized(T, 0.4 * LENGTH, A0 / 1e6)
    assert np.allclose(small.values * 1e5, big.values, rtol=1e-12)
    assert np.max(np.abs(small.values)) < 1e-4 * np.max(np.abs(big.values))


def test_removing_lateral_surface_warms_downstream(setup):
    params, grid, a, b, T = setup
    lin = solve_linearized(T, 0.4 * LENGTH, A0 / 10)
    assert np.all(lin.values[1:] > 0.0)


def test_discrete_flux_drop_matches_source_strength(setup):
    # the flux a^2 T' drops by the source strength across the loaded volume,
    # up to that volume's own reaction integral (O(dx))
    params, grid, a, b, T = setup
    x0 = 0.4 * LENGTH
    lin = solve_linearized(T, x0, A0 / 10)
    assert lin.flux_jump < 0.0
    assert lin.flux_jump == pytest.approx(-lin.source_strength, rel=5e-3)
    theta_x0 = T.theta_at(x0)
    expected = float(params.beta(x0)) * (A0 / 10) * theta_x0
    assert lin.source_strength == pytest.approx(expected, rel=1e-12)


def test_consistency_with_swap_finite_difference(setup):
    # (T_eps - T)/eps for the density swap b + c(chi_[0,eps] - chi_window(x0))
    # converges to the point-source response; the inlet window's own
    # contribution vanishes since the load lands on the Dirichlet volume
    params, grid, a, b, T = setup
    x0, c = 0.4 * LENGTH, A0 / 10
    lin = solve_linearized(T, x0, c)
    x = grid.nodes
    errs = []
    for eps_rel in (1e-2, 1e-3):
        eps = eps_rel * LENGTH
        add = np.clip(np.minimum(x[1:], eps) - np.maximum(x[:-1], 0.0), 0, None)
        rem = np.clip(np.minimum(x[1:], x0 + eps / 2)
                      - np.maximum(x[:-1], x0 - eps / 2), 0, None)
        b_eps = SurfaceMeasure(b.density + c * (add - rem) / grid.dx, A0, LENGTH)
        T_eps = solve_temperature(a, b_eps, params, grid)
        fd = (T_eps.values - T.values) / eps
        errs.append(float(np.max(np.abs(fd - lin.values)))
                    / float(np.max(np.abs(lin.values))))
    assert errs[0] < 0.05
    assert errs[1] < 0.005
    assert errs[1] < errs[0] / 5


def test_assembly_identity_with_swap_derivative(setup):
    # the swap derivative admits two expressions: the closed form in T(x0),
    # and the assembly k pi [<beta b, Tt> + c beta(0) dT - c beta(x0) theta(x0)
    # + beta_r a(L)^2 Tt(L)] from the sensitivity field; they must agree
    from pinfin import directional_derivative
    params, grid, a, b, T = setup
    # on a node the identity is exact in the discrete system (no snapping)
    x0, c = grid.nodes[1638], A0 / 10
    lin = solve_linearized(T, x0, c)
    beta_mid = params.beta(grid.midpoints)
    w = beta_mid * b.density * grid.dx / 2.0
    pairing = float(np.sum(w * (lin.values[:-1] + lin.values[1:])))
    theta_x0 = T.theta_at(x0)
    assembly = params.k * np.pi * (
        pairing
        + c * float(params.beta(0.0)) * params.delta_T
        - c * float(params.beta(x0)) * theta_x0
        + params.beta_r * a.values[-1] ** 2 * lin.values[-1])
    direct = directional_derivative(T, x0, c)
    # exact up to the conditioning of the two tridiagonal solves
    assert assembly == pytest.approx(direct, rel=1e-8)


def test_rejects_boundary_swap_points(setup):
    params, grid, a, b, T = setup
    for x0 in (0.0, LENGTH):
        with pytest.raises(ConfigError):
            solve_linearized(T, x0, A0 / 10)
    with pytest.raises(ConfigError):
        solve_linearized(T, 0.4 * LENGTH, 0.0)
