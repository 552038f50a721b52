import warnings

import numpy as np
import pytest

from pinfin import (ConfigError, Grid, PhysicalParams, RadiusProfile,
                    SurfaceMeasure, bang_density, heat_flux_relaxed,
                    oscillating_profile, oscillating_profile_volume,
                    oscillating_radius, oscillation_peak, sequences,
                    solve_temperature, step_density, surface,
                    surface_supremum, switch_point, volume)
from pinfin import solver
from pinfin.sequences import _first_feasible, volume_constrained_design

A0, ELL = 0.05, 1.0
S = 1.5 * A0 * ELL


# ------------------------------------------------------------ step density

@pytest.mark.parametrize("m", [3, 8, 17, 128])
def test_step_density_total_is_exact(m):
    grid = Grid(ELL, 500)   # 1/m never aligned with this grid for m=3,17
    b = step_density(S, m, A0, grid)
    assert b.total(grid) == pytest.approx(S, rel=1e-14)
    assert np.all(b.density >= A0)


def test_step_density_degenerate_budget():
    grid = Grid(ELL, 64)
    b = step_density(A0 * ELL, 5, A0, grid)
    assert np.all(b.density == A0)


def test_step_density_plateau_height():
    grid = Grid(ELL, 512)
    m = 4
    S2 = 2 * A0 * ELL
    b = step_density(S2, m, A0, grid)
    inside = grid.midpoints < 1.0 / m - grid.dx
    assert np.allclose(b.density[inside], A0 + A0 * ELL * m, rtol=1e-14)
    outside = grid.midpoints > 1.0 / m + grid.dx
    assert np.allclose(b.density[outside], A0, rtol=1e-14)


def test_step_density_rejects_wide_interval():
    grid = Grid(ELL, 64)
    with pytest.raises(ConfigError):
        step_density(S, 1, A0, grid)  # 1/m = length


@pytest.mark.parametrize("S_bad, m", [(0.5e-4, 8), (6e-4, 1)],
                         ids=["budget_below_floor", "interval_too_wide"])
def test_oscillating_designs_share_one_input_check(S_bad, m):
    a0, ell = 1e-3, 0.1
    designs = [lambda: oscillation_peak(S_bad, m, a0, ell),
               lambda: oscillating_radius(np.zeros(3), S_bad, m, a0, ell),
               lambda: oscillating_profile_volume(S_bad, m, a0, ell),
               lambda: step_density(S_bad, m, a0, Grid(ell, 64))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for design in designs:
            with pytest.raises(ConfigError):
                design()


# ------------------------------------------------------ oscillating profile

def test_oscillating_profile_endpoints_and_tail():
    grid = Grid(ELL, 32768)
    m = 8
    prof = oscillating_profile(S, m, A0, grid)
    assert prof.values[0] == pytest.approx(A0, abs=1e-15)
    tail = grid.nodes >= 1.0 / m
    assert np.allclose(prof.values[tail], A0, rtol=0, atol=1e-15)
    assert np.max(prof.values) > A0


def test_supnorm_attained_at_half_period_and_decays_like_one_over_m():
    # the peak sits at the first half-period midpoint; doubling m roughly
    # halves the excursion (the arc geometry gives ratios drifting up to 2)
    peaks = []
    for m in (8, 16, 32, 64, 128):
        peak = oscillation_peak(S, m, A0, ELL)
        x_peak = 0.5 / (m * m)
        direct = float(oscillating_radius(np.array([x_peak]), S, m, A0, ELL)[0]) - A0
        assert peak == pytest.approx(direct, rel=1e-12)
        peaks.append(peak)
    ratios = [p1 / p2 for p1, p2 in zip(peaks, peaks[1:])]
    assert all(1.4 <= r <= 2.3 for r in ratios)
    assert all(p1 > p2 for p1, p2 in zip(peaks, peaks[1:]))
    assert peaks[-1] < peaks[0] / 8


def test_arc_identity_analytic():
    # on each arc, a sqrt(1 + a'^2) equals the arc level exactly; evaluate the
    # residual with the analytic arc derivative a' = (off - t) / a
    m = 8
    Mm = A0 + (S - A0 * ELL) * m
    off = np.sqrt(Mm ** 2 - A0 ** 2)
    period = 1.0 / m ** 2
    t = np.linspace(0.05 * period, 0.45 * period, 41)   # interior of one arc
    a = oscillating_radius(t, S, m, A0, ELL)
    ap = (off - t) / a
    resid = np.abs(a * np.sqrt(1.0 + ap ** 2) - Mm) / Mm
    assert np.max(resid) <= 1e-9


def test_arc_identity_numeric_midpoints():
    # midpoint slopes of a finely resolved profile reproduce the step density
    m = 4
    grid = Grid(ELL, 65536)
    prof = oscillating_profile(S, m, A0, grid)
    b = SurfaceMeasure.from_radius(prof, grid)
    ref = step_density(S, m, A0, grid)
    interior = np.ones(grid.n_cells, dtype=bool)
    # skip cells containing arc junctions, where the sampled slope averages
    # the two neighboring arcs
    junctions = np.arange(0, 1.0 / m + 1e-12, 0.5 / m ** 2)
    idx = np.minimum((junctions / grid.dx).astype(int), grid.n_cells - 1)
    for j in idx:
        interior[max(j - 1, 0):j + 2] = False
    err = np.abs(b.density[interior] - ref.density[interior]) / ref.density[interior]
    assert np.max(err) <= 1e-6


def test_measure_pairing_converges_to_density_plus_inlet_atom():
    # <b_m, phi> -> a0 int phi + (S - a0 L) phi(0) at rate O(1/m)
    # (the test function needs phi'(0) != 0 for the rate to be sharp)
    grid = Grid(ELL, 8192)
    xm = grid.midpoints
    phi = np.cos(3.0 * xm + 0.7) + 2.0
    limit = A0 * np.sum(phi) * grid.dx + (S - A0 * ELL) * (np.cos(0.7) + 2.0)
    errs = []
    for m in (8, 32, 128):
        b = step_density(S, m, A0, grid)
        pairing = float(np.sum(b.density * phi) * grid.dx)
        errs.append(abs(pairing - limit))
    assert errs[0] > errs[1] > errs[2]
    assert 2.5 <= errs[0] / errs[1] <= 6.5
    assert 2.5 <= errs[1] / errs[2] <= 6.5


def test_oscillating_profile_samples_undersampled_grids():
    # m = 64 on 256 cells leaves 0.03 cells per half-period; the samples are
    # still the exact radius at the nodes
    grid = Grid(ELL, 256)
    prof = oscillating_profile(S, 64, A0, grid)
    assert np.array_equal(prof.values, oscillating_radius(grid.nodes, S, 64, A0, ELL))


# ------------------------------------------------------------ bang density

def test_switch_point_formula():
    assert switch_point(11.0, 2.0, 1.0, 1.0) == pytest.approx(0.1, rel=1e-15)


def test_bang_density_total_and_levels():
    grid = Grid(ELL, 500)
    M, S0 = 0.4, 1.7 * A0 * ELL
    b = bang_density(M, S0, A0, grid)
    assert b.total(grid) == pytest.approx(S0, rel=1e-14)
    xM = switch_point(M, S0, A0, ELL)
    xm = grid.midpoints
    assert np.allclose(b.density[xm < xM - grid.dx], M, rtol=1e-14)
    assert np.allclose(b.density[xm > xM + grid.dx], A0, rtol=1e-14)


def test_bang_density_degenerate_and_infeasible():
    grid = Grid(ELL, 64)
    b = bang_density(2 * A0, A0 * ELL, A0, grid)
    assert np.all(b.density == A0)
    with pytest.raises(ConfigError):
        bang_density(A0 * 1.01, 2 * A0 * ELL, A0, grid)  # switch beyond the tip
    with pytest.raises(ConfigError):
        switch_point(A0, 2 * A0 * ELL, A0, ELL)


# ------------------------------------------------- volume-constrained build

def test_volume_constrained_profile_small_case():
    a0, ell = 1.2, 0.2
    params = PhysicalParams(k=10.0, h=0.25, h_r=0.0, T_d=10.0, T_inf=0.0)
    grid = Grid(ell, 8192)
    n = 5
    V0 = 2 * a0 * a0 * ell
    prof = volume_constrained_design(n, V0, a0, grid, params)[0]
    assert volume(prof, grid) <= V0 - 1.0 / n + 1e-9
    assert surface(prof, grid) == pytest.approx(n, rel=5e-3)
    b = SurfaceMeasure.from_radius(prof, grid)
    T = solve_temperature(prof, b, params, grid)
    F = heat_flux_relaxed(T)
    scale = params.k * np.pi * params.constant_beta() * params.delta_T
    assert F >= scale * (n - a0 * ell) * 0.98


def test_volume_constrained_design_returns_the_flux_of_its_design():
    a0, ell = 1.2, 0.2
    params = PhysicalParams(k=10.0, h=0.25, h_r=0.0, T_d=10.0, T_inf=0.0)
    grid = Grid(ell, 8192)
    n, V0 = 5, 2 * a0 * a0 * ell
    prof, m, F = volume_constrained_design(n, V0, a0, grid, params)
    b = step_density(n, m, a0, grid)
    assert F == heat_flux_relaxed(solve_temperature(prof, b, params, grid))


def test_volume_constrained_profile_rejects_bad_budgets():
    grid = Grid(0.2, 1024)
    params = PhysicalParams(k=10.0, h=0.25, h_r=0.0, T_d=10.0, T_inf=0.0)
    with pytest.raises(ConfigError):
        volume_constrained_design(5, 1.2 ** 2 * 0.2 * 0.5, 1.2, grid, params)
    with pytest.raises(ConfigError):
        volume_constrained_design(1, 2 * 1.2 ** 2 * 0.2, 1.2, grid, params)


# ------------------------------------------------- volume search vs reference

def doubling_bisection(feasible, m_lo):
    """The volume design's former search: double m, then bisect."""
    m = m_lo
    while not feasible(m):
        m *= 2
    lo, hi = max(m // 2, m_lo - 1), m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def reference_volume_design(n, V0, a0, grid, params):
    """m, flux and solve count of the former volume-then-flux search."""
    L = grid.length
    slope = params.k * np.pi * params.constant_beta() * params.delta_T
    flux_floor = surface_supremum(a0, L, n, params) - slope / n
    fluxes = {}

    def feasible(m):
        if oscillating_profile_volume(n, m, a0, L) > V0 - 1.0 / n:
            return False
        prof = RadiusProfile(oscillating_radius(grid.nodes, n, m, a0, L), a0, L)
        fluxes[m] = heat_flux_relaxed(
            solve_temperature(prof, step_density(n, m, a0, grid), params, grid))
        return fluxes[m] >= flux_floor

    m = doubling_bisection(feasible, max(int(np.floor(1.0 / L)) + 1, 2))
    return m, fluxes[m], len(fluxes)


def most_resolved(grid):
    """Largest m whose half-period 1/(2 m^2) spans MIN_CELLS_PER_HALF_PERIOD cells."""
    return max(m for m in range(1, 10_000)
               if 0.5 / (m * m) >= sequences.MIN_CELLS_PER_HALF_PERIOD * grid.dx)


@pytest.fixture
def count_solves(monkeypatch):
    """The oscillation count m of every flux solve the volume search makes."""
    calls = []

    class Counted(solver.FinSystem):
        def excess(self, density, atoms=()):
            # a step density carries (S - a0 L) m above a0 on its first cell
            a0, grid = self.radius.a0, self.grid
            excess = grid.dx * density.sum() - a0 * grid.length
            calls.append(round((density[0] - a0) / excess))
            return super().excess(density, atoms)

    # the search's kernel only: the reference design solves on its own
    monkeypatch.setattr(sequences, "FinSystem", Counted)
    return calls


# h, V0 in units of the floor volume a0^2 L, surface target n: the volume
# binds at V0 = 1.5 with n = 8 or 10; at h = 1, n = 8 the doubling's m = 24
# lands next to the answer 22
@pytest.mark.parametrize("n_cells", [8192, 32768])
@pytest.mark.parametrize("h, V0, n", [
    (0.25, 2.0, 5), (0.25, 2.0, 10), (0.25, 2.0, 15), (0.25, 4.0, 15),
    (0.25, 1.5, 8), (0.25, 1.5, 10), (0.25, 1.5, 15),
    (1.0, 1.5, 8), (1.0, 2.0, 10), (4.0, 2.0, 5)])
def test_volume_search_matches_doubling_bisection(n_cells, h, V0, n, count_solves):
    a0, ell = 1.2, 0.2
    params = PhysicalParams(k=10.0, h=h, h_r=0.0, T_d=10.0, T_inf=0.0)
    grid = Grid(ell, n_cells)
    V0 *= a0 * a0 * ell
    m_ref, F_ref, solves_ref = reference_volume_design(n, V0, a0, grid, params)
    _, m, F = volume_constrained_design(n, V0, a0, grid, params)
    assert (m, F) == (m_ref, F_ref)
    assert len(count_solves) <= solves_ref
    assert max(count_solves) <= most_resolved(grid)


def test_volume_item_geometry_needs_at_most_nine_solves(count_solves):
    # check_volume_unbounded's targets; the former search made 1 + 5 + 10
    a0, ell = 1.2, 0.2
    params = PhysicalParams(k=10.0, h=0.25, h_r=0.0, T_d=10.0, T_inf=0.0)
    grid = Grid(ell, 32768)
    V0 = 2 * a0 * a0 * ell
    for n in (5, 10, 20):
        _, m, F = volume_constrained_design(n, V0, a0, grid, params)
        assert (m, F) == reference_volume_design(n, V0, a0, grid, params)[:2]
    # n = 5, 10 and 20 in turn; 32768 cells resolve m <= 101
    assert count_solves == [6, 6, 24, 8, 9, 24, 96, 86, 87]


def test_volume_search_refuses_counts_the_grid_cannot_resolve(count_solves):
    # the verify item's physics on 8192 cells, which resolve m <= 50: n = 15
    # needs m = 35, n = 20 needs m = 87; Grid(0.2, 64) resolves m <= 4, below
    # the smallest count m = 6 that fits on the fin
    a0, ell = 1.2, 0.2
    params = PhysicalParams(k=10.0, h=0.25, h_r=0.0, T_d=10.0, T_inf=0.0)
    grid = Grid(ell, 8192)
    V0 = 2 * a0 * a0 * ell
    assert most_resolved(grid) == 50
    assert volume_constrained_design(15, V0, a0, grid, params)[1] == 35
    count_solves.clear()
    with pytest.raises(ConfigError, match=r"grid too coarse: no m up to 50\b"):
        volume_constrained_design(20, V0, a0, grid, params)
    assert len(count_solves) <= 2 and max(count_solves) <= 50
    count_solves.clear()
    with pytest.raises(ConfigError, match="grid too coarse"):
        volume_constrained_design(5, V0, a0, Grid(ell, 64), params)
    assert count_solves == []


def sharp_step(root):
    return lambda m: 1.0 if m < root else -1.0


def flat_tail(root):
    # steep at small m, then a long tail within 1e-6 of zero
    return lambda m: 10.0 * np.exp(-m / 4.0) + 1e-6 * (root - m)


@pytest.mark.parametrize("shape", [sharp_step, flat_tail])
def test_first_feasible_against_brute_force(shape):
    m_lo, m_top = 6, 6 << 10
    for root in [*range(2, 3000, 17), m_top + 1]:
        s = shape(root)
        probes = []

        def shortfall(m):
            probes.append(m)
            return s(m)

        brute = next((m for m in range(m_lo, m_top + 1) if s(m) <= 0.0), None)
        assert _first_feasible(shortfall, m_lo - 1, m_lo, m_top) == brute
        if brute is None:
            assert probes[-1] == m_top
            continue
        bisection = []
        doubling_bisection(lambda m: bisection.append(m) or s(m) <= 0.0, m_lo)
        assert len(probes) <= 2 * len(bisection)
