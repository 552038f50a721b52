import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinfin import (Grid, NumericalError, OscillationSpec, SurfaceMeasure,
                    bang_density, oscillating_profile, reconstruct_radius,
                    step_density, surface)
from pinfin.sequences import CELLS_PER_OSCILLATION, radius_from_density

A0, ELL = 0.05, 1.0


def _arc_branch(dens, widths, a_start):
    """Scalar walk of one branch: the reference for reconstruct_radius."""
    out = [a_start]
    a = a_start
    for b, h in zip(dens, widths):
        a = min(a, b)
        w = min(a * a / (b + math.sqrt((b - a) * (b + a))) + h, b)
        a = math.sqrt(w * (2.0 * b - w))
        out.append(a)
    return out


def _reconstruct_by_oscillation(b, specs, a_boundary, grid):
    """One oscillation at a time, each branch walked by _arc_branch."""
    dens, nodes, tol = b.density, grid.nodes, 1e-9 * grid.dx
    values = np.full(nodes.size, a_boundary)
    for spec in specs:
        edges = np.linspace(spec.x_start, spec.x_end, spec.n_oscillations + 1)
        for e0, e1 in zip(edges[:-1], edges[1:]):
            i0 = int(np.searchsorted(nodes, e0 + tol, "right"))
            i1 = int(np.searchsorted(nodes, e1 - tol, "left"))
            ends = np.concatenate(([e0], nodes[i0:i1], [e1]))
            cell = np.clip((0.5 * (ends[:-1] + ends[1:]) / grid.dx).astype(int),
                           0, grid.n_cells - 1)
            piece, widths = dens[cell].tolist(), np.diff(ends).tolist()
            up = np.array(_arc_branch(piece, widths, a_boundary))
            dn = np.array(_arc_branch(piece[::-1], widths[::-1], a_boundary)[::-1])
            ix = int(np.argmax(up >= dn))
            values[i0:i1] = np.concatenate((up[:ix], dn[ix:]))[1:-1]
    return np.maximum(values, a_boundary)


def _loaded_runs(b, grid):
    """Specs of radius_from_density, found by walking the cells one by one."""
    loaded = b.density > b.floor * (1.0 + 1e-9)
    specs, i = [], 0
    while i < grid.n_cells:
        j = i
        while j < grid.n_cells and loaded[j]:
            j += 1
        if j > i:
            specs.append(OscillationSpec(i * grid.dx, j * grid.dx,
                                         max(1, (j - i) // CELLS_PER_OSCILLATION)))
        i = j + 1
    return specs


def test_flat_density_reconstructs_the_baseline():
    grid = Grid(ELL, 1024)
    b = SurfaceMeasure.constant(A0, grid)
    a = reconstruct_radius(b, [OscillationSpec(0.0, 0.3, 1)], A0, grid)
    assert np.allclose(a.values, A0, rtol=0, atol=1e-14)


def test_reconstruction_reproduces_closed_form_arcs():
    # the step density with m oscillations of width 1/m^2 is exactly the
    # closed-form arc construction; the exact branches must match it
    m = 4
    grid = Grid(ELL, 8192)   # 1/m grid-aligned
    S = 1.5 * A0 * ELL
    b = step_density(S, m, A0, grid)
    spec = OscillationSpec(0.0, 1.0 / m, m)
    rec = reconstruct_radius(b, [spec], A0, grid)
    ref = oscillating_profile(S, m, A0, grid)
    err = np.max(np.abs(rec.values - ref.values)) / A0
    assert err <= 1e-12


def test_doubling_oscillations_halves_the_deviation():
    grid = Grid(ELL, 4096)
    dens = np.full(grid.n_cells, A0)
    window = grid.midpoints <= 0.3
    dens[window] = 3.0 * A0
    b = SurfaceMeasure(dens, A0, grid.length)
    devs = []
    for n_osc in (4, 8, 16, 32):
        rec = reconstruct_radius(b, [OscillationSpec(0.0, 0.3, n_osc)], A0, grid)
        devs.append(float(np.max(rec.values) - A0))
    ratios = [d1 / d2 for d1, d2 in zip(devs, devs[1:])]
    assert all(1.6 <= r <= 2.4 for r in ratios)


def test_reconstructed_surface_matches_the_density_total():
    grid = Grid(ELL, 8192)
    M, S0 = 0.4, 1.5 * A0 * ELL
    b = bang_density(M, S0, A0, grid)
    x_switch = (S0 - A0 * ELL) / (M - A0)
    # keep ~35 grid cells per oscillation so the sampled slopes resolve them
    n_osc = 8
    rec = reconstruct_radius(b, [OscillationSpec(0.0, x_switch, n_osc)], A0, grid)
    # a sqrt(1+a'^2) = b a.e. implies equal surface integrals
    assert surface(rec, grid) == pytest.approx(b.total(grid), rel=1e-2)


def test_branch_saturates_at_the_lower_density_where_the_density_drops():
    # the falling branch saturates at 2 A0 on the right half, then drops to
    # the 1.5 A0 of the left half, where the rising branch meets it
    grid = Grid(ELL, 1000)
    dens = np.where(grid.midpoints < 0.5, 1.5 * A0, 2.0 * A0)
    b = SurfaceMeasure(dens, A0, grid.length)
    rec = reconstruct_radius(b, [OscillationSpec(0.0, ELL, 1)], A0, grid)
    x = grid.nodes
    assert np.all(rec.values[(x >= 0.06) & (x < 0.5)] == 1.5 * A0)
    assert np.all(rec.values[(x >= 0.5) & (x <= 0.91)] == 2.0 * A0)


def test_default_oscillation_count_rule():
    spec = OscillationSpec(0.0, 0.25, int(np.floor(1.0 / 0.25)) + 1)   # 5
    grid = Grid(ELL, 4096)
    dens = np.full(grid.n_cells, A0)
    dens[grid.midpoints <= 0.25] = 2.0 * A0
    b = SurfaceMeasure(dens, A0, grid.length)
    rec = reconstruct_radius(b, [spec], A0, grid)
    assert float(np.max(rec.values)) > A0


def test_density_below_baseline_fails():
    grid = Grid(ELL, 512)
    b = SurfaceMeasure.constant(A0, grid)
    with pytest.raises(NumericalError):
        # baseline above the density: branches cannot cross
        reconstruct_radius(b, [OscillationSpec(0.0, 0.25, 2)], 2 * A0, grid)


@st.composite
def _piecewise_density(draw):
    """Grid, cellwise density >= A0 with a few levels, grid-aligned spec."""
    n_osc = draw(st.sampled_from([1, 2, 3, 5, 8]))
    cells_per_osc = draw(st.integers(1, 40))
    n_cells = draw(st.integers(n_osc * cells_per_osc + 2, 1024))
    first = draw(st.integers(0, n_cells - n_osc * cells_per_osc))
    grid = Grid(ELL, n_cells)
    cuts = sorted(draw(st.lists(st.integers(0, n_cells), max_size=6)))
    levels = draw(st.lists(st.floats(1.0, 50.0), min_size=len(cuts) + 1,
                           max_size=len(cuts) + 1))
    dens = np.empty(n_cells)
    for lo, hi, level in zip([0] + cuts, cuts + [n_cells], levels):
        dens[lo:hi] = A0 * level
    spec = OscillationSpec(first * grid.dx,
                           (first + n_osc * cells_per_osc) * grid.dx, n_osc)
    return grid, SurfaceMeasure(dens, A0, ELL), spec, first, cells_per_osc


@settings(max_examples=60, deadline=None)
@given(_piecewise_density())
def test_reconstruction_stays_between_baseline_and_density(case):
    grid, b, spec, first, cells_per_osc = case
    rec = reconstruct_radius(b, [spec], A0, grid).values
    edges = first + cells_per_osc * np.arange(spec.n_oscillations + 1)
    assert np.all(rec[edges] == A0)
    last = first + cells_per_osc * spec.n_oscillations
    assert np.all(rec[:first + 1] == A0) and np.all(rec[last:] == A0)
    assert np.all(rec >= A0)
    assert np.all(rec <= np.max(b.density[first:last]))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(3, 12), level=st.floats(1.5, 50.0),
       cells_per_step=st.integers(2, 256))
def test_reconstruction_matches_oscillating_profile_on_step_densities(
        m, level, cells_per_step):
    # density level * A0 on [0, 1/m] with 1/m on a node: the exact arcs are
    # the oscillating profile with m oscillations
    grid = Grid(ELL, m * cells_per_step)
    S = A0 * ELL + A0 * (level - 1.0) / m
    b = step_density(S, m, A0, grid)
    rec = reconstruct_radius(b, [OscillationSpec(0.0, 1.0 / m, m)], A0, grid)
    ref = oscillating_profile(S, m, A0, grid, check_resolution=False)
    assert np.max(np.abs(rec.values - ref.values) / ref.values) <= 1e-12


@st.composite
def _levels(draw, n_cells, low):
    """Cellwise density, piecewise constant, each level ``low`` times 1 to 60.

    A lower level after a higher one drops the density below the radius a
    branch has reached, which clamps the branch."""
    cuts = sorted(draw(st.lists(st.integers(0, n_cells), max_size=8)))
    levels = draw(st.lists(st.one_of(st.just(1.0), st.floats(1.0, 60.0)),
                           min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    dens = np.empty(n_cells)
    for lo, hi, level in zip([0] + cuts, cuts + [n_cells], levels):
        dens[lo:hi] = low * level
    return dens


@st.composite
def _specs(draw, grid):
    """Intervals with 1 to 300 oscillations; an end may sit within tol of a
    node, on either side, so that node keeps or loses the baseline."""
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        k0 = draw(st.integers(0, grid.n_cells - 1))
        k1 = draw(st.integers(k0 + 1, grid.n_cells))
        x = [k * grid.dx + draw(st.sampled_from([0.0, -0.5e-9, 0.5e-9, 0.3]))
             * grid.dx for k in (k0, k1)]
        x = [min(max(x[0], 0.0), grid.length), min(x[1], grid.length)]
        if x[1] > x[0]:
            specs.append(OscillationSpec(x[0], x[1], draw(st.integers(1, 300))))
    return specs


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reconstruction_is_bitwise_the_scalar_walk(data):
    # the array recurrence does every IEEE operation of the scalar walk in the
    # same order, so the radii agree to the last bit; the lanes padded past
    # their last piece raise no floating-point warning
    grid = Grid(data.draw(st.sampled_from([ELL, 0.1, 3.0])),
                data.draw(st.integers(2, 700)))
    a_boundary = A0 * data.draw(st.sampled_from([1.0, 1.0, 1.3]))
    b = SurfaceMeasure(data.draw(_levels(grid.n_cells, a_boundary)), A0, grid.length)
    specs = data.draw(_specs(grid))
    rec = reconstruct_radius(b, specs, a_boundary, grid).values
    assert np.array_equal(rec, _reconstruct_by_oscillation(b, specs, a_boundary, grid))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_radius_from_density_finds_every_loaded_run(data):
    # runs that touch either end of the fin, single cells and long runs
    grid = Grid(ELL, data.draw(st.integers(2, 600)))
    b = SurfaceMeasure(data.draw(_levels(grid.n_cells, A0)), A0, grid.length)
    specs = _loaded_runs(b, grid)
    ref = (_reconstruct_by_oscillation(b, specs, A0, grid) if specs
           else np.full(grid.n_cells + 1, A0))
    assert np.array_equal(radius_from_density(b, grid).values, ref)
