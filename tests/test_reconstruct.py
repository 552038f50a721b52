import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinfin import (Grid, SurfaceMeasure, bang_density, oscillating_profile,
                    step_density, surface)
from pinfin.sequences import (CELLS_PER_OSCILLATION, radius_from_density,
                              reconstruct_radius)

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


def _reconstruct_by_oscillation(b, runs, grid):
    """One oscillation at a time, each branch walked by _arc_branch."""
    a0, dens, nodes, tol = b.floor, b.density, grid.nodes, 1e-9 * grid.dx
    values = np.full(nodes.size, a0)
    for first, end, n_oscillations in runs:
        edges = np.linspace(first * grid.dx, end * grid.dx, n_oscillations + 1)
        for e0, e1 in zip(edges[:-1], edges[1:]):
            i0 = int(np.searchsorted(nodes, e0 + tol, "right"))
            i1 = int(np.searchsorted(nodes, e1 - tol, "left"))
            ends = np.concatenate(([e0], nodes[i0:i1], [e1]))
            cell = np.clip((0.5 * (ends[:-1] + ends[1:]) / grid.dx).astype(int),
                           0, grid.n_cells - 1)
            piece, widths = dens[cell].tolist(), np.diff(ends).tolist()
            up = np.array(_arc_branch(piece, widths, a0))
            dn = np.array(_arc_branch(piece[::-1], widths[::-1], a0)[::-1])
            ix = int(np.argmax(up >= dn))
            values[i0:i1] = np.concatenate((up[:ix], dn[ix:]))[1:-1]
    return np.maximum(values, a0)


def _loaded_runs(b, grid):
    """Runs of radius_from_density, found by walking the cells one by one."""
    loaded = b.density > b.floor * (1.0 + 1e-9)
    runs, i = [], 0
    while i < grid.n_cells:
        j = i
        while j < grid.n_cells and loaded[j]:
            j += 1
        if j > i:
            runs.append((i, j, max(1, (j - i) // CELLS_PER_OSCILLATION)))
        i = j + 1
    return runs


def test_flat_density_reconstructs_the_baseline():
    grid = Grid(ELL, 1024)
    b = SurfaceMeasure.constant(A0, grid)
    a = reconstruct_radius(b, [(0, 307, 1)], grid)
    assert np.allclose(a.values, A0, rtol=0, atol=1e-14)


def test_reconstruction_reproduces_closed_form_arcs():
    # the step density with m oscillations of width 1/m^2 is exactly the
    # closed-form arc construction; the exact branches must match it
    m = 4
    grid = Grid(ELL, 8192)   # 1/m is cell 2048
    S = 1.5 * A0 * ELL
    b = step_density(S, m, A0, grid)
    rec = reconstruct_radius(b, [(0, 2048, m)], grid)
    ref = oscillating_profile(S, m, A0, grid)
    err = np.max(np.abs(rec.values - ref.values)) / A0
    assert err <= 1e-12


def test_doubling_oscillations_halves_the_deviation():
    grid = Grid(ELL, 4096)
    dens = np.full(grid.n_cells, A0)
    window = grid.midpoints <= 0.3
    dens[window] = 3.0 * A0
    b = SurfaceMeasure(dens, A0, grid.length)
    loaded = int(np.count_nonzero(window))
    devs = []
    for n_osc in (4, 8, 16, 32):
        rec = reconstruct_radius(b, [(0, loaded, n_osc)], grid)
        devs.append(float(np.max(rec.values) - A0))
    ratios = [d1 / d2 for d1, d2 in zip(devs, devs[1:])]
    assert all(1.6 <= r <= 2.4 for r in ratios)


def test_reconstructed_surface_matches_the_density_total():
    grid = Grid(ELL, 8192)
    M, S0 = 0.4, 1.5 * A0 * ELL
    b = bang_density(M, S0, A0, grid)
    # the cells up to the switch, the last partly loaded; 8 oscillations keep
    # ~73 grid cells each so the sampled slopes resolve them
    loaded = int(np.count_nonzero(b.density > A0))
    rec = reconstruct_radius(b, [(0, loaded, 8)], grid)
    # a sqrt(1+a'^2) = b a.e. implies equal surface integrals
    assert surface(rec, grid) == pytest.approx(b.total(grid), rel=1e-2)


def test_branch_saturates_at_the_lower_density_where_the_density_drops():
    # the falling branch saturates at 2 A0 on the right half, then drops to
    # the 1.5 A0 of the left half, where the rising branch meets it
    grid = Grid(ELL, 1000)
    dens = np.where(grid.midpoints < 0.5, 1.5 * A0, 2.0 * A0)
    b = SurfaceMeasure(dens, A0, grid.length)
    rec = reconstruct_radius(b, [(0, grid.n_cells, 1)], grid)
    x = grid.nodes
    assert np.all(rec.values[(x >= 0.06) & (x < 0.5)] == 1.5 * A0)
    assert np.all(rec.values[(x >= 0.5) & (x <= 0.91)] == 2.0 * A0)


def test_default_oscillation_count_rule():
    run = (0, 1024, int(np.floor(1.0 / 0.25)) + 1)   # [0, 0.25], 5 oscillations
    grid = Grid(ELL, 4096)
    dens = np.full(grid.n_cells, A0)
    dens[grid.midpoints <= 0.25] = 2.0 * A0
    b = SurfaceMeasure(dens, A0, grid.length)
    rec = reconstruct_radius(b, [run], grid)
    assert float(np.max(rec.values)) > A0


@st.composite
def _piecewise_density(draw):
    """Grid, cellwise density >= A0 with a few levels, one run."""
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
    run = (first, first + n_osc * cells_per_osc, n_osc)
    return grid, SurfaceMeasure(dens, A0, ELL), run, cells_per_osc


@settings(max_examples=60, deadline=None)
@given(_piecewise_density())
def test_reconstruction_stays_between_baseline_and_density(case):
    grid, b, run, cells_per_osc = case
    first, last, n_osc = run
    rec = reconstruct_radius(b, [run], grid).values
    edges = first + cells_per_osc * np.arange(n_osc + 1)
    assert np.all(rec[edges] == A0)
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
    rec = reconstruct_radius(b, [(0, cells_per_step, m)], grid)
    ref = oscillating_profile(S, m, A0, grid)
    assert np.max(np.abs(rec.values - ref.values) / ref.values) <= 1e-12


@st.composite
def _levels(draw, n_cells):
    """Cellwise density, piecewise constant, each level A0 times 1 to 60.

    A lower level after a higher one drops the density below the radius a
    branch has reached, which clamps the branch."""
    cuts = sorted(draw(st.lists(st.integers(0, n_cells), max_size=8)))
    levels = draw(st.lists(st.one_of(st.just(1.0), st.floats(1.0, 60.0)),
                           min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    dens = np.empty(n_cells)
    for lo, hi, level in zip([0] + cuts, cuts + [n_cells], levels):
        dens[lo:hi] = A0 * level
    return dens


@st.composite
def _runs(draw, grid):
    """One to three disjoint cell runs with 1 to 300 oscillations.  A run
    whose length is a multiple of its count puts its interior edges within
    tol of a node, so the node keeps a0."""
    cuts = sorted(draw(st.lists(st.integers(0, grid.n_cells), min_size=2,
                                max_size=6, unique=True)))
    runs = []
    for first, end in zip(cuts[::2], cuts[1::2]):
        divisors = [n for n in range(1, min(end - first, 300) + 1)
                    if (end - first) % n == 0]
        runs.append((first, end, draw(st.one_of(st.integers(1, 300),
                                                st.sampled_from(divisors)))))
    return runs


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reconstruction_is_bitwise_the_scalar_walk(data):
    # the array recurrence does every IEEE operation of the scalar walk in the
    # same order, so the radii agree to the last bit; the lanes padded past
    # their last piece raise no floating-point warning
    grid = Grid(data.draw(st.sampled_from([ELL, 0.1, 3.0])),
                data.draw(st.integers(2, 700)))
    b = SurfaceMeasure(data.draw(_levels(grid.n_cells)), A0, grid.length)
    runs = data.draw(_runs(grid))
    rec = reconstruct_radius(b, runs, grid).values
    assert np.array_equal(rec, _reconstruct_by_oscillation(b, runs, grid))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_radius_from_density_finds_every_loaded_run(data):
    # runs that touch either end of the fin, single cells and long runs
    grid = Grid(ELL, data.draw(st.integers(2, 600)))
    b = SurfaceMeasure(data.draw(_levels(grid.n_cells)), A0, grid.length)
    ref = _reconstruct_by_oscillation(b, _loaded_runs(b, grid), grid)
    assert np.array_equal(radius_from_density(b, grid).values, ref)
