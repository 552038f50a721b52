"""What a large-grid solve keeps, counted by ``tracemalloc``.

``tracemalloc`` sees numpy's data buffers, so these counts are deterministic.
The unit is one n-length float array at n = 32768 (256 KiB, large enough that
glibc maps it on its own and unmaps it when freed); ``SLACK`` covers the
Python objects around the arrays.
"""

import tracemalloc

import numpy as np
import pytest

from pinfin import (Grid, PhysicalParams, RadiusProfile, SurfaceMeasure,
                    heat_flux_relaxed, solve_temperature)
from pinfin.solver import FinSystem
from pinfin.verification import check_volume_unbounded

from conftest import A0, LENGTH

N = 32768
UNIT = 8 * N
SLACK = 4096


@pytest.fixture
def fin(demo_params):
    grid = Grid(LENGTH, N)
    grid.nodes, grid.midpoints   # cached on the grid, so not counted below
    a = RadiusProfile(A0 * (1.0 + grid.nodes), A0, LENGTH)
    b = SurfaceMeasure(np.full(N, 2.0 * A0), A0, LENGTH)
    solve_temperature(a, b, demo_params, grid)   # the scipy fallback imports its wrapper here
    return a, b, demo_params, grid


def traced(run):
    """Bytes ``run()`` leaves allocated and its peak, with what it returns still held."""
    tracemalloc.start()
    try:
        kept = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return held, peak


def test_a_kernel_holds_four_arrays(fin):
    a, _, params, grid = fin
    held, _ = traced(lambda: FinSystem(a, params, grid))
    assert held <= 4 * UNIT + SLACK


def test_a_solve_and_its_flux_hold_five_arrays_and_peak_at_seven(fin):
    a, b, params, grid = fin

    def run():
        T = solve_temperature(a, b, params, grid)
        heat_flux_relaxed(T)
        return T

    held, peak = traced(run)
    assert held <= 5 * UNIT + SLACK
    assert peak <= 7 * UNIT + SLACK


def test_the_volume_item_peaks_below_eleven_arrays(fin):
    # a 32768-cell grid, nine probes and three searches on one kernel each
    _, peak = traced(check_volume_unbounded)
    assert peak <= 11.1 * UNIT
