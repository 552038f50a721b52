import numpy as np
import pytest
from hypothesis import settings

from pinfin import (Grid, PhysicalParams, RadiusProfile, SurfaceMeasure,
                    solve_temperature)

# every run draws the same examples, so a property test cannot flake
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# mm-scale demo fin used throughout: a0 = 1 mm, L = 100 mm, h = 10, k = 10,
# tip coefficient equal to h(L), inlet 10 degC over a 0 degC fluid.
A0 = 1e-3
LENGTH = 0.1


@pytest.fixture
def demo_params():
    return PhysicalParams(k=10.0, h=10.0, h_r=10.0, T_d=10.0, T_inf=0.0)


def constant_fin(a0, length, params, n_cells):
    """Grid, constant profile, its density and the solved temperature."""
    grid = Grid(length, n_cells)
    a = RadiusProfile.constant(a0, grid)
    b = SurfaceMeasure.constant(a0, grid)
    T = solve_temperature(a, b, params, grid)
    return grid, a, b, T


def rel_linf(x, y, scale):
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) / scale
