"""The sensitivity of the temperature to a point swap of surface mass.

The paper's linearized problem; no command runs it, so it lives with the
tests that check it against finite differences and the swap derivative.
"""

from dataclasses import dataclass

import numpy as np

from pinfin.errors import ConfigError
from pinfin.solver import TemperatureField, atom_node_weights


@dataclass
class LinearizedField:
    """Solution of the sensitivity problem for a point swap of surface mass.

    ``flux_jump`` is the measured jump of the discrete flux a^2 T' across the
    control volume holding the source; it approaches minus the source strength
    as the grid refines.
    """

    values: np.ndarray
    x0: float
    source_strength: float
    flux_jump: float


def solve_linearized(T: TemperatureField, x0: float, c: float) -> LinearizedField:
    """Sensitivity of the temperature to a surface swap toward the inlet.

    Solves the same bilinear form as ``T`` was solved with, on its kernel and
    measure, with homogeneous Dirichlet data at x = 0 and a point load of
    strength ``beta(x0) * c * (T(x0) - T_inf)`` on the control volume
    containing ``x0``; this is the first-order response when mass ``c * eps``
    is removed from a shrinking window at ``x0`` (and deposited at the inlet,
    which the state does not see).
    """
    system, b = T.system, T.measure
    grid = system.grid
    if not (0.0 < x0 < grid.length):
        raise ConfigError(f"swap point x0={x0} must be strictly inside (0, L)")
    if not (c > 0.0):
        raise ConfigError(f"swap amplitude c must be positive, got {c}")
    theta_x0 = T.theta_at(x0)
    strength = float(system.params.beta(x0)) * c * theta_x0
    loads = [(node, wgt * strength) for node, wgt in atom_node_weights(x0, grid) if node >= 1]
    tilde = system.solve(b.density, b.atoms, 0.0, loads)

    s = system.conductance
    i0 = atom_node_weights(x0, grid)[0][0]
    i0 = min(max(i0, 1), grid.n_cells - 1)
    q_left = s[i0 - 1] * (tilde[i0] - tilde[i0 - 1])
    q_right = s[i0] * (tilde[i0 + 1] - tilde[i0])
    return LinearizedField(tilde, x0, strength, float(q_right - q_left))
