"""Volume, lateral surface and heat-flux functionals.

The flux functionals read a solved ``TemperatureField``: it carries the
``FinSystem`` kernel and the surface measure it was solved on, so nothing
about the discrete problem is rebuilt or passed again.  Two discrete
expressions of the inlet heat flux are provided.  The boundary form evaluates
the finite-volume flux at the first face corrected by the inlet
control-volume sink (a naive one-sided difference would break the balance);
the relaxed form integrates ``beta * b * (T - T_inf)`` with the same
trapezoidal cell weights used by the solver and adds the atom and tip terms.
For atom-free data the two agree to roundoff by construction.  The relaxed
form is the one that extends continuously to measures: mass sitting exactly
at the inlet is counted at temperature T_d there while the boundary flux does
not see it, which is precisely the defect of convergence that makes the
surface-constrained problem attain its supremum only through concentrating
sequences.
"""

import numpy as np

from .errors import ConfigError
from .grid import Grid
from .physics import PhysicalParams
from .profiles import FluxReport, RadiusProfile, SurfaceMeasure, excess_surface
from .solver import TemperatureField, compute_gamma


def volume(a: RadiusProfile, grid: Grid) -> float:
    """Integral of a^2 (physical volume divided by pi), midpoint quadrature."""
    am = a.at_midpoints()
    return float(grid.dx * np.sum(am * am))


def surface(a: RadiusProfile, grid: Grid) -> float:
    """Integral of a sqrt(1 + a'^2) (lateral area divided by 2 pi)."""
    b = SurfaceMeasure.from_radius(a, grid)
    return b.total(grid)


def heat_flux_relaxed(T: TemperatureField) -> float:
    """Relaxed flux k pi [<beta b, theta> + beta_r a(L)^2 theta(L)]."""
    return T.system.relaxed_flux(T.excess, T.measure.density, T.measure.atoms)


def heat_flux_boundary(T: TemperatureField) -> float:
    """Inlet flux -k pi a(0)^2 T'(0) in its conservative discrete form."""
    system, b, theta = T.system, T.measure, T.excess
    v = system.radius.values
    q_first = (0.5 * (v[0] + v[1])) ** 2 * (theta[1] - theta[0]) / system.grid.dx
    sink0 = system.inlet_weight(b.density, b.atoms) * theta[0]
    return -system.params.k * np.pi * (q_first - sink0)


def flux_report(T: TemperatureField) -> FluxReport:
    """Both flux expressions plus their relative gap."""
    fb = heat_flux_boundary(T)
    fi = heat_flux_relaxed(T)
    scale = max(abs(fb), abs(fi), 1e-300)
    return FluxReport(fb, fi, abs(fb - fi) / scale)


def surface_supremum(a0: float, length: float, S0: float,
                     params: PhysicalParams) -> float:
    """Least upper bound of the flux over radii with surface integral <= S0.

    Closed form for constant h: the optimal relaxed design is the floor
    density plus all excess surface concentrated at the inlet, giving
    ``k pi beta dT (a0^(3/2) gamma / sqrt(beta) + S0 - a0 L)``.
    """
    excess = excess_surface(S0, a0, length)
    beta = params.constant_beta()
    gamma = compute_gamma(a0, length, beta, params.beta_r)
    dT = params.delta_T
    return float(params.k * np.pi * beta * dT
                 * (a0 ** 1.5 * gamma / np.sqrt(beta) + excess))


def generalized_supremum(flat: TemperatureField, S0: float) -> float:
    """Supremum of the flux for variable beta(x) attaining its max at x = 0.

    ``flat`` is the solve on the floor radius a0 with the floor density.
    Assembles ``k pi [a0 int beta theta + (S0 - a0 L) beta(0) dT]`` plus the
    tip term from it; consistent with the relaxed functional, it reduces
    exactly to ``surface_supremum`` for constant h.
    """
    a0, length = flat.measure.floor, flat.measure.length
    params, grid = flat.system.params, flat.system.grid
    if (flat.measure.atoms or np.any(flat.measure.density != a0)
            or np.any(flat.system.radius.at_midpoints() != a0)):
        raise ConfigError("the supremum formula needs the solve on the flat design a = b = a0")
    excess = excess_surface(S0, a0, length)
    if params.is_constant_h:
        return surface_supremum(a0, length, S0, params)
    beta_nodes = params.beta(grid.nodes)
    if np.max(beta_nodes) > beta_nodes[0] * (1.0 + 1e-12):
        raise ConfigError(
            "beta(x) must attain its maximum at x = 0 for the supremum formula"
        )
    inlet = params.k * np.pi * excess * float(params.beta(0.0)) * params.delta_T
    return float(heat_flux_relaxed(flat) + inlet)


def flux_gradient_density(T: TemperatureField) -> np.ndarray:
    """Derivative of the relaxed flux per unit of added surface mass, by cell.

    The discrete objective equals the state energy divided by dT, so its exact
    gradient with respect to the cell density is
    ``k pi beta_c (theta_i^2 + theta_{i+1}^2) / (2 dT)`` per unit mass; this
    is the discrete counterpart of the swap-derivative density
    ``k pi beta(x) (T(x) - T_inf)^2 / dT`` and converges to it at second
    order.
    """
    return T.system.flux_gradient(T.excess)


def directional_derivative(T: TemperatureField, x0: float, c: float) -> float:
    """Limit of (F(b_eps) - F(b)) / eps for the inlet-swap perturbation.

    ``b`` is the measure ``T`` was solved on; ``b_eps`` adds density c on
    [0, eps] and removes it on a symmetric window at ``x0``; the limit is
    ``k pi c (beta(0) dT^2 - beta(x0) theta(x0)^2) / dT``.
    """
    params = T.system.params
    if not (0.0 < x0 < T.system.grid.length):
        raise ConfigError(f"swap point x0={x0} must be strictly inside (0, L)")
    theta_x0 = T.theta_at(x0)
    dT = params.delta_T
    if dT == 0.0:
        return 0.0
    beta0 = float(params.beta(0.0))
    beta_x0 = float(params.beta(x0))
    return float(params.k * np.pi * c * (beta0 * dT * dT - beta_x0 * theta_x0 ** 2) / dT)
