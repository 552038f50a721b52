"""Axisymmetric fin heat transfer: model, functionals, designs, optimization.

The stationary temperature along a fin of radius a(x) obeys a second-order
two-point boundary value problem whose coefficients depend on the fin shape
through a^2 and the lateral surface density a sqrt(1 + a'^2).  This package
solves that problem with a conservative finite-volume scheme, evaluates the
inlet heat flux and its relaxation to measure-valued surface densities,
constructs the explicit near-optimal oscillating and bang-bang designs, and
maximizes the flux under surface budgets with a projected-gradient method.
"""

from .errors import ConfigError, NumericalError
from .functionals import (directional_derivative, flux_gradient_density,
                          flux_report, generalized_supremum, heat_flux_boundary,
                          heat_flux_relaxed, surface, surface_supremum, volume)
from .grid import Grid
from .optimizer import (BangStructureReport, OptimConfig, OptimResult,
                        optimize, project_box_budget, sweep_M,
                        verify_bang_structure)
from .physics import PhysicalParams
from .profiles import (FluxReport, RadiusProfile, SurfaceMeasure,
                       admissible_radius_bound, enforce_surface_bound)
from .sequences import (OscillationSpec, bang_density, oscillating_profile,
                        oscillating_profile_volume, oscillating_radius,
                        oscillation_peak, reconstruct_radius, step_density,
                        switch_point)
from .solver import (TemperatureField, closed_form_temperature, compute_gamma,
                     solve_temperature)

__all__ = [
    "BangStructureReport", "ConfigError", "FluxReport", "Grid",
    "NumericalError", "OptimConfig", "OptimResult", "OscillationSpec",
    "PhysicalParams", "RadiusProfile", "SurfaceMeasure", "TemperatureField",
    "admissible_radius_bound", "bang_density", "closed_form_temperature",
    "compute_gamma", "directional_derivative", "enforce_surface_bound",
    "flux_gradient_density", "flux_report", "generalized_supremum",
    "heat_flux_boundary", "heat_flux_relaxed", "optimize",
    "oscillating_profile", "oscillating_profile_volume", "oscillating_radius",
    "oscillation_peak", "project_box_budget", "reconstruct_radius",
    "solve_temperature", "step_density", "surface", "surface_supremum",
    "sweep_M", "switch_point", "verify_bang_structure", "volume",
]

__version__ = "0.1.0"
