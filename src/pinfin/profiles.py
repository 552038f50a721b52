"""Radius profiles, surface measures and the flux report.

The design variable of the optimization is not the radius itself but the
lateral surface density ``b = a sqrt(1 + a'^2)``; ``SurfaceMeasure`` stores a
cellwise density plus finitely many point masses (atoms), which is the closure
of the classical densities under weak-* convergence of measures.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import Grid


@dataclass
class RadiusProfile:
    """Radius sampled at grid nodes, with the collapse floor ``a0``."""

    values: np.ndarray
    a0: float
    length: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 3:
            raise ConfigError("radius profile must be a 1-D array of node values")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("radius profile contains non-finite values")
        if not (self.a0 > 0.0):
            raise ConfigError(f"radius floor a0 must be positive, got {self.a0}")
        # tiny negative excursions from roundoff are clamped, real ones rejected
        if np.any(self.values < self.a0 * (1.0 - 1e-12)):
            raise ConfigError(
                f"radius drops below the floor a0={self.a0} "
                f"(min value {float(np.min(self.values))})")
        np.maximum(self.values, self.a0, out=self.values)

    @classmethod
    def constant(cls, a0: float, grid: Grid, value: float | None = None):
        v = a0 if value is None else value
        return cls(np.full(grid.n_cells + 1, float(v)), a0, grid.length)

    @classmethod
    def cone(cls, a0: float, grid: Grid, slope: float):
        """Linear profile a0 + slope * x (slope >= 0 keeps the floor at x=0)."""
        return cls(a0 + slope * grid.nodes, a0, grid.length)

    def at_midpoints(self) -> np.ndarray:
        return 0.5 * (self.values[:-1] + self.values[1:])

    def slopes_at_midpoints(self, grid: Grid) -> np.ndarray:
        return np.diff(self.values) / grid.dx


@dataclass
class SurfaceMeasure:
    """Cell density (meters) plus point masses; the relaxed design variable.

    ``atoms`` is a sequence of ``(position, mass)`` pairs with positions in
    ``[0, length]`` and nonnegative masses in m^2-equivalent units.
    """

    density: np.ndarray
    floor: float
    length: float
    atoms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        self.density = np.asarray(self.density, dtype=float)
        if self.density.ndim != 1 or self.density.size < 2:
            raise ConfigError("surface density must be a 1-D array of cell values")
        if not np.all(np.isfinite(self.density)):
            raise ConfigError("surface density contains non-finite values")
        if not (self.floor > 0.0):
            raise ConfigError(f"surface density floor must be positive, got {self.floor}")
        if np.any(self.density < self.floor * (1.0 - 1e-12)):
            raise ConfigError(
                f"surface density drops below its floor {self.floor} "
                f"(min value {float(np.min(self.density))})")
        np.maximum(self.density, self.floor, out=self.density)
        atoms = []
        for pos, mass in self.atoms:
            if not (0.0 <= pos <= self.length):
                raise ConfigError(f"atom position {pos} outside [0, {self.length}]")
            if mass < 0.0 or not np.isfinite(mass):
                raise ConfigError(f"atom mass must be finite and >= 0, got {mass}")
            atoms.append((float(pos), float(mass)))
        self.atoms = tuple(atoms)

    @classmethod
    def constant(cls, value: float, grid: Grid, floor: float | None = None,
                 atoms: tuple = ()):
        return cls(np.full(grid.n_cells, float(value)), floor or value,
                   grid.length, atoms)

    @classmethod
    def from_radius(cls, profile: RadiusProfile, grid: Grid):
        """Classical density a sqrt(1 + a'^2) with midpoint slopes."""
        am = profile.at_midpoints()
        ap = profile.slopes_at_midpoints(grid)
        return cls(am * np.sqrt(1.0 + ap * ap), profile.a0, grid.length)

    def with_atom(self, position: float, mass: float) -> "SurfaceMeasure":
        return SurfaceMeasure(self.density.copy(), self.floor, self.length,
                              self.atoms + ((position, mass),))

    def atom_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    def total(self, grid: Grid) -> float:
        """Integral of the density plus the sum of the atom masses."""
        if self.density.size != grid.n_cells:
            raise ConfigError("surface measure does not match the grid")
        return float(grid.dx * self.density.sum() + self.atom_mass())


@dataclass(frozen=True)
class FluxReport:
    boundary: float
    integral: float
    relative_gap: float


def excess_surface(S: float, a0: float, length: float) -> float:
    """Surface ``S - a0 L`` above the floor design; a budget below it is refused."""
    if not S >= a0 * length:
        raise ConfigError(f"surface budget S={S} below the floor surface a0 L = {a0 * length}")
    return S - a0 * length


def admissible_radius_bound(S0: float, length: float) -> float:
    """Uniform bound on any radius with lateral surface integral <= S0."""
    return float(np.sqrt(S0 * S0 / (length * length) + 4.0 * S0))


def enforce_surface_bound(profile: RadiusProfile, S0: float,
                          rtol: float = 1e-9) -> None:
    """Reject profiles exceeding the a priori bound of the surface class."""
    bound = admissible_radius_bound(S0, profile.length)
    worst = float(np.max(profile.values))
    if worst > bound * (1.0 + rtol):
        raise ConfigError(
            f"max radius {worst} exceeds the admissible bound {bound} "
            f"for surface budget {S0}"
        )
