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


def _above_floor(values, floor: float, min_size: int, what: str) -> np.ndarray:
    """``values`` checked against a positive ``floor``; round-off below it is clamped in place."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < min_size:
        raise ConfigError(f"{what} must be a 1-D array of at least {min_size} values")
    lo, hi = values.min(), values.max()     # NaN and +-inf always reach one of them
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"{what} contains non-finite values")
    if not (floor > 0.0):
        raise ConfigError(f"{what} floor must be positive, got {floor}")
    if lo < floor * (1.0 - 1e-12):
        raise ConfigError(f"{what} drops below its floor {floor} (min value {float(lo)})")
    return np.maximum(values, floor, out=values) if lo < floor else values


@dataclass
class RadiusProfile:
    """Radius sampled at grid nodes, with the collapse floor ``a0``."""

    values: np.ndarray
    a0: float
    length: float

    def __post_init__(self):
        self.values = _above_floor(self.values, self.a0, 3, "radius profile")

    @classmethod
    def constant(cls, a0: float, grid: Grid):
        return cls(np.full(grid.n_cells + 1, float(a0)), a0, grid.length)

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
        self.density = _above_floor(self.density, self.floor, 2, "surface density")
        atoms = []
        for pos, mass in self.atoms:
            if not (0.0 <= pos <= self.length):
                raise ConfigError(f"atom position {pos} outside [0, {self.length}]")
            if mass < 0.0 or not np.isfinite(mass):
                raise ConfigError(f"atom mass must be finite and >= 0, got {mass}")
            atoms.append((float(pos), float(mass)))
        self.atoms = tuple(atoms)

    @classmethod
    def constant(cls, value: float, grid: Grid, floor: float | None = None):
        return cls(np.full(grid.n_cells, float(value)), floor or value, grid.length)

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


def enforce_surface_bound(profile: RadiusProfile, S0: float) -> None:
    """Reject profiles exceeding the a priori bound of the surface class."""
    bound = admissible_radius_bound(S0, profile.length)
    worst = float(np.max(profile.values))
    if worst > bound * (1.0 + 1e-9):
        raise ConfigError(
            f"max radius {worst} exceeds the admissible bound {bound} "
            f"for surface budget {S0}"
        )
