"""Randomized admissible radius profiles for verification runs."""

import numpy as np

from .grid import Grid
from .profiles import RadiusProfile, SurfaceMeasure

MAX_BUMP = 2.0         # values stay within a0 * (1 + MAX_BUMP)
N_MODES = 6            # low Fourier modes summed into the bump


def random_radius(rng: np.random.Generator, a0: float, grid: Grid) -> RadiusProfile:
    """Smooth random profile >= a0 built from a few low Fourier modes.

    ``MAX_BUMP`` bounds the relative excursion, keeping slopes moderate on
    any grid.
    """
    x = grid.nodes / grid.length
    bump = np.zeros_like(x)
    for j in range(1, N_MODES + 1):
        amp = rng.uniform(0.0, 1.0) / j
        phase = rng.uniform(0.0, 2.0 * np.pi)
        bump += amp * (1.0 + np.sin(np.pi * j * x + phase))
    top = np.max(bump)
    if top > 0.0:
        bump *= rng.uniform(0.2, 1.0) * MAX_BUMP / top
    return RadiusProfile(a0 * (1.0 + bump), a0, grid.length)


def random_pair(rng: np.random.Generator, a0: float, grid: Grid):
    """Random profile with its classical surface density."""
    a = random_radius(rng, a0, grid)
    return a, SurfaceMeasure.from_radius(a, grid)
