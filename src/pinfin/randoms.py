"""Randomized admissible radius profiles for verification runs."""

from functools import lru_cache
from random import Random

import numpy as np

from .grid import Grid
from .profiles import RadiusProfile, SurfaceMeasure

MAX_BUMP = 2.0         # values stay within a0 * (1 + MAX_BUMP)
N_MODES = 6            # low Fourier modes summed into the bump


@lru_cache(maxsize=4)
def fourier_basis(grid: Grid) -> np.ndarray:
    arg = np.pi * np.arange(1, N_MODES + 1)[:, None] * (grid.nodes / grid.length)
    basis = np.vstack((np.sin(arg), np.cos(arg)))
    basis.setflags(write=False)
    return basis


def uniforms(rng: Random, n: int) -> np.ndarray:
    """``n`` uniforms on [0, 1): the top 53 bits of each little-endian 64-bit word."""
    return (np.frombuffer(rng.randbytes(8 * n), "<u8") >> 11) * 2.0**-53


def random_radius(rng: Random, a0: float, grid: Grid) -> RadiusProfile:
    """Smooth random profile >= a0 built from a few low Fourier modes.

    The bump ``sum amp_j (1 + sin(pi j x + phase_j))`` is formed by angle
    addition from the cached rows ``sin(pi j x)`` and ``cos(pi j x)``.
    ``MAX_BUMP`` bounds the relative excursion: slopes stay moderate on any grid.
    """
    u = np.array([rng.random() for _ in range(2 * N_MODES)])  # amplitude, phase per mode
    amp = u[0::2] / np.arange(1, N_MODES + 1)
    phase = 2.0 * np.pi * u[1::2]
    coef = np.concatenate((amp * np.cos(phase), amp * np.sin(phase)))
    bump = amp.sum() + coef @ fourier_basis(grid)
    top = np.max(bump)
    if top > 0.0:
        bump *= rng.uniform(0.2, 1.0) * MAX_BUMP / top
    return RadiusProfile(a0 * (1.0 + bump), a0, grid.length)


def random_pair(rng: Random, a0: float, grid: Grid):
    """Random profile with its classical surface density."""
    a = random_radius(rng, a0, grid)
    return a, SurfaceMeasure.from_radius(a, grid)
