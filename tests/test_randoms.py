from random import Random

import numpy as np
import pytest

from pinfin import Grid, RadiusProfile
from pinfin.randoms import MAX_BUMP, N_MODES, fourier_basis, random_radius, uniforms

A0, ELL = 1e-3, 0.1


def _random_radius_by_modes(rng, a0, grid):
    """One shifted sine per mode: the reference for random_radius."""
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


@pytest.mark.parametrize("n", [2, 3, 500, 2048, 4096])
def test_random_radius_matches_the_sine_per_mode_reference(n):
    grid = Grid(ELL, n)
    for seed in (0, 1, 7, 101, 2024, 2**32 - 1):
        rng, ref_rng = Random(seed), Random(seed)
        for _ in range(3):
            a = random_radius(rng, A0, grid)
            ref = _random_radius_by_modes(ref_rng, A0, grid)
            np.testing.assert_allclose(a.values, ref.values, rtol=1e-14, atol=0.0)
            # same draws, in the same order: the streams stay in step
            assert rng.random() == ref_rng.random()


def test_fourier_basis_is_read_only_and_shared_by_equal_grids():
    basis = fourier_basis(Grid(ELL, 64))
    assert basis.shape == (2 * N_MODES, 65)
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 1.0
    assert fourier_basis(Grid(ELL, 64)) is basis


def test_uniforms_are_a_reproducible_53_bit_stream():
    u = uniforms(Random(0), 1024)
    assert u.shape == (1024,) and u.dtype == np.float64
    np.testing.assert_array_equal(u, uniforms(Random(0), 1024))
    assert not np.array_equal(u, uniforms(Random(1), 1024))
    assert np.all((0.0 <= u) & (u < 1.0))
    scaled = u * 2.0**53
    np.testing.assert_array_equal(scaled, np.floor(scaled))
    # pinned: a change of byte order or bit selection would move every density
    assert u[0] == 0.38524530801093704
    assert u[0] == (Random(0).getrandbits(64) >> 11) * 2.0**-53
    # one bulk draw is the words of successive single draws, in order
    rng = Random(0)
    np.testing.assert_array_equal(u[:8], [uniforms(rng, 1)[0] for _ in range(8)])
