"""The temperature system assembled afresh on every solve, as a bitwise oracle.

``FinSystem`` builds the density-free half of its tridiagonal system once and
solves into the theta it returns.  This module keeps the assembly that
rebuilds everything per call: full reaction weights, both diagonals and the
right-hand side, packed into one ``d | e | b`` buffer that ``dptsv`` solves
in place.  The tests hold ``FinSystem``'s theta to it bit for bit on both
``dptsv`` paths.
"""

import ctypes

import numpy as np

from pinfin import solver


def reaction_weights(system: solver.FinSystem, density: np.ndarray, atoms=()) -> np.ndarray:
    """Per-node control-volume integrals of beta*b; atoms at x = 0 left out."""
    grid = system.grid
    w = system.params.beta(grid.midpoints) * density * grid.dx / 2.0
    m = np.zeros(grid.n_cells + 1)
    m[:-1] += w
    m[1:] += w
    for pos, mass in atoms:
        if mass == 0.0 or pos == 0.0:
            continue
        bval = float(system.params.beta(pos))
        for node, wgt in solver.atom_node_weights(pos, grid):
            m[node] += wgt * bval * mass
    return m


def _bundled_packed(w: np.ndarray, n: int) -> int:
    p, step = w.ctypes.data, w.itemsize
    size, one, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64(0)
    solver._BUNDLED(ctypes.byref(size), ctypes.byref(one), p, p + step * n,
                    p + step * (2 * n - 1), ctypes.byref(size), ctypes.byref(info))
    return info.value


def _scipy_packed(w: np.ndarray, n: int) -> int:
    from scipy.linalg.lapack import dptsv
    b = w[2 * n - 1:]
    e = w[n:2 * n - 1] if n > 1 else np.zeros(1)
    _, _, x, info = dptsv(w[:n], e, b, overwrite_d=True, overwrite_e=True,
                          overwrite_b=True)
    b[:] = x
    return info


def excess(system: solver.FinSystem, density: np.ndarray, atoms=(),
           path: str = "bundled") -> np.ndarray:
    """Nodal excess temperature from a per-call assembly; ``path`` is bundled or scipy."""
    m = reaction_weights(system, density, atoms)
    s, dT = system.conductance, system.params.delta_T
    n = s.size
    w = np.empty(3 * n - 1)
    d, e, b = w[:n], w[n:2 * n - 1], w[2 * n - 1:]
    d[:-1] = s[:-1] + s[1:] + m[1:-1]
    d[-1] = s[-1] + m[-1] + system.robin
    np.negative(s[1:], out=e)
    b[:] = 0.0
    b[0] = s[0] * dT
    info = (_bundled_packed if path == "bundled" else _scipy_packed)(w, n)
    assert info == 0, info
    return np.concatenate(([dT], b))
