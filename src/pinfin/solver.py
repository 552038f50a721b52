"""Finite-volume solution of the fin temperature equation.

The stationary temperature solves

    (a(x)^2 T'(x))' = beta(x) b(x) (T(x) - T_inf),   x in (0, L),
    T(0) = T_d,
    T'(L) = -beta_r (T(L) - T_inf),

where ``b`` is the lateral surface measure (density plus atoms).  The scheme
is vertex-centered and conservative: fluxes ``a^2 T'`` are evaluated at cell
midpoints where ``a^2`` lives, the reaction is integrated over node-centered
control volumes, and the inlet flux is defined so that the discrete balance

    inlet flux = sum of reaction sinks + tip sink

holds to roundoff.  Internally the linear system is written for the excess
``theta = T - T_inf``, which avoids cancellation when T_d is close to T_inf.

Atoms contribute ``beta(pos) * mass * theta`` to the control volume containing
their position (split evenly when the position falls exactly on a volume
face).  An atom exactly at x = 0 does not enter the state equation at all: the
admissible test functions vanish there, so inlet mass affects only the relaxed
flux functional.

A ``FinSystem`` holds 4n floats, the conductances ``s``, ``s[:-1] + s[1:]``
and one ``d | e`` buffer (n, then n - 1 entries) that LAPACK ``dptsv``
factors in place; ``assemble`` rewrites them for another radius.  A solve
passes the cell weights through ``theta[1:]`` into ``d``, rewrites
``e = -s[1:]``, then solves the right-hand side in ``theta[1:]``
(``ldb = n``): theta is all it allocates, and ``T`` is built when read.
``dptsv`` comes from the ILP64 OpenBLAS of numpy's manylinux wheel
(``numpy.libs/libscipy_openblas64_*.so``, ``scipy_dptsv_64_``), so importing
this module does not import scipy; where that is not found (conda, MKL, a
distro build, a wheel naming its OpenBLAS differently), scipy's wrapper is
imported at the first solve.
"""

import ctypes
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import Grid
from .physics import PhysicalParams
from .profiles import RadiusProfile, SurfaceMeasure

_FACE_TIE_TOL = 1e-12


def _bundled_dptsv():
    """``scipy_dptsv_64_`` from numpy's bundled OpenBLAS as a ctypes function, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so*"))
    if not found:
        return None
    try:
        fn = ctypes.CDLL(str(found[0])).scipy_dptsv_64_
    except (OSError, AttributeError):
        return None
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p] * 7
    return fn


def _lapack_dptsv(de: np.ndarray, b: np.ndarray) -> int:
    """Solve ``de = d | e`` with right-hand side ``b`` in place; returns LAPACK's info."""
    p, n = de.ctypes.data, b.size
    size, one, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64(0)
    _BUNDLED(ctypes.byref(size), ctypes.byref(one), p, p + de.itemsize * n,
             b.ctypes.data, ctypes.byref(size), ctypes.byref(info))
    return info.value


def _scipy_dptsv(de: np.ndarray, b: np.ndarray) -> int:
    """``_lapack_dptsv`` through scipy's wrapper of the same routine."""
    from scipy.linalg.lapack import dptsv
    n = b.size
    e = de[n:] if n > 1 else np.zeros(1)   # the wrapper wants e.size >= 1
    _, _, x, info = dptsv(de[:n], e, b, overwrite_d=True, overwrite_e=True,
                          overwrite_b=True)
    b[:] = x   # a self-copy when scipy solved in place
    return info


_BUNDLED = _bundled_dptsv()
_dptsv = _scipy_dptsv if _BUNDLED is None else _lapack_dptsv


def atom_node_weights(position: float, grid: Grid) -> list[tuple[int, float]]:
    """Nodes (with weights) whose control volumes receive an atom's mass.

    Control volumes are centered at nodes with faces at cell midpoints; an
    atom sitting exactly on a face is split evenly between its two neighbors.
    """
    t = position / grid.dx
    frac = t - np.floor(t)
    j = int(np.floor(t))
    if abs(frac - 0.5) <= _FACE_TIE_TOL and 0 <= j < grid.n_cells:
        return [(j, 0.5), (j + 1, 0.5)]
    i = int(np.floor(t + 0.5))
    return [(min(max(i, 0), grid.n_cells), 1.0)]


class FinSystem:
    """The discrete fin operator of one radius profile.

    Holds the face conductances ``a_mid^2 / dx`` and their neighbour sums,
    the Robin tip coefficient ``beta_r a(L)^2`` and the ``radius`` they came
    from, ``beta`` at the cell midpoints (a scalar for constant h), and the
    ``d | e`` buffer every solve reuses (so one kernel serves one thread at
    a time).  Every rule that turns a surface measure into the discrete
    problem lives here: the control-volume reaction weights, the SPD
    tridiagonal solve, the relaxed flux pairing and its gradient.  Measures
    enter as a cell density plus ``(position, mass)`` atoms.
    """

    def __init__(self, a: RadiusProfile, params: PhysicalParams, grid: Grid):
        self.params, self.grid, n = params, grid, grid.n_cells
        self.beta = params.constant_beta() if params.is_constant_h else params.beta(grid.midpoints)
        self.conductance, self._de = np.empty(n), np.empty(2 * n - 1)
        self._s_sum = np.empty(n - 1)   # the density-free part of d
        self.assemble(a)

    def assemble(self, a: RadiusProfile) -> None:
        """Rebind the kernel to radius ``a``: its conductances, their sums and the tip."""
        v, s = a.values, self.conductance
        if v.size != s.size + 1:
            raise ConfigError("radius profile does not match the grid")
        np.multiply(0.5, np.add(v[:-1], v[1:], out=s), out=s)   # a at the midpoints
        np.divide(np.multiply(s, s, out=s), self.grid.dx, out=s)
        np.add(s[:-1], s[1:], out=self._s_sum)
        self.robin = self.params.beta_r * v[-1] ** 2
        self.radius = a

    def _cell_weights(self, density: np.ndarray, out=None) -> np.ndarray:
        """Half-cell integrals of beta*b, each shared by the cell's two nodes."""
        if density.size != self.grid.n_cells:
            raise ConfigError("surface measure does not match the grid")
        w = np.multiply(self.beta, density, out=out)
        return np.divide(np.multiply(w, self.grid.dx, out=w), 2.0, out=w)

    def _atom_loads(self, atoms, with_inlet: bool):
        """``(node, beta * mass * share)`` per node an atom reaches; x = 0 if ``with_inlet``."""
        for pos, mass in atoms:
            if mass == 0.0 or (pos == 0.0 and not with_inlet):
                continue
            bval = float(self.params.beta(pos))
            for node, wgt in atom_node_weights(pos, self.grid):
                yield node, wgt * bval * mass

    def inlet_weight(self, density: np.ndarray, atoms=()) -> float:
        """Node 0's control-volume integral of beta*b; it only closes the balance."""
        beta0 = self.beta[0] if np.ndim(self.beta) else self.beta
        m0 = beta0 * density[0] * self.grid.dx / 2.0
        for node, load in self._atom_loads(atoms, with_inlet=False):
            if node == 0:
                m0 += load
        return m0

    def solve(self, density: np.ndarray, atoms, inlet: float, loads=()) -> np.ndarray:
        """Nodal theta, theta(0) = ``inlet``, under point ``loads`` ``(node >= 1, value)``."""
        s, n = self.conductance, self.conductance.size
        d, e = self._de[:n], self._de[n:]
        theta = np.empty(n + 1)   # the only allocation: theta[1:] is scratch until the rhs
        w = self._cell_weights(density, out=theta[1:])
        np.add(w[:-1], w[1:], out=d[:-1])
        d[-1] = w[-1]
        for node, load in self._atom_loads(atoms, with_inlet=False):
            if node:
                d[node - 1] += load
        np.add(self._s_sum, d[:-1], out=d[:-1])
        d[-1] = s[-1] + d[-1] + self.robin
        np.negative(s[1:], out=e)   # dptsv overwrote the last solve's
        theta[0], theta[1:], theta[1] = inlet, 0.0, s[0] * inlet
        for node, value in loads:
            theta[node] += value
        if not (np.isfinite(self._de).all() and np.isfinite(theta).all()):
            raise NumericalError("temperature system has non-finite entries "
                                 "(k, h or the geometry overflow)")
        info = _dptsv(self._de, theta[1:])
        if info != 0:
            raise NumericalError(f"singular temperature system: dptsv info={info}")
        return theta

    def excess(self, density: np.ndarray, atoms=()) -> np.ndarray:
        """Nodal excess temperature theta = T - T_inf, theta(0) = T_d - T_inf."""
        return self.solve(density, atoms, self.params.delta_T)

    def relaxed_flux(self, theta: np.ndarray, density: np.ndarray,
                     atoms=()) -> float:
        """k pi [<beta b, theta> + beta_r a(L)^2 theta(L)], inlet atoms included."""
        w = self._cell_weights(density)
        pairing = float(np.sum(np.multiply(w, theta[:-1] + theta[1:], out=w)))
        for node, load in self._atom_loads(atoms, with_inlet=True):
            pairing += load * theta[node]
        return self.params.k * np.pi * (pairing + self.robin * theta[-1])

    def flux_gradient(self, theta: np.ndarray) -> np.ndarray:
        """Relaxed-flux derivative per unit of surface mass added to each cell."""
        k, dT = self.params.k, self.params.delta_T
        if dT == 0.0:
            return np.zeros(self.grid.n_cells)
        return k * np.pi * self.beta * 0.5 * (theta[:-1] ** 2 + theta[1:] ** 2) / dT


@dataclass
class TemperatureField:
    """Nodal temperatures in degC, bound to the kernel that solved them.

    ``excess`` is the ``T - T_inf`` the solver computed; functionals read it
    rather than ``values`` (built on first read), so tiny inlet/ambient gaps
    keep their relative accuracy.  ``system`` and ``measure`` are the discrete
    operator and the surface measure the field was solved on: the flux
    functionals read them instead of rebuilding the problem.
    """

    excess: np.ndarray
    system: FinSystem
    measure: SurfaceMeasure

    @cached_property
    def values(self) -> np.ndarray:
        return self.system.params.T_inf + self.excess

    def theta_at(self, x) -> float:
        return float(np.interp(x, self.system.grid.nodes, self.excess))


def solve_temperature(a: RadiusProfile, b: SurfaceMeasure,
                      params: PhysicalParams, grid: Grid) -> TemperatureField:
    """Finite-volume solution of the temperature equation.

    The radius ``a`` enters through the flux coefficient a^2 and the surface
    measure ``b`` (density at midpoints plus atoms) through the reaction;
    beta(x) may vary along the fin.  The nodal values have T(0) = T_d exactly.
    """
    system = FinSystem(a, params, grid)
    return TemperatureField(system.excess(b.density, b.atoms), system, b)


def compute_gamma(a0: float, length: float, beta: float, beta_r: float) -> float:
    """Tip-impedance factor of the constant-radius closed form.

    Equals ``(tanh(z) + r) / (1 + r tanh(z))`` with ``z = sqrt(beta/a0) * L``
    and ``r = beta_r * sqrt(a0/beta)``; this form stays finite for large z
    where the sinh/cosh ratio would overflow.
    """
    if not (a0 > 0.0 and length > 0.0 and beta > 0.0):
        raise ConfigError("compute_gamma requires a0, length, beta > 0")
    if beta_r < 0.0:
        raise ConfigError(f"beta_r must be >= 0, got {beta_r}")
    lam = np.sqrt(beta / a0)
    t = np.tanh(lam * length)
    r = beta_r / lam
    return float((t + r) / (1.0 + r * t))


def closed_form_temperature(x, a0: float, length: float,
                            params: PhysicalParams):
    """Exact temperature of the constant-radius fin with constant h.

    Evaluates ``T_inf + dT (cosh(lam x) - gamma sinh(lam x))`` through an
    exponential split that cannot overflow for deep fins (large ``lam * L``).
    """
    beta = params.constant_beta()
    beta_r = params.beta_r
    lam = np.sqrt(beta / a0)
    x = np.asarray(x, dtype=float)
    if np.any(x < -1e-15) or np.any(x > length * (1.0 + 1e-15)):
        raise ConfigError("evaluation points must lie in [0, L]")
    t = np.tanh(lam * length)
    r = beta_r / lam
    gamma = compute_gamma(a0, length, beta, beta_r)
    # cosh(lam x) - gamma sinh(lam x) = (1-gamma)/2 e^{lam x} + (1+gamma)/2 e^{-lam x}
    # with  (1-gamma) e^{lam x} = 2 (1-r) e^{lam (x-2L)} / ((1+rt)(1+e^{-2 lam L}))
    grow = (1.0 - r) / (1.0 + r * t) * np.exp(lam * (x - 2.0 * length)) \
        / (1.0 + np.exp(-2.0 * lam * length))
    decay = 0.5 * (1.0 + gamma) * np.exp(-lam * x)
    theta_hat = grow + decay
    return params.T_inf + params.delta_T * theta_hat
