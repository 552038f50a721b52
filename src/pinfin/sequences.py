"""Explicit near-optimal designs: step densities, oscillating radii, bang-bang.

The surface-constrained flux supremum is not attained by any Lipschitz
radius; it is approached by profiles that oscillate faster and faster near
the inlet so that their surface density concentrates there.  This module
builds those designs explicitly:

* ``step_density`` - two-level density carrying all excess surface on
  ``[0, 1/m]``, total exactly ``S``;
* ``oscillating_profile`` - the matching radius made of m circular-arc
  oscillations of period ``1/m^2`` (the arc identity
  ``a sqrt(1 + a'^2) = const`` holds exactly on each arc);
* ``bang_density`` - the two-level optimizer of the capped problem with the
  switch at ``(S0 - a0 L) / (M - a0)``;
* ``reconstruct_radius`` / ``radius_from_density`` - recover an admissible
  radius from a prescribed density; the density is constant on each cell, so
  rising and falling branches are exact circular arcs cell by cell and no
  ODE integrator is involved;
* ``volume_constrained_design`` - oscillating designs that stay inside a
  volume budget while their flux grows without bound.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .functionals import heat_flux_relaxed, surface_supremum
from .grid import Grid
from .physics import PhysicalParams
from .profiles import RadiusProfile, SurfaceMeasure, excess_surface
from .solver import solve_temperature

MIN_CELLS_PER_HALF_PERIOD = 8   # of a volume design's oscillations
CELLS_PER_OSCILLATION = 16      # of a loaded run, in radius_from_density


@dataclass(frozen=True)
class OscillationSpec:
    """One reconstruction interval and how many oscillations to place on it."""

    x_start: float
    x_end: float
    n_oscillations: int

    def __post_init__(self):
        if not (self.x_end > self.x_start >= 0.0):
            raise ConfigError("oscillation interval must have positive length")
        if self.n_oscillations < 1:
            raise ConfigError("need at least one oscillation per interval")


def _check_step_args(S: float, m: int, a0: float, length: float) -> float:
    """Check an m-fold design of total S and return its excess surface S - a0 L."""
    if a0 <= 0.0 or length <= 0.0:
        raise ConfigError("a0 and length must be positive")
    excess = excess_surface(S, a0, length)
    if m < 1:
        raise ConfigError(f"oscillation count m must be >= 1, got {m}")
    if excess > 0.0 and 1.0 / m >= length:
        raise ConfigError(f"m={m} too small: the loaded interval 1/m must fit in (0, {length})")
    return excess


def _two_level(a0: float, height: float, x_end: float, grid: Grid) -> SurfaceMeasure:
    """Cell averages of the density a0 + height on [0, x_end], a0 beyond."""
    x = grid.nodes
    loaded = np.clip(np.minimum(x[1:], x_end) - x[:-1], 0.0, None)
    return SurfaceMeasure(a0 + height * loaded / grid.dx, a0, grid.length)


def step_density(S: float, m: int, a0: float, grid: Grid) -> SurfaceMeasure:
    """Two-level density: a0 + (S - a0 L) m on [0, 1/m], a0 beyond.

    Cell values are exact averages, so the discrete total is S exactly for
    every grid.  Degenerate budget S = a0 L returns the constant floor.
    """
    return _two_level(a0, _check_step_args(S, m, a0, grid.length) * m, 1.0 / m, grid)


def _arc_offset(excess: float, m: int, a0: float) -> tuple[float, float]:
    """Arc level M_m and horizontal offset sqrt(M_m^2 - a0^2)."""
    Mm = a0 + excess * m
    return Mm, float(np.sqrt(max(Mm * Mm - a0 * a0, 0.0)))


def oscillating_radius(x, S: float, m: int, a0: float, length: float) -> np.ndarray:
    """Pointwise values of the m-fold oscillating profile.

    Each period of length 1/m^2 on [0, 1/m] is a rising circular arc followed
    by its mirror image; the profile is a0 on [1/m, L].  On the arcs the
    lateral density a sqrt(1 + a'^2) equals the constant arc level exactly.
    """
    excess = _check_step_args(S, m, a0, length)
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, a0)
    if excess == 0.0:
        return out
    Mm, off = _arc_offset(excess, m, a0)
    period = 1.0 / (m * m)
    if off < period / 2.0:
        raise ConfigError(
            f"arc construction degenerate for S={S}, m={m}: oscillations too wide"
        )
    osc = x < 1.0 / m
    t = np.mod(x[osc], period)
    t = np.where(t < period / 2.0, t, period - t)
    # factored form of Mm^2 - (off - t)^2: for large m the arc level Mm
    # dwarfs a0 and the direct difference cancels catastrophically
    delta = a0 * a0 / (Mm + off)          # = Mm - off, computed stably
    out[osc] = np.sqrt((delta + t) * (Mm + off - t))
    return out


def oscillation_peak(S: float, m: int, a0: float, length: float) -> float:
    """Sup-norm distance of the oscillating profile from the floor a0.

    Attained at every half-period midpoint; decays like 1/m as m grows."""
    excess = _check_step_args(S, m, a0, length)
    if excess == 0.0:
        return 0.0
    Mm, off = _arc_offset(excess, m, a0)
    h = 0.5 / (m * m)
    # peak^2 - a0^2 = h (Mm + off - h) - a0^2 h / (Mm + off), all positive terms
    gap = h * ((Mm + off - h) - a0 * a0 / (Mm + off))
    peak = np.sqrt(a0 * a0 + gap)
    return float(gap / (peak + a0))


def oscillating_profile_volume(S: float, m: int, a0: float,
                               length: float) -> float:
    """Exact integral of a^2 for the oscillating profile (arc antiderivative)."""
    excess = _check_step_args(S, m, a0, length)
    if excess == 0.0:
        return a0 * a0 * length
    Mm, off = _arc_offset(excess, m, a0)
    h = 0.5 / (m * m)
    # int_0^h a^2 = h (a0^2 + off h - h^2/3), no cancellation for off >> a0
    per_half_arc = h * (a0 * a0 + off * h - h * h / 3.0)
    return float(a0 * a0 * (length - 1.0 / m) + 2 * m * per_half_arc)


def oscillating_profile(S: float, m: int, a0: float, grid: Grid) -> RadiusProfile:
    """Oscillating profile sampled exactly at the grid nodes, at any resolution.

    Its exact lateral density is ``step_density(S, m, a0, grid)``; slopes
    taken from the samples alias where the grid does not resolve the arcs.
    """
    vals = oscillating_radius(grid.nodes, S, m, a0, grid.length)
    return RadiusProfile(vals, a0, grid.length)


def switch_point(M: float, S0: float, a0: float, length: float) -> float:
    """Switch abscissa (S0 - a0 L) / (M - a0) of the capped optimal density.

    The cap rule: ``M`` must exceed ``a0`` and hold the excess surface on the fin.
    """
    excess = excess_surface(S0, a0, length)
    if not M > a0:
        raise ConfigError(f"cap M={M} must exceed the floor a0={a0}")
    xM = excess / (M - a0)
    if xM > length:
        raise ConfigError(f"infeasible cap M={M}: the budget S0={S0} does not fit "
                          f"below the cap on a fin of length {length} (switch at {xM})")
    return xM


def bang_density(M: float, S0: float, a0: float, grid: Grid) -> SurfaceMeasure:
    """Two-level density at the cap M up to the switch point, a0 beyond."""
    return _two_level(a0, M - a0, switch_point(M, S0, a0, grid.length), grid)


def _arc_branches(dens: np.ndarray, widths: np.ndarray,
                  a_start: float) -> np.ndarray:
    """Radius at the ends of consecutive constant-density pieces.

    Row j of ``dens`` and ``widths`` is piece j of every lane (column); row j
    of the result is the radius where piece j starts.  On a piece of density
    b the slope identity a sqrt(1 + a'^2) = b makes u = sqrt(b^2 - a^2) fall
    at unit rate, so the radius is a circular arc until it saturates at
    a = b.  The arc is carried in w = b - u, since a^2 = w (2b - w) then needs
    no difference of nearly equal numbers when b >> a.  Entering a piece
    whose density lies below the radius clamps the radius to that density.
    """
    out = np.empty((dens.shape[0] + 1, dens.shape[1]))
    a = out[0] = a_start
    for j, (b, h) in enumerate(zip(dens, widths)):
        a = np.minimum(a, b)
        w = np.minimum(a * a / (b + np.sqrt((b - a) * (b + a))) + h, b)
        a = out[j + 1] = np.sqrt(w * (2.0 * b - w))
    return out


def reconstruct_radius(b: SurfaceMeasure, specs: list[OscillationSpec],
                       a_boundary: float, grid: Grid) -> RadiusProfile:
    """Admissible radius whose lateral density matches ``b`` on the specs.

    Each oscillation sub-interval is cut into pieces at the grid nodes, and
    the density is constant on every piece.  A rising branch leaves the left
    edge at ``a_boundary`` and a falling branch the right edge, each moving
    one piece at a time along the exact circular arc of that piece's
    density, so the nodes are evaluated exactly with no integrator; every
    branch of a spec advances in the same array step.  Within a piece the gap
    between the branches increases, so the first node where the rising
    branch reaches the falling one follows the first crossing; the two graphs
    are spliced there.  (Branches that never meet, possible only for a
    density within roundoff below the baseline, keep the falling one.)
    Outside the spec intervals the radius is the flat baseline, so the
    identity a sqrt(1+a'^2) = b holds there only where b equals the
    baseline.

    The sup-distance from the baseline scales like the sub-interval width,
    i.e. O(1/n_oscillations) per interval.
    """
    if b.atoms:
        raise ConfigError("reconstruction requires an atom-free surface measure")
    if a_boundary < b.floor:
        raise ConfigError("baseline radius below the measure floor")
    dens = b.density
    nodes = grid.nodes
    tol = 1e-9 * grid.dx
    values = np.full(nodes.size, a_boundary)
    for spec in specs:
        if spec.x_end > grid.length * (1.0 + 1e-12):
            raise ConfigError("oscillation interval extends past the fin tip")
        cells = slice(max(int(spec.x_start / grid.dx), 0),
                      min(int(np.ceil(spec.x_end / grid.dx)), grid.n_cells))
        if np.min(dens[cells]) < a_boundary * (1.0 - 1e-9):
            raise NumericalError(
                f"density drops below the baseline {a_boundary} on "
                f"[{spec.x_start}, {spec.x_end}]; no admissible radius matches it"
            )
        # lane (column) k is oscillation k: nodes within tol of its edges keep
        # the baseline, the others cut it into n_pieces[k] pieces
        edges = np.linspace(spec.x_start, spec.x_end, spec.n_oscillations + 1)
        i0 = np.searchsorted(nodes, edges[:-1] + tol, "right")
        n_pieces = np.maximum(np.searchsorted(nodes, edges[1:] - tol, "left") - i0, 0) + 1
        j = np.arange(n_pieces.max() + 1)[:, None]     # row j: end node j
        ends = np.where(j == 0, edges[:-1],
                        nodes[np.clip(i0 + j - 1, 0, nodes.size - 1)])
        ends = np.where(j == n_pieces, edges[1:], ends)
        cell = np.clip((0.5 * (ends[:-1] + ends[1:]) / grid.dx).astype(int),
                       0, grid.n_cells - 1)
        # pieces past a lane's last (density 1, width 0) keep it finite
        real = j[:-1] < n_pieces
        piece = np.where(real, dens[cell], 1.0)
        width = np.where(real, np.diff(ends, axis=0), 0.0)
        # rising lanes walk the pieces from the left, falling ones from the right
        back = np.where(real, n_pieces - 1 - j[:-1], j[:-1])
        up, dn = np.hsplit(_arc_branches(
            np.hstack((piece, np.take_along_axis(piece, back, 0))),
            np.hstack((width, np.take_along_axis(width, back, 0))), a_boundary), 2)
        at = j <= n_pieces
        dn = np.take_along_axis(dn, np.where(at, n_pieces - j, j), 0)
        ix = np.argmax((up >= dn) & at, axis=0)   # first node past the crossing
        inner = (j > 0) & (j < n_pieces)
        values[(i0 + j - 1)[inner]] = np.where(j < ix, up, dn)[inner]
    return RadiusProfile(np.maximum(values, a_boundary), b.floor, grid.length)


def radius_from_density(b: SurfaceMeasure, grid: Grid) -> RadiusProfile:
    """Reconstruct a radius for a density via oscillations on its loaded runs."""
    a0 = b.floor
    excess = b.density > a0 * (1.0 + 1e-9)
    # first cell and one past the last of each run of loaded cells
    bounds = np.flatnonzero(np.diff(excess, prepend=False, append=False)).tolist()
    specs = [OscillationSpec(i * grid.dx, j * grid.dx,
                             max(1, (j - i) // CELLS_PER_OSCILLATION))
             for i, j in zip(bounds[::2], bounds[1::2])]
    if not specs:
        return RadiusProfile.constant(a0, grid)
    return reconstruct_radius(b, specs, a0, grid)


def _first_feasible(shortfall, lo: int, hi: int, m_top: int) -> int | None:
    """Smallest m in (lo, m_top] with ``shortfall(m) <= 0``, or None.

    ``shortfall`` falls with m, and every m <= lo is known to fail.  From hi,
    m grows fourfold, with m_top probed last, until it is feasible.  The
    bracket then shrinks by aiming at the root of the chord through its ends
    in 1/m, where the shortfall is nearly linear.  Instead it probes lo + 1
    while lo has no shortfall, and bisects after two chord steps in a row
    that failed to halve the bracket.
    """
    s_lo = np.inf
    while (s_hi := shortfall(hi)) > 0.0:
        if hi == m_top:
            return None
        lo, s_lo, hi = hi, s_hi, min(4 * hi, m_top)
    misses = 0
    while hi - lo > 1:
        width = hi - lo
        chord = s_lo < np.inf and misses < 2
        if chord:
            t = 1.0 / hi + (1.0 / lo - 1.0 / hi) * s_hi / (s_hi - s_lo)
            mid = min(max(int(np.ceil(1.0 / t)), lo + 1), hi - 1)
        else:
            mid = lo + 1 if s_lo == np.inf else (lo + hi) // 2
        s = shortfall(mid)
        if s > 0.0:
            lo, s_lo = mid, s
        else:
            hi, s_hi = mid, s
        misses = misses + 1 if chord and 2 * (hi - lo) > width else 0
    return hi


def volume_constrained_design(
        surface_target: float, V0: float, a0: float, grid: Grid,
        params: PhysicalParams) -> tuple[RadiusProfile, int, float]:
    """Oscillating design inside a volume budget: profile, oscillations, flux.

    Returns the design with the smallest oscillation count m such that its
    exact volume is at most ``V0 - 1/n`` (n = surface_target) and its flux is
    within ``k pi beta dT / n`` of the concentration limit; both conditions
    are monotone in m.  Among the m up to m_top, the largest the grid
    resolves with ``MIN_CELLS_PER_HALF_PERIOD`` cells per half oscillation,
    ``_first_feasible`` finds the smallest m within the closed-form volume,
    with no solve, and from there the smallest whose flux shortfall
    ``flux_floor - F(m)`` is not positive; with none, the grid is too coarse
    (``ConfigError``).  The design's exact lateral density is
    ``step_density(n, m, a0, grid)``; the flux used it.
    """
    L = grid.length
    n = surface_target
    if V0 <= a0 * a0 * L:
        raise ConfigError(f"volume budget V0={V0} below the floor volume {a0 * a0 * L}")
    if n < np.ceil(a0 * L) + 1:
        raise ConfigError(
            f"surface target {n} too small; need at least ceil(a0*L)+1 = {np.ceil(a0 * L) + 1}"
        )
    vol_budget = V0 - 1.0 / n
    if vol_budget <= a0 * a0 * L:
        raise ConfigError(f"volume margin V0 - 1/n = {vol_budget} below the floor volume")

    slope = params.k * np.pi * params.constant_beta() * params.delta_T
    flux_floor = surface_supremum(a0, L, n, params) - slope / n

    fluxes = {}

    def shortfall(m):
        fluxes[m] = heat_flux_relaxed(solve_temperature(
            oscillating_profile(n, m, a0, grid), step_density(n, m, a0, grid),
            params, grid))
        return flux_floor - fluxes[m]

    m_lo = max(int(np.floor(1.0 / L)) + 1, 2)
    m_top = int(np.sqrt(0.5 / (MIN_CELLS_PER_HALF_PERIOD * grid.dx)))
    m = None if m_top < m_lo else _first_feasible(
        lambda m: oscillating_profile_volume(n, m, a0, L) - vol_budget, m_lo - 1, m_lo, m_top)
    if m is not None:
        hi = m_lo   # the flux search grows along m_lo 4^k, from the volume's m on
        while hi < m:
            hi = min(4 * hi, m_top)
        m = _first_feasible(shortfall, m - 1, hi, m_top)
    if m is None:
        raise ConfigError(f"grid too coarse: no m up to {m_top}, the most oscillations it "
                          f"resolves, meets the volume/flux targets")
    return oscillating_profile(n, m, a0, grid), m, fluxes[m]
