"""Projected-gradient maximization of the relaxed heat flux.

The design variable is the cellwise surface density b with box bounds
``a0 <= b <= M`` (the cap may be dropped) and the budget
``dx * sum(b) <= S0``.  The state keeps the elliptic coefficient at the floor
radius while b drives the reaction, which is the relaxed functional that
concentrating designs converge to.  Since the objective is a minimum of
functions linear in b (the state energy), it is concave: projected gradient
ascent with a backtracking line search converges to the global maximizer.
Trial steps are spectral (Barzilai & Borwein, IMA J. Numer. Anal. 8, 1988)
and are accepted against the smallest of the last few accepted objectives
(Grippo, Lampariello & Lucidi, SIAM J. Numer. Anal. 23, 1986; Birgin,
Martinez & Raydan, SIAM J. Optim. 10, 2000), so the objective may dip
slightly between accepted steps.  A capped run first tries the bang-bang
vertex that maximizes g.b (Frank & Wolfe, Nav. Res. Logist. Q. 3, 1956).
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .grid import Grid
from .physics import PhysicalParams
from .profiles import RadiusProfile, SurfaceMeasure, excess_surface
from .sequences import bang_density, radius_from_density, switch_point
from .solver import FinSystem

# accepted objectives the nonmonotone Armijo test compares against; a
# monotone test (memory 1) can freeze the iterates before the residual
# meets its tolerance
NONMONOTONE_MEMORY = 3
ARMIJO = 1e-4          # sufficient-increase fraction of the predicted gain g.d
MOVE_TOL = 1e-13       # relative to a0: a trial moving no more is no step


@dataclass
class OptimConfig:
    a0: float
    S0: float
    M: float | None
    grid: Grid
    params: PhysicalParams
    max_iters: int = 20000
    pg_tol: float = 1e-9           # on the unit-free projected-gradient residual

    def __post_init__(self):
        if self.a0 <= 0.0:
            raise ConfigError(f"floor radius a0 must be positive, got {self.a0}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be at least 1, got {self.max_iters}")
        excess_surface(self.S0, self.a0, self.grid.length)
        if self.M is not None:
            switch_point(self.M, self.S0, self.a0, self.grid.length)


@dataclass
class OptimResult:
    b_opt: SurfaceMeasure
    objective: float
    switch_estimate: float
    cells_between_bounds: int      # cells neither at the floor nor at the cap
    trace: np.ndarray
    converged: bool                # pg_residual <= pg_tol, whatever stopped the run
    n_iterations: int
    pg_residual: float
    budget_active: bool
    stop_reason: str               # "kkt" | "line_search" | "max_iters"
    config: OptimConfig = field(repr=False)  # the settings the run was made with
    system: FinSystem = field(repr=False)   # the floor-radius kernel the run solved on
    temperature: np.ndarray = field(repr=False)

    @cached_property
    def a_opt(self) -> RadiusProfile:
        """A radius realizing ``b_opt``, reconstructed on first read."""
        return radius_from_density(self.b_opt, self.config.grid)

    def excess_fraction(self, center: float) -> float:
        """Share of the excess surface ``(b - a0) dx`` on the cells whose
        midpoint lies within 5% of the fin length of ``center``."""
        grid = self.config.grid
        near = np.abs(grid.midpoints - center) <= 0.05 * grid.length
        exc = (self.b_opt.density - self.b_opt.floor) * grid.dx
        return float(exc[near].sum() / exc.sum())


def project_box_budget(v: np.ndarray, lo: float, hi: float, budget: float,
                       dx: float) -> np.ndarray:
    """Euclidean projection onto {lo <= b <= hi, dx * sum(b) <= budget}.

    Clips to the box first; if the budget is violated, the answer is
    clip(v - mu, lo, hi) for the shift mu > 0 where the surface
    phi(mu) = dx * sum(clip(v - mu, lo, hi)) meets the budget.  phi is
    piecewise linear and nonincreasing, with kinks at the positive values of
    v - hi and v - lo; bisecting over the sorted kinks finds the piece that
    brackets the budget, on which mu is solved exactly (Kiwiel, Math.
    Program. 112, 2008).  A budget in the round-off slack below the floor
    surface gives the all-floor density.
    """
    if budget < lo * v.size * dx * (1.0 - 1e-12):
        raise ConfigError(
            f"budget {budget} below the box minimum {lo * v.size * dx}"
        )
    b = np.clip(v, lo, hi)
    phi_left = dx * b.sum()
    if phi_left <= budget:
        return b
    kinks = np.concatenate((v - hi, v - lo))
    kinks = kinks[kinks > 0.0]
    kinks.sort()
    # invariant: phi(kinks[left - 1]) = phi_left > budget (kinks[-1] read as
    # mu = 0) and phi(kinks[right]) = phi_right <= budget
    left, right, phi_right = 0, kinks.size, None
    while left < right:
        mid = (left + right) // 2
        phi_mid = dx * np.clip(v - kinks[mid], lo, hi).sum()
        if phi_mid > budget:
            left, phi_left = mid + 1, phi_mid
        else:
            right, phi_right = mid, phi_mid
    if phi_right is None:
        return np.full_like(b, lo)
    mu0 = kinks[left - 1] if left else 0.0
    mu = mu0 + (phi_left - budget) / (phi_left - phi_right) * (kinks[left] - mu0)
    return np.clip(v - mu, lo, hi)


def bang_vertex(g: np.ndarray, lo: float, hi: float, budget: float, dx: float) -> np.ndarray:
    """Maximizer of g.b, g >= 0, over {lo <= b <= hi < inf, dx * sum(b) <= budget}."""
    excess = max(budget / dx - lo * g.size, 0.0)
    full = min(int(excess // (hi - lo)), g.size - 1)   # cells at the cap, largest g first
    t = np.sort(g)[g.size - 1 - full]                  # g of the one partly filled cell
    tied = np.flatnonzero(g == t)[:full + 1 - np.count_nonzero(g > t)]   # lower index first
    b = np.where(g > t, hi, lo)                        # the cap above t, the floor below
    b[tied] = hi
    b[tied[-1]] = min(lo + (excess - full * (hi - lo)), hi)
    return b


def optimize(cfg: OptimConfig) -> OptimResult:
    """Maximize the relaxed flux over the box-and-budget density set."""
    grid, a0, dx = cfg.grid, cfg.a0, cfg.grid.dx
    hi = np.inf if cfg.M is None else cfg.M
    system = FinSystem(RadiusProfile.constant(a0, grid), cfg.params, grid)

    def evaluate(b):
        theta = system.excess(b)
        return system.relaxed_flux(theta, b), system.flux_gradient(theta) * dx, theta

    def residual(b, g):   # ||P(b + s g) - b|| / a0 at the first step's s: unit-free
        s = a0 / (float(np.max(g)) + 1e-300)
        return float(np.linalg.norm(project_box_budget(b + s * g, a0, hi, cfg.S0, dx) - b)) / a0

    b = project_box_budget(np.full(grid.n_cells, cfg.S0 / grid.length),
                           a0, hi, cfg.S0, dx)
    F, g, theta = evaluate(b)
    trace = [F]
    step = a0 / (float(np.max(g)) + 1e-300)
    stop_reason = "max_iters"
    for it in range(1, cfg.max_iters + 1):
        accepted = False
        reference = min(trace[-NONMONOTONE_MEMORY:])
        vertex = it == 1 and cfg.M is not None     # the first trial of a capped run
        for _ in range(60 + vertex):
            b_new = (bang_vertex(g, a0, hi, cfg.S0, dx) if vertex
                     else project_box_budget(b + step * g, a0, hi, cfg.S0, dx))
            d = b_new - b
            if float(np.max(np.abs(d))) <= MOVE_TOL * a0:
                break
            F_new, g_new, theta_new = evaluate(b_new)
            if F_new >= reference + ARMIJO * float(np.dot(g, d)):
                accepted = True
                break
            step, vertex = (step if vertex else 0.5 * step), False   # no halving for the vertex
        if not accepted:
            stop_reason = "line_search"
            break
        gain = (F_new - F) / max(abs(F), 1e-300)
        # BB1 step; concavity makes the curvature d.(g - g_new) nonnegative
        curvature = float(np.dot(d, g - g_new))
        if curvature > 0.0:
            step = float(np.dot(d, d)) / curvature
        b, F, g, theta = b_new, F_new, g_new, theta_new
        trace.append(F)
        # tested only once the objective stops rising: tested after every
        # step, the certificate ends some runs short of their switch
        if gain < 1e-15 and (pg_res := residual(b, g)) <= cfg.pg_tol:
            stop_reason = "kkt"
            break

    pg_res = pg_res if stop_reason == "kkt" else residual(b, g)

    tol_b = 1e-6 * (hi - a0 if np.isfinite(hi) else max(float(np.max(b)) - a0, a0))
    upper = np.nonzero(b >= hi - tol_b)[0]     # none without a cap
    switch = float((upper[-1] + 1) * dx) if upper.size else 0.0

    return OptimResult(
        b_opt=SurfaceMeasure(b, a0, grid.length),
        objective=F,
        switch_estimate=switch,
        cells_between_bounds=int(np.count_nonzero((b > a0 + tol_b) & (b < hi - tol_b))),
        trace=np.asarray(trace),
        converged=pg_res <= cfg.pg_tol,
        n_iterations=it,
        pg_residual=pg_res,
        budget_active=dx * b.sum() >= cfg.S0 * (1.0 - 1e-9),
        stop_reason=stop_reason,
        config=cfg,
        system=system,
        temperature=cfg.params.T_inf + theta,
    )


@dataclass(frozen=True)
class BangStructureReport:
    switch_expected: float
    switch_error_cells: float
    bang_objective: float
    objective_relative_gap: float


def verify_bang_structure(res: OptimResult) -> BangStructureReport:
    """Compare an optimizer result, on its own kernel, to the exact-switch two-level density."""
    cfg = res.config
    if cfg.M is None:
        raise ConfigError("bang structure check requires a finite cap M")
    xM = switch_point(cfg.M, cfg.S0, cfg.a0, cfg.grid.length)
    bang = bang_density(cfg.M, cfg.S0, cfg.a0, cfg.grid).density
    F_bang = res.system.relaxed_flux(res.system.excess(bang), bang)
    return BangStructureReport(
        switch_expected=xM,
        switch_error_cells=abs(res.switch_estimate - xM) / cfg.grid.dx,
        bang_objective=F_bang,
        objective_relative_gap=abs(res.objective - F_bang) / max(abs(F_bang), 1e-300),
    )


def nondecreasing(prev: float, F: float) -> bool:
    """Whether objective ``F`` is at least ``prev``, up to a relative roundoff slack."""
    return bool(F >= prev * (1 - 1e-12))


def sweep_M(cfg: OptimConfig, M_list, include_uncapped: bool = False):
    """One optimization per cap, in order, each run when the caller asks for it.

    Caps must be strictly increasing, which is checked at the call;
    ``include_uncapped`` appends a run without a cap.  A caller that writes
    each result out before asking for the next never holds more than one.
    """
    caps = list(M_list)
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise ConfigError("M_list must be strictly increasing")
    return (optimize(replace(cfg, M=M)) for M in caps + [None] * include_uncapped)
