"""Self-contained verification suite behind the ``verify`` CLI command.

Each item exercises one guaranteed property of the model at desk scale:
closed-form agreement and its convergence order, discrete flux conservation,
monotonicity bounds of the temperature, convergence of the oscillating
designs to the supremum, unboundedness under a volume budget, gradient
consistency, bang-bang structure of capped optima, monotone sweep objectives,
qualitative concentration behavior and the a priori radius bound.

Items that need a specific regime (supremum convergence, volume growth, swap
derivative) run on fixed internal geometries: their rates degrade with strong
absorption, so they are checked where the estimates are sharp.  Everything
else runs on the supplied configuration.
"""

from dataclasses import dataclass
from random import Random

import numpy as np

from .config import ExperimentConfig, HProfile
from .errors import ConfigError
from .functionals import (directional_derivative, flux_gradient_density,
                          flux_report, generalized_supremum, heat_flux_relaxed,
                          surface, surface_supremum, volume)
from .grid import Grid
from .optimizer import nondecreasing, optimize, sweep_M, verify_bang_structure
from .physics import PhysicalParams
from .profiles import (RadiusProfile, SurfaceMeasure, admissible_radius_bound,
                       excess_surface)
from .randoms import random_pair, random_radius, uniforms
from .sequences import (oscillating_profile, oscillating_radius, step_density,
                        volume_constrained_design)
from .solver import closed_form_temperature, solve_temperature


@dataclass
class Item:
    name: str
    passed: bool
    skipped: bool
    measured: float
    tolerance: float
    detail: str

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "skipped": bool(self.skipped),
            "measured": None if np.isnan(self.measured) else float(self.measured),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


def _skip(name: str, why: str) -> Item:
    return Item(name, True, True, float("nan"), 0.0, why)


def default_config() -> ExperimentConfig:
    """Constant-convection reference configuration, the run of ``configs/verify.yaml``."""
    a0, length = 1e-3, 0.1
    return ExperimentConfig(
        a0=a0, length=length, k=10.0, h_profile=HProfile(10.0, length),
        h_r=10.0, T_d=10.0, T_inf=0.0, S0=6 * a0 * length,
        M_list=[6.25e-3, 12.5e-3, 25e-3, 50e-3],
        n_cells=4096,
    )


def check_closed_form(cfg: ExperimentConfig) -> Item:
    if not cfg.h_profile.is_constant:
        return _skip("closed_form_agreement", "requires constant h")
    params = cfg.params()
    dT = params.delta_T
    sizes = [max(cfg.n_cells // 8, 2), max(cfg.n_cells // 4, 4),
             max(cfg.n_cells // 2, 8), cfg.n_cells]
    errs = []
    for n in sizes:
        grid = Grid(cfg.length, n)
        T = solve_temperature(RadiusProfile.constant(cfg.a0, grid),
                              SurfaceMeasure.constant(cfg.a0, grid), params, grid)
        exact = closed_form_temperature(grid.nodes, cfg.a0, cfg.length, params)
        errs.append(float(np.max(np.abs(T.values - exact))) / dT)
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ok = errs[-1] <= 1e-6 and all(3.2 <= r <= 4.8 for r in ratios)
    return Item("closed_form_agreement", ok, False, errs[-1], 1e-6,
                f"rel Linf at n={cfg.n_cells}: {errs[-1]:.3e}; "
                f"refinement ratios {['%.2f' % r for r in ratios]}")


def _random_solves(cfg: ExperimentConfig, seed: int, count: int):
    """Solves on ``count`` random profiles of ``cfg``'s grid, drawn from ``seed``."""
    params, grid, rng = cfg.params(), cfg.grid(), Random(seed)
    for _ in range(count):
        yield solve_temperature(*random_pair(rng, cfg.a0, grid), params, grid)


def check_flux_identity(cfg: ExperimentConfig, seed: int) -> Item:
    worst = max(flux_report(T).relative_gap for T in _random_solves(cfg, seed, 50))
    return Item("flux_identity", worst <= 1e-10, False, worst, 1e-10,
                "max relative boundary/integral gap over 50 random profiles")


def check_temperature_bounds(cfg: ExperimentConfig, seed: int) -> Item:
    params = cfg.params()
    tol = 1e-10 * params.delta_T
    worst = 0.0
    for T in _random_solves(cfg, seed + 1, 100):
        worst = max(worst,
                    float(np.max(T.values) - params.T_d),
                    float(params.T_inf - np.min(T.values)),
                    float(np.max(np.diff(T.values))))
    return Item("temperature_bounds", worst <= tol, False, worst, tol,
                "max violation of T_inf <= T <= T_d and monotone decrease, "
                "100 random profiles")


def check_supremum_convergence() -> Item:
    # weak-absorption geometry: the concentration loss scales like 1/sqrt(m)
    # with a small constant, so the 1% target is met well before m = 128
    a0, length = 0.2, 1.0
    params = PhysicalParams(k=10.0, h=0.1, h_r=0.1, T_d=10.0, T_inf=0.0)
    S0 = 1.5 * a0 * length
    grid = Grid(length, 8192)
    sup = surface_supremum(a0, length, S0, params)
    gaps = []
    for m in (8, 16, 32, 64, 128):
        a = oscillating_profile(S0, m, a0, grid)
        b = step_density(S0, m, a0, grid)
        F = heat_flux_relaxed(solve_temperature(a, b, params, grid))
        gaps.append((sup - F) / sup)
    ok = gaps[-1] <= 0.01 and all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    return Item("supremum_convergence", ok, False, gaps[-1], 0.01,
                f"relative gaps over m=8..128: {['%.2e' % g for g in gaps]}")


def check_volume_unbounded() -> Item:
    a0, length = 1.2, 0.2
    params = PhysicalParams(k=10.0, h=0.25, h_r=0.0, T_d=10.0, T_inf=0.0)
    V0 = 2 * a0 * a0 * length
    grid = Grid(length, 32768)
    scale = params.k * np.pi * params.constant_beta() * params.delta_T
    worst = np.inf
    details = []
    for n in (5, 10, 20):
        prof, _, F = volume_constrained_design(n, V0, a0, grid, params)
        vol = volume(prof, grid)
        if vol > V0 - 1.0 / n + 1e-9:
            return Item("volume_unbounded", False, False, vol, V0 - 1.0 / n,
                        f"profile for n={n} misses the volume budget")
        ratio = F / (scale * excess_surface(n, a0, length))
        worst = min(worst, ratio)
        details.append(f"n={n}: F/linear={ratio:.4f}")
    return Item("volume_unbounded", worst >= 0.98, False, worst, 0.98,
                "; ".join(details))


def check_gradient(cfg: ExperimentConfig, seed: int) -> Item:
    params = cfg.params()
    grid = cfg.grid(min(cfg.n_cells, 1024))
    a = RadiusProfile.constant(cfg.a0, grid)
    rng = Random(seed + 2)
    worst = 0.0
    for _ in range(20):
        dens = cfg.a0 * (1.0 + 4.0 * uniforms(rng, grid.n_cells))
        T = solve_temperature(a, SurfaceMeasure(dens, cfg.a0, cfg.length), params, grid)
        g = flux_gradient_density(T) * grid.dx
        system = T.system
        for i in rng.sample(range(grid.n_cells), min(4, grid.n_cells)):
            # nearly quadratic in each b_i: a generous step avoids the
            # roundoff floor without truncation bias
            h_fd = 1e-1 * cfg.a0
            dp, dm = dens.copy(), dens.copy()
            dp[i] += h_fd
            dm[i] -= h_fd
            # the probes evaluate the smooth functional on the solve's own
            # kernel, which also takes densities slightly below a0
            F_p, F_m = (system.relaxed_flux(system.excess(d), d) for d in (dp, dm))
            fd = (F_p - F_m) / (2 * h_fd)
            worst = max(worst, abs(fd - g[i]) / max(abs(g[i]), 1e-300))
    return Item("gradient_check", worst <= 1e-4, False, worst, 1e-4,
                "max relative error of analytic vs central-difference gradient, "
                "20 random densities")


def check_swap_derivative() -> Item:
    # shallow-decay geometry keeps the O(eps) window averaging below 1e-3
    a0, length = 0.05, 1.0
    lam = 0.3
    beta = lam * lam * a0
    params = PhysicalParams(k=10.0, h=beta * 10.0 / 2.0, h_r=5.0 * lam * 10.0,
                            T_d=10.0, T_inf=0.0)
    grid = Grid(length, 16384)
    a = RadiusProfile.constant(a0, grid)
    # headroom above the floor keeps the removal window admissible
    b = SurfaceMeasure.constant(1.1 * a0, grid, floor=a0)
    x0, c, eps = 0.9 * length, 0.01 * a0, 1e-3 * length
    T0 = solve_temperature(a, b, params, grid)
    ana = directional_derivative(T0, x0, c)
    F0 = heat_flux_relaxed(T0)
    x = grid.nodes
    add = np.clip(np.minimum(x[1:], eps) - np.maximum(x[:-1], 0.0), 0, None)
    rem = np.clip(np.minimum(x[1:], x0 + eps / 2) - np.maximum(x[:-1], x0 - eps / 2),
                  0, None)
    b_eps = SurfaceMeasure(b.density + c * (add - rem) / grid.dx, a0, length)
    system = T0.system   # b_eps keeps the radius, so it is solved on the same kernel
    fd = (system.relaxed_flux(system.excess(b_eps.density), b_eps.density) - F0) / eps
    err = abs(fd - ana) / abs(ana)
    return Item("swap_derivative", err <= 1e-3, False, err, 1e-3,
                f"swap quotient {fd:.6e} vs closed form {ana:.6e} at eps=1e-3 L")


def check_bang_structure(cfg: ExperimentConfig) -> Item:
    if not cfg.h_profile.is_constant:
        return _skip("bang_structure", "requires constant h")
    if cfg.S0 is None or not cfg.M_list:
        return _skip("bang_structure", "requires a surface budget and an M list")
    grid = cfg.grid(500)
    worst_gap, worst_cells, worst_between = 0.0, 0.0, 0
    for res in sweep_M(cfg.optim_config(None, grid), cfg.M_list):
        rep = verify_bang_structure(res)
        worst_gap = max(worst_gap, rep.objective_relative_gap)
        worst_cells = max(worst_cells, rep.switch_error_cells)
        worst_between = max(worst_between, res.cells_between_bounds)
    ok = worst_gap <= 1e-3 and worst_cells <= 1.0 and worst_between <= 1
    return Item("bang_structure", ok, False, worst_gap, 1e-3,
                f"max objective gap {worst_gap:.2e}, switch error "
                f"{worst_cells:.2f} cells, {worst_between} cells between bounds")


def check_sweep_monotone(cfg: ExperimentConfig) -> Item:
    if not cfg.h_profile.is_constant:
        return _skip("sweep_monotonicity", "requires constant h")
    if cfg.S0 is None or not cfg.M_list:
        return _skip("sweep_monotonicity", "requires a surface budget and an M list")
    grid = cfg.grid(2000)
    objs = [r.objective for r in sweep_M(cfg.optim_config(None, grid), cfg.M_list,
                                          include_uncapped=True)]
    sup = surface_supremum(cfg.a0, cfg.length, cfg.S0, cfg.params())
    gap = (sup - objs[-1]) / sup
    ok = gap <= 0.05 and all(nondecreasing(o1, o2) for o1, o2 in zip(objs, objs[1:]))
    return Item("sweep_monotonicity", ok, False, gap, 0.05,
                f"objectives {['%.5e' % o for o in objs]}, uncapped gap to "
                f"supremum {gap:.2%}")


def check_concentration(cfg: ExperimentConfig) -> Item:
    """Qualitative optimum shape for nonconstant h: concentration location."""
    kind = cfg.h_profile.kind
    if kind == "constant":
        return _skip("concentration_behavior", "requires nonconstant h")
    if cfg.S0 is None:
        return _skip("concentration_behavior", "requires a surface budget")
    grid = cfg.grid(500)
    h = cfg.h_profile
    if kind == "step" or (kind == "affine" and h.end < h.start):
        M = cfg.cap()
        if M is None:
            return _skip("concentration_behavior", "requires a cap M")
    elif kind == "affine" and h.end > h.start:
        if not cfg.drop_cap:
            return _skip("concentration_behavior",
                         "increasing h check runs with the cap dropped")
        M = None
    else:
        return _skip("concentration_behavior", f"no check defined for h kind '{kind}'")
    res = optimize(cfg.optim_config(M, grid))
    exc = res.b_opt.density - cfg.a0
    if not np.any(exc > 0.0):   # S0 = a0 L, or an excess below a0's roundoff
        return _skip("concentration_behavior", "the optimum has no excess surface")
    if M is None:
        support = exc > 0.01 * exc.max()
        ratio = float(exc.max() / np.median(exc[support]))
        return Item("concentration_behavior", ratio <= 3.0, False, ratio, 3.0,
                    "increasing h, cap dropped: max excess density over its "
                    f"median on the support ({int(support.sum())} cells)")
    if kind == "step":
        label, where, least, center = "step", "within +-5% of the step", 0.8, h.x_step
    else:
        label, where, least, center = "decreasing", "in the first 5% of the fin", 0.9, 0.0
    frac = res.excess_fraction(center)
    return Item("concentration_behavior", frac >= least, False, frac, least,
                f"{label} h: fraction of excess surface {where} at M={M:g}")


def check_surface_bound(cfg: ExperimentConfig, seed: int) -> Item:
    S0 = cfg.S0
    if S0 is None:
        return _skip("surface_bound", "requires a surface budget")
    grid = cfg.grid(min(cfg.n_cells, 2048))
    bound = admissible_radius_bound(S0, cfg.length)
    rng = Random(seed + 3)
    worst = 0.0
    checked = 0
    for _ in range(50):
        a = random_radius(rng, cfg.a0, grid)
        if surface(a, grid) <= S0:
            worst = max(worst, float(np.max(a.values)) / bound)
            checked += 1
    for m in (8, 16):
        if 1.0 / m >= cfg.length:
            continue
        try:
            vals = oscillating_radius(grid.nodes, S0, m, cfg.a0, cfg.length)
        except ConfigError:
            continue   # arcs defined only when the excess supports m oscillations
        worst = max(worst, float(np.max(vals)) / bound)
        checked += 1
    return Item("surface_bound", worst <= 1.0 + 1e-9, False, worst, 1.0 + 1e-9,
                f"max radius over admissible-class bound, {checked} profiles")


def check_generalized_supremum(cfg: ExperimentConfig) -> Item:
    if cfg.h_profile.is_constant:
        return _skip("generalized_supremum", "reduces to the constant-h formula")
    S0 = cfg.S0
    if S0 is None:
        return _skip("generalized_supremum", "requires a surface budget")
    if excess_surface(S0, cfg.a0, cfg.length) == 0.0:
        return _skip("generalized_supremum", "S0 = a0 L leaves no excess surface")
    grid = cfg.grid(min(cfg.n_cells, 8192))
    flat = solve_temperature(RadiusProfile.constant(cfg.a0, grid),
                             SurfaceMeasure.constant(cfg.a0, grid), cfg.params(), grid)
    try:
        sup = generalized_supremum(flat, S0)
    except ConfigError as exc:
        return _skip("generalized_supremum", f"hypothesis violated, skipped: {exc}")
    base = heat_flux_relaxed(flat)
    return Item("generalized_supremum", sup > base > 0.0, False, sup, base,
                f"supremum {sup:.6e} exceeds the flat-design flux {base:.6e}")


def run_verification(cfg: ExperimentConfig | None = None, seed: int = 0) -> dict:
    cfg = cfg or default_config()
    if cfg.T_d <= cfg.T_inf:
        # every item measures against the drop T_d - T_inf
        raise ConfigError(f"verify needs T_d > T_inf, got T_d = T_inf = {cfg.T_d:g}")
    items = [
        check_closed_form(cfg),
        check_flux_identity(cfg, seed),
        check_temperature_bounds(cfg, seed),
        check_supremum_convergence(),
        check_volume_unbounded(),
        check_gradient(cfg, seed),
        check_swap_derivative(),
        check_bang_structure(cfg),
        check_sweep_monotone(cfg),
        check_concentration(cfg),
        check_surface_bound(cfg, seed),
        check_generalized_supremum(cfg),
    ]
    return {
        "items": [it.as_dict() for it in items],
        "all_passed": bool(all(it.passed for it in items)),
        "seed": seed,
    }
