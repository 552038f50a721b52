import functools
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from pinfin import (ConfigError, Grid, OptimConfig, PhysicalParams,
                    bang_density, heat_flux_relaxed, optimize,
                    project_box_budget, surface_supremum, sweep_M,
                    verify_bang_structure)
from pinfin import optimizer
from pinfin.cli import main
from pinfin.config import load_config
from pinfin.functionals import flux_gradient_density
from pinfin.profiles import RadiusProfile
from pinfin.solver import FinSystem, solve_temperature

A0, ELL = 1e-3, 0.1
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_cfg(n=200, M=25e-3, S0=None, h=10.0, max_iters=20000):
    params = PhysicalParams(k=10.0, h=h, h_r=10.0 if not callable(h) else h(ELL),
                            T_d=10.0, T_inf=0.0)
    return OptimConfig(a0=A0, S0=S0 if S0 is not None else 6 * A0 * ELL,
                       M=M, grid=Grid(ELL, n), params=params,
                       max_iters=max_iters)


# ------------------------------------------------------------- projection

def test_projection_feasibility_and_idempotence():
    rng = np.random.default_rng(0)
    lo, hi, dx = 1.0, 4.0, 0.01
    for _ in range(50):
        v = rng.uniform(-2, 8, size=40)
        budget = rng.uniform(lo * 40 * dx, hi * 40 * dx)
        b = project_box_budget(v, lo, hi, budget, dx)
        assert np.all(b >= lo - 1e-12) and np.all(b <= hi + 1e-12)
        assert dx * b.sum() <= budget * (1 + 1e-12)
        again = project_box_budget(b, lo, hi, budget, dx)
        assert np.allclose(again, b, atol=1e-10)


def data_scale(v, lo, hi):
    return max(float(np.max(np.abs(v))), lo, hi if np.isfinite(hi) else 0.0)


def assert_projection_kkt(v, lo, hi, budget, dx, b):
    """Certify b as the projection of v without an oracle.

    b is the projection iff it is feasible and some mu >= 0 has
    b_i = v_i - mu on free cells, v_i - mu <= lo on floor cells,
    v_i - mu >= hi on capped cells, and the budget is met when mu > 0.
    """
    tol = 1e-12 * data_scale(v, lo, hi)
    assert np.all(b >= lo) and np.all(b <= hi)
    assert dx * b.sum() <= budget * (1 + 1e-12)
    lower, upper = b == lo, b == hi
    free = ~(lower | upper)
    if np.any(free):
        shifts = v[free] - b[free]
        assert np.ptp(shifts) <= tol
        mu = float(np.mean(shifts))
        assert mu >= -tol
    else:
        mu = max(0.0, float(np.max(v[lower] - lo, initial=0.0)))
    assert np.all(v[lower] - mu <= lo + tol)
    assert np.all(v[upper] - mu >= hi - tol)
    if mu > tol:
        assert dx * b.sum() == pytest.approx(budget, rel=1e-12)


@st.composite
def projection_inputs(draw):
    n = draw(st.integers(1, 40))
    lo = draw(st.floats(1e-3, 10.0))
    hi = draw(st.one_of(st.just(np.inf), st.floats(1.01, 20.0).map(lambda r: r * lo)))
    # few levels give tied values; levels below 1 put cells under the floor
    levels = draw(st.lists(st.floats(-5.0, 25.0), min_size=1, max_size=n))
    v = lo * np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    dx = draw(st.floats(1e-3, 1.0))
    budget = lo * n * dx * draw(st.floats(1.0 - 5e-13, 30.0))
    return v, lo, hi, budget, dx


@given(projection_inputs())
def test_projection_satisfies_kkt(inputs):
    v, lo, hi, budget, dx = inputs
    assert_projection_kkt(v, lo, hi, budget, dx, project_box_budget(*inputs))


@given(projection_inputs())
def test_projection_is_idempotent(inputs):
    v, lo, hi, budget, dx = inputs
    b = project_box_budget(*inputs)
    again = project_box_budget(b, lo, hi, budget, dx)
    assert np.max(np.abs(again - b)) <= 1e-12 * data_scale(v, lo, hi)


@pytest.mark.parametrize("v, lo, hi, budget", [
    (np.array([1.0, 9.0, 3.0, 0.2]), 0.5, np.inf, 4.0),       # no cap
    (np.array([7.0]), 1.0, 4.0, 2.0),                         # one cell
    (np.array([3.0, 3.0, 3.0, 1.5, 1.5]), 1.0, 2.5, 6.0),     # ties
    (np.array([0.2, -1.0, 0.9]), 1.0, 2.0, 3.0),              # all at or below lo
    (np.array([0.2, -1.0, 1.0]), 1.0, 2.0, 3.0 * (1 - 5e-13)),  # ... and no kink
    (np.array([5.0, 0.0, 9.0]), 1.0, 4.0, 3.0 * (1 - 5e-13)),  # budget in the slack
], ids=["no-cap", "one-cell", "ties", "below-floor", "no-kink", "slack"])
def test_projection_edge_cases(v, lo, hi, budget):
    b = project_box_budget(v, lo, hi, budget, 1.0)
    assert_projection_kkt(v, lo, hi, budget, 1.0, b)
    if budget < lo * v.size:
        assert np.array_equal(b, np.full(v.size, lo))


def test_projection_returns_a_feasible_input_unchanged():
    v = np.array([1.0, 2.5, 1.25, 4.0])
    assert np.array_equal(project_box_budget(v, 1.0, 4.0, 8.75, 1.0), v)
    assert np.array_equal(project_box_budget(v, 1.0, np.inf, 9.0, 1.0), v)


def test_projection_rejects_impossible_budgets():
    with pytest.raises(ConfigError):
        project_box_budget(np.ones(10), 1.0, 2.0, 0.5 * 10 * 0.01, 0.01)


def test_projection_matches_quadratic_program_oracle():
    # oracle: direct constrained least-distance solve on small instances
    rng = np.random.default_rng(1)
    lo, hi, dx = 0.5, 2.0, 0.1
    n = 12
    for _ in range(10):
        v = rng.uniform(-1, 3.5, size=n)
        budget = rng.uniform(lo * n * dx, hi * n * dx * 0.9)
        mine = project_box_budget(v, lo, hi, budget, dx)
        res = minimize(lambda b: 0.5 * np.sum((b - v) ** 2), np.full(n, 1.0),
                       jac=lambda b: b - v,
                       bounds=[(lo, hi)] * n,
                       constraints=[{"type": "ineq",
                                     "fun": lambda b: budget - dx * b.sum(),
                                     "jac": lambda b: -dx * np.ones(n)}],
                       method="SLSQP", options={"ftol": 1e-14, "maxiter": 400})
        assert res.success
        assert np.max(np.abs(mine - res.x)) <= 2e-6


@st.composite
def vertex_inputs(draw):
    n = draw(st.integers(1, 40))
    lo = draw(st.floats(1e-3, 10.0))
    hi = lo * draw(st.floats(1.01, 20.0))
    # few levels give tied gradients; zero is a level the flux gradient can
    # take (HiGHS, the oracle, reads costs below about 1e-9 as zero)
    levels = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                           min_size=1, max_size=n))
    g = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    dx = draw(st.floats(1e-3, 1.0))
    budget = lo * n * dx + draw(st.floats(0.0, 1.0)) * (hi - lo) * n * dx
    return g, lo, hi, budget, dx


@given(vertex_inputs())
def test_bang_vertex_is_the_linear_programs_maximizer(inputs):
    g, lo, hi, budget, dx = inputs
    b = optimizer.bang_vertex(*inputs)
    assert np.all(b >= lo) and np.all(b <= hi)
    assert dx * b.sum() <= budget * (1 + 1e-12)
    assert np.count_nonzero((b > lo) & (b < hi)) <= 1
    # greedy in g, ties to the lower index: b never rises along that order
    assert np.all(np.diff(b[np.lexsort((np.arange(g.size), -g))]) <= 0.0)
    # the oracle solves in units of lo and dx: HiGHS's tolerances are absolute
    oracle = linprog(-g, A_ub=np.ones((1, g.size)), b_ub=[budget / (lo * dx)],
                     bounds=[(1.0, hi / lo)] * g.size, method="highs",
                     options={"presolve": False, "primal_feasibility_tolerance": 1e-10})
    assert oracle.status == 0
    assert float(g @ b) == pytest.approx(-oracle.fun * lo, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("g, budget, expected", [
    ([1.0, 3.0, 3.0, 2.0], 6.5, [1.0, 3.0, 1.5, 1.0]),    # tie: the lower index fills first
    ([2.0, 2.0, 2.0], 3.0, [1.0, 1.0, 1.0]),              # budget at the floor
    ([2.0, 5.0, 1.0], 9.0, [3.0, 3.0, 3.0]),              # budget at the cap
    ([0.0, 0.0], 3.0, [2.0, 1.0]),                        # zero gradient
], ids=["tie", "floor", "cap", "zero"])
def test_bang_vertex_edge_cases(g, budget, expected):
    b = optimizer.bang_vertex(np.array(g), 1.0, 3.0, budget, 1.0)
    assert np.array_equal(b, expected)


# ------------------------------------------------------------- optimizer

def test_optimizer_recovers_bang_bang_structure():
    cfg = make_cfg()
    res = optimize(cfg)
    assert res.converged
    rep = verify_bang_structure(res)
    assert res.cells_between_bounds <= 1
    assert rep.switch_error_cells <= 1.0
    assert rep.objective_relative_gap <= 1e-6
    # ascent and feasibility
    assert np.all(np.diff(res.trace) >= -1e-12 * abs(res.objective))
    assert res.b_opt.total(cfg.grid) <= cfg.S0 * (1 + 1e-10)
    assert np.all(res.b_opt.density >= A0 - 1e-15)
    assert np.all(res.b_opt.density <= cfg.M + 1e-15)


def test_converged_means_the_residual_met_its_tolerance():
    # uncapped: a capped constant-h run starts at its bang-bang vertex and
    # meets its tolerance in two iterations
    cfg = make_cfg(M=None, max_iters=3)
    res = optimize(cfg)
    assert res.stop_reason == "max_iters" and res.n_iterations == 3
    assert res.pg_residual > cfg.pg_tol and not res.converged


def test_optimizer_rejects_a_nonpositive_iteration_limit():
    for max_iters in (0, -5):
        with pytest.raises(ConfigError, match="max_iters"):
            make_cfg(max_iters=max_iters)


def assert_best_objective_returned(res):
    # the nonmonotone line search may dip between accepted steps, but the
    # run must not end below the best objective it visited
    assert res.objective >= float(np.max(res.trace)) * (1 - 1e-12)


@pytest.mark.parametrize("M", [6.25e-3, 12.5e-3, 25e-3, 50e-3])
def test_spectral_steps_converge_in_few_iterations(M):
    # constant h: the bang-bang optimum is the vertex of the first gradient,
    # so a capped run's first trial lands on it (spectral steps alone, from
    # the uniform start, took 11 to 16 iterations)
    for n in (500, 4096):
        res = optimize(make_cfg(n=n, M=M))
        assert res.converged and res.n_iterations <= 3
        assert_best_objective_returned(res)


@pytest.mark.parametrize("M", [12.5e-3, None])
def test_only_a_capped_run_tries_the_bang_vertex(monkeypatch, M):
    calls = []
    vertex = optimizer.bang_vertex
    monkeypatch.setattr(optimizer, "bang_vertex",
                        lambda *args: calls.append(args) or vertex(*args))
    res = optimize(make_cfg(M=M))
    assert res.n_iterations > 1
    assert len(calls) == (0 if M is None else 1)


def test_nonmonotone_search_converges_on_step_convection():
    # a monotone Armijo test with spectral steps freezes this run above pg_tol
    cfg = load_config(CONFIGS / "step_h.yaml")
    res = optimize(OptimConfig(a0=cfg.a0, S0=cfg.S0, M=2.6e-3, grid=cfg.grid(),
                               params=cfg.params(), max_iters=cfg.max_iters))
    assert res.converged, (res.stop_reason, res.pg_residual)
    assert_best_objective_returned(res)


def run_config(path, first_cap=False):
    """The config's run without its cap, or at its first (smallest) cap."""
    cfg = load_config(path)
    return optimize(cfg.optim_config(cfg.M_list[0] if first_cap else None, cfg.grid()))


@functools.cache
def shipped_run(name, first_cap=False):
    return run_config(CONFIGS / name, first_cap)


def test_step_convection_uncapped_stops_on_its_certificate():
    # its objective stops rising before iteration 100 and then alternates by
    # 8e-15 relative; run to 20000 iterations, it ends on this objective
    res = shipped_run("step_h.yaml")
    assert res.stop_reason == "kkt" and res.n_iterations <= 50
    assert res.converged and res.pg_residual <= res.config.pg_tol
    assert res.objective == pytest.approx(0.0013976394756266954, rel=1e-12, abs=0.0)


def scaled_yaml(name, scaling, j):
    """Shipped config ``name`` under one of the model's exact scalings by 2**j."""
    raw = yaml.safe_load((CONFIGS / name).read_text())
    geo, phy, con = raw["geometry"], raw["physics"], raw["constraint"]
    f = 2.0 ** j
    h = phy["h"]
    # h_r follows h through the h(l) rule, and a table h would need its values scaled
    assert isinstance(phy["h_r"], str) and "values" not in h
    if scaling == "shift":        # T_inf and T_d together: the drop is unchanged
        phy["T_inf"] += f
        phy["T_d"] += f
    elif scaling == "drop":       # T_d - T_inf
        phy["T_d"] = phy["T_inf"] + f * (phy["T_d"] - phy["T_inf"])
    else:
        # k, h and h_r by 2**j; or lengths by 2**j, with h and h_r by 2**-j
        lengths = f if scaling == "lengths" else 1.0
        if scaling == "conductances":
            phy["k"] *= f
        for key in ("value", "start", "end", "low", "high"):
            if key in h:
                h[key] *= f / lengths ** 2
        for sec, keys in ((geo, ("a0_mm", "length_mm")), (h, ("x_step_mm", "width_mm"))):
            for key in keys:
                if key in sec:
                    sec[key] *= lengths
        con["M_list_mm"] = [M * lengths for M in con.get("M_list_mm", [])]
    return raw


@pytest.mark.parametrize("j", [-20, 10])
@pytest.mark.parametrize("scaling", ["lengths", "conductances", "drop", "shift"])
@pytest.mark.parametrize("name", ["constant_h.yaml", "decreasing_h.yaml", "increasing_h.yaml",
                                  "step_h.yaml", "verify.yaml"])
def test_status_is_invariant_under_the_models_scalings(tmp_path, name, scaling, j):
    # the iterates scale exactly under these scalings, so a unit-free status
    # must not change at all, uncapped or from a capped run's bang-bang vertex
    p = tmp_path / name
    p.write_text(yaml.safe_dump(scaled_yaml(name, scaling, j)))
    b_scale = 2.0 ** j if scaling == "lengths" else 1.0
    F_scale = 1.0 if scaling == "shift" else 2.0 ** j
    for first_cap in (False, True):
        base, res = shipped_run(name, first_cap), run_config(p, first_cap)
        assert res.config.M == (base.config.M * b_scale if first_cap else None)
        assert np.array_equal(res.b_opt.density, base.b_opt.density * b_scale)
        assert res.objective == base.objective * F_scale
        assert (res.n_iterations, res.stop_reason) == (base.n_iterations, base.stop_reason)
        assert (res.converged, res.pg_residual) == (base.converged, base.pg_residual)


SWEEP_STATUS = ("converged", "pg_residual", "stop_reason", "iterations",
                "cells_between_bounds", "switch_measured_m")


@pytest.mark.parametrize("j", [-20, 10])
@pytest.mark.parametrize("name", ["constant_h.yaml", "decreasing_h.yaml", "increasing_h.yaml",
                                  "step_h.yaml", "verify.yaml"])
def test_sweep_files_are_invariant_when_k_and_h_scale(tmp_path, name, j):
    # k, h and h_r by 2**j leave beta and so every design and temperature bit
    # for bit; only the fluxes scale, exactly, by the power of two
    p = tmp_path / name
    p.write_text(yaml.safe_dump(scaled_yaml(name, "conductances", j)))
    base, scaled = tmp_path / "base", tmp_path / "scaled"
    assert main(["sweep", "--config", str(CONFIGS / name), "--out", str(base)]) == 0
    assert main(["sweep", "--config", str(p), "--out", str(scaled)]) == 0
    tables = sorted(f.name for pattern in ("b_opt*", "a_opt*", "T_opt*")
                    for f in base.glob(pattern))
    assert tables and tables == sorted(f.name for pattern in ("b_opt*", "a_opt*", "T_opt*")
                                       for f in scaled.glob(pattern))
    for table in tables:
        assert (scaled / table).read_bytes() == (base / table).read_bytes(), table
    runs = [json.loads((out / "sweep_summary.json").read_text())["runs"]
            for out in (base, scaled)]
    assert len(runs[0]) == len(runs[1]) > 0
    for mine, theirs in zip(*runs):
        # an uncapped run has no switch
        assert [theirs.get(key) for key in SWEEP_STATUS] == [mine.get(key) for key in SWEEP_STATUS]
        assert theirs["objective_W"] == mine["objective_W"] * 2.0 ** j


@pytest.mark.parametrize("name", ["constant_h.yaml", "increasing_h.yaml"])
def test_optimizer_and_public_functionals_share_one_kernel(name):
    cfg = load_config(CONFIGS / name)
    oc = OptimConfig(a0=cfg.a0, S0=cfg.S0, M=None if cfg.drop_cap else cfg.cap(),
                     grid=cfg.grid(), params=cfg.params())
    res = optimize(oc)
    a = RadiusProfile.constant(cfg.a0, oc.grid)
    T = solve_temperature(a, res.b_opt, oc.params, oc.grid)
    assert res.objective == heat_flux_relaxed(T)
    assert np.array_equal(res.temperature, T.values)


def test_optimize_evaluates_beta_once_per_run(monkeypatch):
    # the kernel evaluates beta on the grid once; constant h needs no array
    calls = []
    beta = PhysicalParams.beta
    monkeypatch.setattr(PhysicalParams, "beta",
                        lambda self, x: calls.append(x) or beta(self, x))
    for h, evaluations in [(10.0, 0), (lambda x: 20.0 - 100.0 * x, 1)]:
        calls.clear()
        res = optimize(make_cfg(h=h))
        assert res.n_iterations > 1 and len(calls) == evaluations


def test_optimizer_kkt_structure_constant_h():
    cfg = make_cfg()
    res = optimize(cfg)
    b = res.b_opt
    T = solve_temperature(RadiusProfile.constant(A0, cfg.grid), b, cfg.params,
                          cfg.grid)
    g = flux_gradient_density(T)
    tol_b = 1e-6 * (cfg.M - A0)
    upper = b.density >= cfg.M - tol_b
    lower = b.density <= A0 + tol_b
    assert upper.any() and lower.any()
    scale = float(np.max(g))
    # multiplier separates the active sets: bound cells sit on the correct side
    mu_hi = float(np.min(g[upper]))
    mu_lo = float(np.max(g[lower]))
    assert mu_hi >= mu_lo - 1e-6 * scale


def test_degenerate_budget_forces_the_floor():
    cfg = make_cfg(S0=A0 * ELL, M=25e-3)
    res = optimize(cfg)
    assert np.allclose(res.b_opt.density, A0, rtol=0, atol=1e-12)
    base = surface_supremum(A0, ELL, A0 * ELL, cfg.params)
    assert res.objective == pytest.approx(base, rel=1e-4)


def test_objective_compares_to_reference_density():
    cfg = make_cfg(n=500, M=50e-3)
    res = optimize(cfg)
    bang = bang_density(cfg.M, cfg.S0, A0, cfg.grid)
    T = solve_temperature(RadiusProfile.constant(A0, cfg.grid), bang,
                          cfg.params, cfg.grid)
    ref = heat_flux_relaxed(T)
    assert res.objective >= ref * (1 - 1e-9)


def test_optimizer_is_deterministic():
    r1 = optimize(make_cfg(n=150))
    r2 = optimize(make_cfg(n=150))
    assert np.array_equal(r1.b_opt.density, r2.b_opt.density)
    assert r1.objective == r2.objective


def test_reconstruction_attached_to_result():
    cfg = make_cfg(n=400)
    res = optimize(cfg)
    assert res.a_opt is not None
    assert np.all(res.a_opt.values >= A0 * (1 - 1e-12))
    assert float(np.max(res.a_opt.values)) > A0


def test_radius_is_reconstructed_once_on_first_read(monkeypatch):
    calls = []
    rebuild = optimizer.radius_from_density
    monkeypatch.setattr(optimizer, "radius_from_density",
                        lambda b, grid: calls.append(b) or rebuild(b, grid))
    res = optimize(make_cfg(n=400))
    assert calls == []
    first = res.a_opt
    assert res.a_opt is first and len(calls) == 1 and calls[0] is res.b_opt


def test_bang_check_runs_on_the_optimizers_kernel(monkeypatch):
    built = []
    init = FinSystem.__init__
    monkeypatch.setattr(FinSystem, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    cfg = make_cfg(n=500, M=12.5e-3)
    res = optimize(cfg)
    rep = verify_bang_structure(res)
    assert built == [res.system]
    monkeypatch.undo()
    bang = bang_density(cfg.M, cfg.S0, A0, cfg.grid)
    T = solve_temperature(RadiusProfile.constant(A0, cfg.grid), bang, cfg.params,
                          cfg.grid)
    assert rep.bang_objective == heat_flux_relaxed(T)


@pytest.mark.parametrize("M", [12.5e-3, None])
def test_excess_fraction_is_the_share_of_excess_surface(M):
    cfg = make_cfg(n=500, M=M, h=lambda x: 20.0 - 100.0 * np.asarray(x))
    res = optimize(cfg)
    xm = cfg.grid.midpoints
    exc = (res.b_opt.density - A0) * cfg.grid.dx
    for center, near in ((0.0, xm <= 0.05 * ELL),
                         (0.5 * ELL, np.abs(xm - 0.5 * ELL) <= 0.05 * ELL)):
        assert res.excess_fraction(center) == float(exc[near].sum() / exc.sum())


def test_infeasible_configurations_rejected():
    with pytest.raises(ConfigError):
        make_cfg(M=A0)                       # cap at the floor
    with pytest.raises(ConfigError):
        make_cfg(M=1.04 * A0, S0=6 * A0 * ELL)   # budget cannot fit below cap
    with pytest.raises(ConfigError):
        make_cfg(S0=0.5 * A0 * ELL)          # budget below the floor surface


def test_nondecreasing_is_relative_to_the_objective():
    # an absolute slack in W is below roundoff for a kW fin and loose for a uW one
    assert optimizer.nondecreasing(-np.inf, 1e-9)
    assert optimizer.nondecreasing(1e3, 1e3 * (1 - 1e-13))
    assert not optimizer.nondecreasing(1e3, 1e3 * (1 - 1e-9))
    assert not optimizer.nondecreasing(1e-9, 1e-9 - 1e-13)


def test_sweep_monotone_objectives():
    cfg = make_cfg(n=200, M=6.25e-3)
    results = list(sweep_M(cfg, [6.25e-3, 12.5e-3, 25e-3, 50e-3]))
    objs = [r.objective for r in results]
    assert all(o2 >= o1 * (1 - 1e-12) for o1, o2 in zip(objs, objs[1:]))
    sup = surface_supremum(A0, ELL, cfg.S0, cfg.params)
    assert all(o <= sup * 1.005 for o in objs)
    with pytest.raises(ConfigError):
        sweep_M(cfg, [12.5e-3, 6.25e-3])
    with_free = list(sweep_M(cfg, [6.25e-3, 12.5e-3], include_uncapped=True))
    assert len(with_free) == 3
    assert with_free[-1].objective >= with_free[-2].objective


def test_sweep_runs_each_cap_when_its_result_is_asked_for(monkeypatch):
    runs = []
    solve = optimizer.optimize
    monkeypatch.setattr(optimizer, "optimize", lambda cfg: runs.append(cfg.M) or solve(cfg))
    cfg = make_cfg(n=200, M=None)
    with pytest.raises(ConfigError, match="strictly increasing"):
        sweep_M(cfg, [12.5e-3, 6.25e-3])
    with pytest.raises(ConfigError, match="strictly increasing"):
        sweep_M(cfg, [6.25e-3, 6.25e-3])
    assert runs == []
    results = sweep_M(cfg, [6.25e-3, 12.5e-3], include_uncapped=True)
    assert runs == []
    first = next(results)
    assert runs == [6.25e-3] and first.config.M == 6.25e-3
    rest = list(results)
    assert runs == [6.25e-3, 12.5e-3, None]
    assert [r.config.M for r in rest] == [12.5e-3, None]
    assert rest[-1].config.M is None


def test_concentration_fraction_grows_with_the_cap():
    # decreasing convection: untightening the cap packs a growing share of
    # the excess surface into the head of the fin
    def h(x):
        return 20.0 - 100.0 * np.asarray(x)

    params = PhysicalParams(k=10.0, h=h, h_r=10.0, T_d=10.0, T_inf=0.0)
    grid = Grid(ELL, 500)
    S0 = 3 * A0 * ELL
    fracs = []
    for M in (6.25e-3, 12.5e-3, 25e-3, 50e-3):
        cfg = OptimConfig(a0=A0, S0=S0, M=M, grid=grid, params=params)
        res = optimize(cfg)
        fracs.append(res.excess_fraction(0.0))
    assert all(f2 > f1 for f1, f2 in zip(fracs, fracs[1:]))
    assert fracs[-1] >= 0.9


def test_uncapped_run_exhausts_budget():
    cfg = make_cfg(n=200, M=None)
    res = optimize(cfg)
    assert res.budget_active
    assert res.b_opt.total(cfg.grid) == pytest.approx(cfg.S0, rel=1e-9)
