"""Acceptance suite: every guaranteed behavior at its stated tolerance.

Each criterion runs the ``pinfin verify`` check that implements it and holds
the returned item to a threshold written here, so a gate loosened in
``verification.py`` fails this suite.  Conditions an item does not report on
their own (refinement ratios, bang-bang cell counts, monotone sequences) are
covered through ``passed``.  Each test prints one PASS line (run with
``pytest -s`` or ``-rA`` to see them all).
"""

from dataclasses import replace
from pathlib import Path

from pinfin import Grid, admissible_radius_bound, oscillating_radius
from pinfin import verification as v
from pinfin.config import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
N500 = replace(v.default_config(), n_cells=500)


def accept(num, item, tol, at_most=True):
    print(f"ACCEPTANCE {num:>2}: {item.name} {item.measured:.3e} "
          f"({'<=' if at_most else '>='} {tol:g}) - {item.detail}")
    assert item.passed and not item.skipped, item
    assert item.tolerance == tol
    assert item.measured <= tol if at_most else item.measured >= tol


def test_criterion_1_closed_form_agreement():
    # the ladder never runs coarser than verify.yaml's 4096 cells, so a
    # plot-scale config and grids too small to halve three times pass too,
    # and a finer configured grid is kept
    verify_cfg = load_config(CONFIGS / "verify.yaml")
    cases = [(v.default_config(), 4096), (load_config(CONFIGS / "constant_h.yaml"), 4096)]
    cases += [(replace(verify_cfg, n_cells=n), max(n, 4096)) for n in (2, 3, 8, 12, 8192)]
    for cfg, n in cases:
        item = v.check_closed_form(cfg)
        accept(1, item, 1e-6)
        assert item.detail.startswith(f"rel Linf at n={n}: "), item.detail


def test_criterion_2_flux_identity():
    accept(2, v.check_flux_identity(N500, 2024), 1e-10)


def test_criterion_3_temperature_bounds():
    accept(3, v.check_temperature_bounds(N500, 30), 1e-9)   # 1e-10 dT


def test_criterion_4_surface_supremum_convergence():
    accept(4, v.check_supremum_convergence(), 1e-2)


def test_criterion_5_volume_problem_unbounded():
    accept(5, v.check_volume_unbounded(), 0.98, at_most=False)


def test_criterion_6_gradient_correctness():
    accept(6, v.check_gradient(v.default_config(), 64), 1e-4)
    accept(6, v.check_swap_derivative(), 1e-3)


def test_criterion_7_bang_bang_structure():
    accept(7, v.check_bang_structure(v.default_config()), 1e-3)


def test_criterion_8_sweep_monotone_toward_supremum():
    accept(8, v.check_sweep_monotone(v.default_config()), 0.05)


def test_criterion_9_qualitative_figures():
    for name, tol, at_most in (("decreasing_h", 0.9, False),
                               ("step_h", 0.8, False),
                               ("increasing_h", 3.0, True)):
        item = v.check_concentration(load_config(CONFIGS / f"{name}.yaml"))
        accept(9, item, tol, at_most)


def test_criterion_10_admissible_radius_bound():
    item = v.check_surface_bound(replace(v.default_config(), n_cells=1024), 7)
    accept(10, item, 1 + 1e-9)
    assert int(item.detail.split()[-2]) >= 10    # "..., <count> profiles"
    # a geometry with room for many oscillations, beyond the verify item's
    grid, s0 = Grid(1.0, 8192), 6 * 0.05 * 1.0
    for m in (8, 16, 32):
        prof = oscillating_radius(grid.nodes, s0, m, 0.05, 1.0)
        assert float(prof.max()) <= admissible_radius_bound(s0, 1.0) * (1 + 1e-9)
