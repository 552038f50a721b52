"""Command-line entry points.

Subcommands
-----------
solve     : solve the temperature equation for the configured radius profile;
            writes temperature.csv, profile.csv and flux_report.json.
optimize  : maximize the relaxed flux for a single cap (or uncapped); writes
            b_opt.csv, a_opt.csv, T_opt.csv, objective_trace.csv and
            structure_report.json.
sweep     : one optimization per cap in the configured M list (plus an
            uncapped run when requested); per-cap files and sweep_summary.json.
verify    : run the verification suite and write verify_report.json.
sequence  : emit oscillating / bang profiles without solving.

Exit codes: 0 success, 1 configuration or usage error, 2 verification failure,
3 numerical failure.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, cap_tag, load_config
from .errors import ConfigError, NumericalError
from .functionals import flux_report, surface_supremum
from .io import format_column, write_json, write_table
from .optimizer import (OptimResult, nondecreasing, optimize, sweep_M,
                        verify_bang_structure)
from .profiles import enforce_surface_bound
from .sequences import bang_density, switch_point
from .solver import solve_temperature
from .verification import default_config, run_verification


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a usage error is a configuration error: exit code 1
        raise ConfigError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="pinfin", description="Axisymmetric fin model and shape optimizer")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("solve", "optimize", "sweep", "verify", "sequence"):
        # a flag left out keeps the config's value
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", type=Path, default=None,
                        required=name not in ("verify",),
                        help="YAML experiment configuration")
        sp.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (created if missing)")
        sp.add_argument("--n-cells", type=int, dest="n_cells",
                        help="override numerics.n_cells")
        if name == "verify":
            sp.add_argument("--seed", type=int, help="seed of verify's random profiles")
        else:
            sp.add_argument("--format", choices=("csv", "json"), dest="out_format",
                            help="override output.format for tabular files")
    return p


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    overrides = {k: v for k, v in vars(args).items() if k in ("n_cells", "out_format", "seed")}
    # replace() re-runs the config's own checks on the overridden values
    return replace(cfg, **overrides)


def cmd_solve(cfg: ExperimentConfig, out: Path) -> int:
    grid = cfg.grid()
    params = cfg.params()
    a, b = cfg.design(grid)
    if cfg.S0 is not None:
        enforce_surface_bound(a, cfg.S0)
    T = solve_temperature(a, b, params, grid)
    rep = flux_report(T)
    fmt = cfg.out_format
    x = format_column(grid.nodes)
    write_table(out / "temperature.csv", ["x_m", "T_C"], [x, T.values], fmt=fmt)
    write_table(out / "profile.csv", ["x_m", "a_m", "b_m"],
                [x, a.values, b.density],
                comment="b_m is the cell density on [x_i, x_{i+1}); "
                        "last row padded with nan", fmt=fmt)
    write_json(out / "flux_report.json", {
        "F_boundary_W": rep.boundary,
        "F_integral_W": rep.integral,
        "relative_gap": rep.relative_gap,
    })
    return 0


def _write_optim(cfg: ExperimentConfig, res: OptimResult, out: Path,
                 x: list[str], x_mid: list[str], suffix: str = "") -> dict:
    oc, fmt = res.config, cfg.out_format
    write_table(out / f"b_opt{suffix}.csv", ["x_mid_m", "b_m"],
                [x_mid, res.b_opt.density], fmt=fmt)
    write_table(out / f"a_opt{suffix}.csv", ["x_m", "a_m"],
                [x, res.a_opt.values], fmt=fmt)
    write_table(out / f"T_opt{suffix}.csv", ["x_m", "T_C"],
                [x, res.temperature], fmt=fmt)
    write_table(out / f"objective_trace{suffix}.csv", ["iteration", "objective_W"],
                [np.arange(res.trace.size, dtype=float), res.trace], fmt=fmt)
    report = {
        "objective_W": res.objective,
        "converged": bool(res.converged),
        "pg_residual": res.pg_residual,
        "stop_reason": res.stop_reason,
        "iterations": int(res.n_iterations),
        "budget_active": bool(res.budget_active),
        "cells_between_bounds": res.cells_between_bounds,
        "cap_M_m": oc.M,
    }
    if np.any(res.b_opt.density > oc.a0):   # b >= a0, so then the excess is positive
        report["excess_fraction_first_5pct"] = res.excess_fraction(0.0)
        if cfg.h_profile.kind == "step":
            report["excess_fraction_near_step"] = res.excess_fraction(cfg.h_profile.x_step)
    if oc.M is not None:
        bang = verify_bang_structure(res)
        report.update({
            "switch_measured_m": res.switch_estimate,
            "switch_expected_m": bang.switch_expected,
            "switch_error_cells": bang.switch_error_cells,
            "bang_objective_W": bang.bang_objective,
            "objective_relative_gap": bang.objective_relative_gap,
        })
    write_json(out / f"structure_report{suffix}.json", report)
    return report


def cmd_optimize(cfg: ExperimentConfig, out: Path) -> int:
    grid = cfg.grid()
    M = None if cfg.drop_cap else cfg.cap()
    if M is None and not cfg.drop_cap:
        raise ConfigError("constraint: need M_list_mm, or drop_cap: true")
    _write_optim(cfg, optimize(cfg.optim_config(M, grid)), out,
                 format_column(grid.nodes), format_column(grid.midpoints))
    return 0


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    if not cfg.M_list:
        raise ConfigError("constraint.M_list_mm is required for sweep")
    tags = [cap_tag(M) for M in cfg.M_list]
    base = cfg.optim_config(None, cfg.grid())
    x, x_mid = format_column(base.grid.nodes), format_column(base.grid.midpoints)
    summaries = []
    prev = -np.inf
    runs = sweep_M(base, cfg.M_list, include_uncapped=cfg.drop_cap)
    for tag in tags + ["_uncapped"] * cfg.drop_cap:
        # no name holds a written result, so it is freed before the next run solves
        rep = _write_optim(cfg, next(runs), out, x, x_mid, suffix=tag)
        rep["nondecreasing_vs_previous"] = nondecreasing(prev, rep["objective_W"])
        prev = rep["objective_W"]
        summaries.append(rep)
    summary = {"runs": summaries}
    if cfg.h_profile.is_constant and cfg.S0 is not None:
        summary["surface_supremum_W"] = surface_supremum(
            cfg.a0, cfg.length, cfg.S0, cfg.params())
    write_json(out / "sweep_summary.json", summary)
    return 0


def cmd_sequence(cfg: ExperimentConfig, out: Path) -> int:
    grid = cfg.grid()
    fmt = cfg.out_format
    if cfg.profile_kind == "oscillating":
        a, b = cfg.design(grid)
        write_table(out / "profile.csv", ["x_m", "a_m", "b_m"],
                    [grid.nodes, a.values, b.density],
                    comment="oscillating profile with its exact step density",
                    fmt=fmt)
        return 0
    M = cfg.cap()
    if M is not None:
        S0 = cfg.surface_budget()
        b = bang_density(M, S0, cfg.a0, grid)
        xM = format_column([switch_point(M, S0, cfg.a0, grid.length)])[0]
        write_table(out / "bang_density.csv", ["x_mid_m", "b_m"],
                    [grid.midpoints, b.density], comment=f"switch at x={xM} m", fmt=fmt)
        return 0
    raise ConfigError("sequence: need profile.kind=oscillating or a cap M")


def cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    report = run_verification(cfg, seed=cfg.seed)
    write_json(out / "verify_report.json", report)
    for item in report["items"]:
        status = "SKIP" if item["skipped"] else ("PASS" if item["passed"] else "FAIL")
        print(f"[{status}] {item['name']}: {item['detail']}")
    if not report["all_passed"]:
        print("verification FAILED")
        return 2
    print("verification passed")
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = _load(args)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out}: {exc}")
        handler = {
            "solve": cmd_solve,
            "optimize": cmd_optimize,
            "sweep": cmd_sweep,
            "sequence": cmd_sequence,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
