import json
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from pinfin import Grid, step_density
from pinfin import config
from pinfin.cli import main
from pinfin.config import load_config
from pinfin.errors import ConfigError
from pinfin.io import format_column, write_table
from pinfin.solver import FinSystem
from pinfin.verification import (check_concentration, check_generalized_supremum,
                                 check_swap_derivative, default_config)
from table_io import read_table

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, **overrides):
    cfg = {
        "geometry": {"a0_mm": 1.0, "length_mm": 100.0},
        "physics": {"k": 10.0, "h": {"kind": "constant", "value": 10.0},
                    "h_r": "h(l)", "T_d": 10.0, "T_inf": 0.0},
        "constraint": {"kind": "surface", "S0_times_a0_length": 6.0,
                       "M_list_mm": [25.0]},
        "profile": {"kind": "constant"},
        "numerics": {"n_cells": 200},
        "output": {"format": "csv"},
    }
    for key, val in overrides.items():
        cfg[key] = val
    p = tmp_path / "config.yaml"
    p.write_text(yaml.safe_dump(cfg))
    return p


# ------------------------------------------------------------------ config

def test_config_parsing_and_units(tmp_path):
    p = write_cfg(tmp_path)
    cfg = load_config(p)
    assert cfg.a0 == pytest.approx(1e-3)
    assert cfg.length == pytest.approx(0.1)
    assert cfg.S0 == pytest.approx(6e-4)
    assert cfg.cap() == pytest.approx(25e-3)
    assert cfg.h_r == 10.0   # h(l) rule


def test_config_h_kinds(tmp_path):
    p = write_cfg(tmp_path, physics={
        "k": 10.0, "h": {"kind": "affine", "start": 20.0, "end": 10.0},
        "h_r": "h(l)", "T_d": 10.0, "T_inf": 0.0})
    cfg = load_config(p)
    assert cfg.h_r == pytest.approx(10.0)
    h = cfg.h_profile(np.array([0.0, 0.05, 0.1]))
    assert h == pytest.approx([20.0, 15.0, 10.0])

    p = write_cfg(tmp_path, physics={
        "k": 10.0, "h": {"kind": "table", "x_mm": [0, 50, 100],
                         "values": [5.0, 7.0, 11.0]},
        "h_r": 3.0, "T_d": 10.0, "T_inf": 0.0})
    cfg = load_config(p)
    assert cfg.h_r == 3.0
    assert cfg.h_profile(np.array([0.025]))[0] == pytest.approx(6.0)


def test_config_errors_name_the_field(tmp_path):
    p = write_cfg(tmp_path, geometry={"a0_mm": 1.0})
    with pytest.raises(ConfigError, match="length_mm"):
        load_config(p)
    p = write_cfg(tmp_path, physics={"k": 10.0, "h": {"kind": "wavy"},
                                     "T_d": 10.0, "T_inf": 0.0})
    with pytest.raises(ConfigError, match="physics.h.kind"):
        load_config(p)


@pytest.mark.parametrize("spelling, value", [
    ("1e-3", 1e-3), ("6e0", 6.0), ("1.0e5", 1e5), ("2E+1", 20.0)])
def test_config_reads_yaml_1_2_floats(tmp_path, spelling, value):
    # PyYAML's YAML 1.1 resolver loads each of these spellings as a string
    p = write_cfg(tmp_path)
    p.write_text(p.read_text().replace("  k: 10.0\n", f"  k: {spelling}\n"))
    assert load_config(p).k == value


def test_config_rejects_a_quoted_number(tmp_path):
    p = write_cfg(tmp_path)
    p.write_text(p.read_text().replace("S0_times_a0_length: 6.0",
                                       'S0_times_a0_length: "1e-3"'))
    with pytest.raises(ConfigError, match="expected a number, got '1e-3'"):
        load_config(p)


def python_loader():
    """The config loader's resolvers on PyYAML's pure-Python SafeLoader."""
    return type("PythonLoader", (yaml.SafeLoader,),
                {"yaml_implicit_resolvers": config._ConfigLoader.yaml_implicit_resolvers})


def test_config_parses_with_libyaml_where_pyyaml_ships_it():
    assert issubclass(config._ConfigLoader, yaml.SafeLoader) != yaml.__with_libyaml__
    assert issubclass(config._ConfigLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader))


@pytest.mark.parametrize("source", ["constant_h", "decreasing_h", "step_h", "increasing_h",
                                    "verify", "README", "1.2-floats"])
def test_both_yaml_loaders_load_every_config_alike(tmp_path, monkeypatch, source):
    if source == "README":
        readme = (CONFIGS.parent / "README.md").read_text()
        text = re.search(r"## Configuration.*?```yaml\n(.*?)```", readme, re.S).group(1)
    elif source == "1.2-floats":
        text = write_cfg(tmp_path, physics={"k": "1e1", "h": "1.0e1", "h_r": "2E+1",
                                            "T_d": "1e+1", "T_inf": "0e0"}).read_text()
        text = text.replace("'", "")   # safe_dump quoted the spellings it would not read back
    else:
        text = (CONFIGS / f"{source}.yaml").read_text()
    p = tmp_path / "c.yaml"
    p.write_text(text)
    fast, raw = load_config(p), yaml.load(text, Loader=config._ConfigLoader)
    monkeypatch.setattr(config, "_ConfigLoader", python_loader())
    assert repr(yaml.load(text, Loader=config._ConfigLoader)) == repr(raw)
    slow = load_config(p)
    assert {**vars(slow), "h_profile": vars(slow.h_profile)} == \
        {**vars(fast), "h_profile": vars(fast.h_profile)}
    if source == "1.2-floats":
        assert (fast.k, fast.h_r, fast.T_d, fast.T_inf) == (10.0, 20.0, 10.0, 0.0)


@pytest.mark.parametrize("loader", ["configured", "python"])
def test_malformed_yaml_exits_1_under_both_loaders(tmp_path, monkeypatch, capsys, loader):
    if loader == "python":
        monkeypatch.setattr(config, "_ConfigLoader", python_loader())
    p = tmp_path / "bad.yaml"
    p.write_text("geometry: {a0_mm: 1.0, length_mm: 100.0\nphysics: [k\n")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "YAML parse error" in err


# ------------------------------------------------------------------ solve

def test_solve_outputs_and_roundtrip(tmp_path):
    p = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
    temp = read_table(out / "temperature.csv")
    assert temp["T_C"][0] == 10.0
    assert np.all(np.diff(temp["T_C"]) <= 1e-12)
    prof = read_table(out / "profile.csv")
    assert np.array_equal(prof["a_m"], np.full(201, 1e-3))
    assert prof["b_m"].size == 200    # nan pad row dropped on read
    rep = json.loads((out / "flux_report.json").read_text())
    assert rep["relative_gap"] <= 1e-10
    assert rep["schema_version"] == 1


def test_profile_roundtrip_is_bit_exact(tmp_path):
    # 17-significant-digit serialization reproduces the float64 values
    p = write_cfg(tmp_path, profile={"kind": "cone", "tip_mm": 2.37},
                  numerics={"n_cells": 173})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
    cfg = load_config(p)
    grid = cfg.grid()
    original, _ = cfg.design(grid)
    back = read_table(out / "profile.csv")["a_m"]
    assert np.array_equal(back, original.values)
    from pinfin import RadiusProfile
    reingested = RadiusProfile(back, cfg.a0, cfg.length)
    assert np.array_equal(reingested.values, original.values)


def test_write_table_bytes(tmp_path):
    # 17 significant digits round-trip every float64; short columns pad with nan
    path = tmp_path / "t.csv"
    write_table(path, ["x", "y"],
                [np.array([0.1, -0.0, np.inf, 1.0 / 3.0]), np.array([2.5, -6.02214076e23])],
                comment="c")
    assert path.read_bytes() == (b"# c\nx,y\n0.10000000000000001,2.5\n"
                                 b"-0,-6.0221407599999999e+23\ninf,nan\n"
                                 b"0.33333333333333331,nan\n")
    assert np.array_equal(read_table(path)["x"], [0.1, -0.0, np.inf, 1.0 / 3.0])
    # columns of few runs of bit-identical values print the same bytes as
    # every cell formatted on its own; 0.0 and -0.0 are different runs
    nan = np.nan
    cols = {
        "x": format_column(np.linspace(0.0, 0.1, 8)),
        "two_level": np.array([1 / 3] * 5 + [0.1] * 3),
        "a0_tail": np.array([1.2e-3, 1.1e-3] + [1e-3] * 6),
        "signed_zero": np.array([0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0, -0.0]),
        "nan_run": np.array([nan] * 4 + [1.5] * 4),
        "single": np.full(8, 7.0),
        "short": np.array([2.5, 2.5, 2.5]),
        "distinct": np.arange(8) / 7.0,
    }
    write_table(path, list(cols), list(cols.values()))
    padded = [list(c) + [nan] * (8 - len(c)) for c in cols.values()]
    rows = [",".join(c[i] if isinstance(c[i], str) else "%.17g" % c[i] for c in padded)
            for i in range(8)]
    assert path.read_text() == "\n".join([",".join(cols)] + rows) + "\n"


def test_write_table_takes_preformatted_columns(tmp_path):
    # a column formatted once by format_column prints the same bytes as the
    # floats it came from, in csv and json, padded with nan when short
    x = np.array([0.1, -0.0, np.inf, 1.0 / 3.0])
    y = np.array([2.5, -6.02214076e23, 7.0, np.nextafter(1.0, 2.0), -np.inf])
    assert format_column(x) == ["0.10000000000000001", "-0", "inf",
                                "0.33333333333333331"]
    for fmt in ("csv", "json"):     # json writes text.json and floats.json
        write_table(tmp_path / "text.csv", ["x", "y"], [format_column(x), y],
                    comment="c", fmt=fmt)
        write_table(tmp_path / "floats.csv", ["x", "y"], [x, y], comment="c", fmt=fmt)
        assert ((tmp_path / f"text.{fmt}").read_bytes()
                == (tmp_path / f"floats.{fmt}").read_bytes())
    assert (tmp_path / "text.csv").read_bytes() == (
        b"# c\nx,y\n0.10000000000000001,2.5\n-0,-6.0221407599999999e+23\n"
        b"inf,7\n0.33333333333333331,1.0000000000000002\nnan,-inf\n")
    payload = json.loads((tmp_path / "text.json").read_text())
    assert np.array_equal(payload["x"], x)
    assert np.signbit(payload["x"][1])
    assert np.array_equal(payload["y"], y)


def test_outputs_are_deterministic(tmp_path):
    p = write_cfg(tmp_path, constraint={
        "kind": "surface", "S0_times_a0_length": 6.0,
        "M_list_mm": [12.5, 50.0], "drop_cap": True})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        for command in ("solve", "optimize", "sweep"):
            assert main([command, "--config", str(p), "--out", str(out)]) == 0
    names = sorted(f.name for f in out1.iterdir())
    for stem in ("a_opt", "b_opt", "T_opt", "objective_trace"):
        assert {f"{stem}{tag}.csv" for tag in ("", "_M12.5mm", "_M50mm",
                                               "_uncapped")} <= set(names)
    for tag in ("", "_M12.5mm", "_M50mm", "_uncapped"):
        assert f"structure_report{tag}.json" in names
    assert {"temperature.csv", "profile.csv", "flux_report.json",
            "sweep_summary.json"} <= set(names)
    assert names == sorted(f.name for f in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_solve_zero_gap_config(tmp_path):
    p = write_cfg(tmp_path, physics={
        "k": 10.0, "h": {"kind": "constant", "value": 10.0}, "h_r": "h(l)",
        "T_d": 5.0, "T_inf": 5.0})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
    temp = read_table(out / "temperature.csv")
    assert np.all(temp["T_C"] == 5.0)
    rep = json.loads((out / "flux_report.json").read_text())
    assert rep["F_boundary_W"] == 0.0


def test_solve_oscillating_profile_flux_near_relaxed_limit(tmp_path):
    # m = 64 oscillations: the computed flux sits within 2% of the
    # concentration limit for this shallow configuration; no cap, as any
    # cap must exceed its 200 mm floor
    p = write_cfg(tmp_path,
                  geometry={"a0_mm": 200.0, "length_mm": 1000.0},
                  physics={"k": 10.0, "h": {"kind": "constant", "value": 0.1},
                           "h_r": "h(l)", "T_d": 10.0, "T_inf": 0.0},
                  constraint={"kind": "surface", "S0_times_a0_length": 6.0},
                  profile={"kind": "oscillating", "S_times_a0_length": 1.5,
                           "m": 64},
                  numerics={"n_cells": 8192})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "flux_report.json").read_text())
    cfg = load_config(p)
    from pinfin import surface_supremum
    sup = surface_supremum(cfg.a0, cfg.length, 1.5 * cfg.a0 * cfg.length,
                           cfg.params())
    assert rep["F_integral_W"] == pytest.approx(sup, rel=0.02)


# --------------------------------------------------------------- optimize

def test_optimize_and_sweep_outputs(tmp_path):
    p = write_cfg(tmp_path, constraint={
        "kind": "surface", "S0_times_a0_length": 6.0,
        "M_list_mm": [12.5, 50.0]})
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "structure_report.json").read_text())
    assert rep["cells_between_bounds"] <= 1
    assert rep["switch_error_cells"] <= 1.0
    assert rep["objective_relative_gap"] <= 1e-3
    assert rep["converged"] and rep["pg_residual"] <= 1e-9
    assert rep["stop_reason"] in {"kkt", "line_search", "max_iters"}
    for name in ("b_opt.csv", "a_opt.csv", "T_opt.csv", "objective_trace.csv"):
        assert (out / name).exists()
    trace = read_table(out / "objective_trace.csv")["objective_W"]
    assert np.all(np.diff(trace) >= -1e-12 * abs(trace[-1]))

    out2 = tmp_path / "sweep"
    assert main(["sweep", "--config", str(p), "--out", str(out2)]) == 0
    summary = json.loads((out2 / "sweep_summary.json").read_text())
    assert len(summary["runs"]) == 2
    assert all(r["nondecreasing_vs_previous"] for r in summary["runs"])
    assert "surface_supremum_W" in summary


@pytest.mark.parametrize("name, drop_cap", [("step_h", False), ("constant_h", False),
                                            ("step_h", True)])
def test_structure_report_counts_match_the_written_optimum(tmp_path, name, drop_cap):
    # references recomputed from b_opt.csv, whose 17 digits read back bit for bit
    raw = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    raw["constraint"]["drop_cap"] = drop_cap
    p = tmp_path / f"{name}.yaml"
    p.write_text(yaml.safe_dump(raw))
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "structure_report.json").read_text())
    cfg = load_config(p)
    b, a0, M = read_table(out / "b_opt.csv")["b_m"], cfg.a0, rep["cap_M_m"]
    assert (M is None) == drop_cap
    # three labels: floor cells, then cap cells written over them, the rest free
    tol_b = 1e-6 * (max(float(np.max(b)) - a0, a0) if M is None else M - a0)
    labels = np.full(b.size, "free")
    labels[b <= a0 + tol_b] = "lower"
    if M is not None:
        labels[b >= M - tol_b] = "upper"
    assert rep["cells_between_bounds"] == int(np.sum(labels == "free"))
    xm = cfg.grid().midpoints
    exc = (b - a0) * cfg.grid().dx
    head = xm <= 0.05 * cfg.length
    assert rep["excess_fraction_first_5pct"] == float(exc[head].sum() / exc.sum())
    if name == "step_h":
        near = np.abs(xm - cfg.h_profile.x_step) <= 0.05 * cfg.length
        assert rep["excess_fraction_near_step"] == float(exc[near].sum() / exc.sum())
    else:
        assert "excess_fraction_near_step" not in rep


def test_every_command_rejects_caps_whose_files_share_a_name(tmp_path, capsys):
    # "_M%gmm" keeps 6 significant digits: the first cap's sweep files would
    # be overwritten by the second's, so the config is refused at load
    p = write_cfg(tmp_path, constraint={
        "kind": "surface", "S0_times_a0_length": 6.0,
        "M_list_mm": [12.5, 6.25, 6.2500001]})
    assert_every_command_refuses(
        tmp_path, capsys, p, "caps 6.25 and 6.2500001 mm would both write files "
                             "tagged _M6.25mm; make them differ")


def test_optimize_rejects_infeasible_cap(tmp_path):
    p = write_cfg(tmp_path, constraint={
        "kind": "surface", "S0_times_a0_length": 6.0, "M_list_mm": [1.04]})
    assert main(["optimize", "--config", str(p), "--out", str(tmp_path / "x")]) == 1


# --------------------------------------------------------------- sequence

def test_sequence_emits_profiles(tmp_path):
    p = write_cfg(tmp_path,
                  profile={"kind": "oscillating", "S_times_a0_length": 2.0,
                           "m": 16},
                  numerics={"n_cells": 2048})
    out = tmp_path / "seq"
    assert main(["sequence", "--config", str(p), "--out", str(out)]) == 0
    prof = read_table(out / "profile.csv")
    assert prof["a_m"][0] == pytest.approx(1e-3)
    assert prof["a_m"].max() > 1e-3

    p2 = write_cfg(tmp_path)
    out2 = tmp_path / "seq2"
    assert main(["sequence", "--config", str(p2), "--out", str(out2)]) == 0
    dens = read_table(out2 / "bang_density.csv")["b_m"]
    assert dens.max() == pytest.approx(25e-3, rel=1e-12)

    # m = 64 on 256 cells leaves 0.3 cells per half-period: the sampled radius
    # is undersampled, its density is still the exact step density
    p3 = write_cfg(tmp_path,
                   profile={"kind": "oscillating", "S_times_a0_length": 2.0,
                            "m": 64},
                   numerics={"n_cells": 256})
    out3 = tmp_path / "seq3"
    assert main(["sequence", "--config", str(p3), "--out", str(out3)]) == 0
    cfg = load_config(p3)
    exact = step_density(2.0 * cfg.a0 * cfg.length, 64, cfg.a0, cfg.grid())
    assert np.array_equal(read_table(out3 / "profile.csv")["b_m"], exact.density)


# ------------------------------------------------------------------ errors

def test_json_output_format(tmp_path):
    p = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads((out / "temperature.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["T_C"][0] == 10.0
    assert len(payload["x_m"]) == 201


def test_missing_config_returns_config_error_code(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("case", ["config_is_a_directory", "config_not_utf8", "out_is_a_file",
                                  "out_under_a_file", "n_cells_in_config", "n_cells_flag"])
def test_bad_outside_input_is_one_config_error_line(tmp_path, capsys, case):
    # numpy refuses the 7 PiB grid of 10**15 cells at once, so nothing is allocated
    config, out = write_cfg(tmp_path), tmp_path / "o"
    (tmp_path / "file").write_text("kept")
    extra = []
    if case == "config_is_a_directory":
        config = tmp_path / "dir.yaml"
        config.mkdir()
    elif case == "config_not_utf8":
        config.write_bytes(config.read_bytes() + b"# \xff\xfe\n")
    elif case in ("out_is_a_file", "out_under_a_file"):
        out = tmp_path / "file" / ("sub" if case == "out_under_a_file" else "")
    elif case == "n_cells_in_config":
        config = write_cfg(tmp_path, numerics={"n_cells": 10 ** 15})
    else:
        extra = ["--n-cells", str(10 ** 15)]
    before = sorted(tmp_path.rglob("*"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--config", str(config), "--out", str(out), *extra])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("config error: ") and len(captured.err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize("section, key, value", [
    ("numerics", "n_cells", "abc"),
    ("numerics", "n_cells", 4096.7),
    ("numerics", "n_cells", True),
    ("numerics", "max_iters", 100.5),
    ("numerics", "seed", "3"),
    ("profile", "m", 8.5),
    ("constraint", "drop_cap", "false"),
    ("constraint", "drop_cap", 0),
])
def test_config_rejects_non_integral_and_non_boolean_values(tmp_path, section,
                                                           key, value):
    # every section, profile.m included, is checked when the config is built
    sections = {
        "numerics": {"n_cells": 200},
        "profile": {"kind": "oscillating", "S_times_a0_length": 3.0, "m": 8},
        "constraint": {"kind": "surface", "S0_times_a0_length": 6.0,
                       "M_list_mm": [25.0]},
    }
    sections[section][key] = value
    p = write_cfg(tmp_path, **{section: sections[section]})
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config(p).design(Grid(0.1, 64))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 1


NAN, INF = float("nan"), float("inf")
PHYSICS = {"k": 10.0, "h": 10.0, "h_r": "h(l)", "T_d": 10.0, "T_inf": 0.0}
CONSTRAINT = {"kind": "surface", "S0_times_a0_length": 6.0, "M_list_mm": [12.5, 25.0]}


@pytest.mark.parametrize("section, spec, message", [
    ("physics", {"k": -5.0}, "conductivity k must be positive"),
    ("physics", {"T_d": 0.0, "T_inf": 10.0}, "T_d=0.0 must not be below T_inf"),
    ("physics", {"h": {"kind": "affine", "start": 20.0, "end": NAN}},
     "physics.h.end: expected a finite number, got nan"),
    ("physics", {"h": {"kind": "affine", "start": 0.0, "end": 10.0}},
     "physics.h.start must be >= 1e-12"),
    ("physics", {"h": {"kind": "step", "low": 0.01, "high": 2.0,
                       "x_step_mm": 50.0, "width_mm": 0.0}}, "width_mm be positive"),
    ("physics", {"h": {"kind": "table", "x_mm": [0.0, 100.0], "values": [5.0, "abc"]}},
     "physics.h.values: expected a number, got 'abc'"),
    ("physics", {"h": {"kind": "table", "x_mm": 5, "values": 1}},
     "physics.h.x_mm: expected a list of numbers, got 5"),
    ("constraint", {"M_list_mm": [12.5, INF]},
     "constraint.M_list_mm: expected a finite number, got inf"),
    ("constraint", {"M_list_mm": NAN}, "constraint.M_list_mm: expected a list of numbers, got nan"),
    ("constraint", {"M_list_mm": [NAN]}, "constraint.M_list_mm: expected a finite number"),
    ("constraint", {"S0_times_a0_length": NAN},
     "constraint.S0_times_a0_length: expected a finite number"),
    ("profile", {"kind": "bogus"}, "profile.kind 'bogus' not one of"),
    ("profile", {"kind": "table", "x_mm": [0.0, 60.0, 50.0, 100.0],
                 "a_mm": [1.0, 2.0, 2.0, 1.0]}, "profile.x_mm must be strictly increasing"),
    ("profile", {"kind": "table", "x_mm": [0.0, 100.0], "a_mm": [1.0, 0.5]},
     "profile.a_mm must be at least a0"),
    ("geometry", 5, "geometry: expected a mapping, got 5"),
    ("physics", 7, "physics: expected a mapping, got 7"),
    ("constraint", [1], "constraint: expected a mapping, got [1]"),
    ("profile", 3, "profile: expected a mapping, got 3"),
    ("numerics", [1], "numerics: expected a mapping, got [1]"),
    ("output", "x", "output: expected a mapping, got 'x'"),
    # only a null section reads as empty
    ("numerics", 0, "numerics: expected a mapping, got 0"),
    ("output", False, "output: expected a mapping, got False"),
    ("profile", [], "profile: expected a mapping, got []"),
    ("constraint", "", "constraint: expected a mapping, got ''"),
    ("constraint", {"M_list_mm": [25.0, 12.5, 25.0]},
     "constraint.M_list_mm: cap 25 mm is repeated"),
    # single-cap runs read only the largest cap, sweep and verify read them all
    ("constraint", {"M_list_mm": [0.5, 50.0]}, "cap M=0.0005 must exceed the floor a0=0.001"),
    ("constraint", {"M_list_mm": [1.2, 50.0]},
     "infeasible cap M=0.0012: the budget S0=0.0006000000000000001 does not fit"),
    # a misspelled section would otherwise leave its defaults in force
    ("numeric", {"n_cells": 64}, "unknown top-level key(s) ['numeric']"),
    # a key no command reads, or a value given twice, would otherwise be dropped
    ("numerics", {"n_cell": 64}, "numerics: unknown key(s) ['n_cell']"),
    ("physics", {"h": {"kind": "step", "low": 0.01, "high": 2.0, "x_step_mm": 50.0,
                       "widht_mm": 10.0}}, "physics.h: unknown key(s) ['widht_mm']"),
    ("physics", {"h": {"kind": "constant", "value": 10.0, "end": 5.0}},
     "physics.h: unknown key(s) ['end']"),
    # a second spelling of a quantity is no key at all
    ("constraint", {"S0_mm2": 600.0}, "constraint: unknown key(s) ['S0_mm2']"),
    ("constraint", {"kind": "volume"},
     "constraint: unknown key(s) ['M_list_mm', 'S0_times_a0_length']"),
    ("constraint", {"V0_mm3": 5.0}, "constraint: unknown key(s) ['V0_mm3']"),
    ("profile", {"kind": "cone", "tip_mm": 2.0, "m": 3}, "profile: unknown key(s) ['m']"),
    ("profile", {"kind": "oscillating", "S_mm2": 200.0, "S_times_a0_length": 1.5, "m": 16},
     "profile: unknown key(s) ['S_mm2']"),
], ids=["k_negative", "T_d_below_T_inf", "h_end_nan", "h_below_floor", "step_width_zero",
        "h_table_text", "h_table_scalars", "M_inf", "M_nan", "M_list_nan", "S0_nan",
        "profile_kind_bogus", "profile_x_decreasing", "profile_a_below_a0",
        "geometry_scalar", "physics_scalar", "constraint_list", "profile_scalar",
        "numerics_list", "output_text", "numerics_zero", "output_false",
        "profile_empty_list", "constraint_empty_text", "M_list_repeated",
        "cap_below_a0", "cap_infeasible",
        "unknown_section", "numerics_key_typo", "h_step_key_typo", "h_constant_with_end",
        "both_S0_spellings", "volume_with_surface_budget", "V0_key", "cone_with_m",
        "both_S_spellings"])
def test_malformed_config_stops_every_command_at_load(tmp_path, capsys, section, spec,
                                                      message):
    # a bad section stops every command at load, including commands that never read it
    sections = {"physics": dict(PHYSICS), "constraint": dict(CONSTRAINT),
                "profile": {"kind": "constant"}}
    if isinstance(spec, dict):
        sections.setdefault(section, {}).update(spec)
    else:                       # the whole section is not a mapping
        sections[section] = spec
    assert_every_command_refuses(tmp_path, capsys, write_cfg(tmp_path, **sections), message)


@pytest.mark.parametrize("cap", [{"M_list_mm": [25.0]}, {"M_list_mm": [12.5, 25.0]},
                                 {"drop_cap": True}], ids=["M", "M_list", "drop_cap"])
def test_volume_budget_takes_no_caps(tmp_path, capsys, cap):
    # no command reads a cap under a volume budget, so one given there is an error
    p = write_cfg(tmp_path, constraint={"kind": "volume", **cap})
    assert_every_command_refuses(tmp_path, capsys, p, f"constraint: unknown key(s) {list(cap)}")


def assert_every_command_refuses(tmp_path, capsys, p, message):
    for command in ("solve", "optimize", "sweep", "sequence", "verify"):
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(p), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, command
        assert err.startswith("config error: ") and len(err.splitlines()) == 1, err
        assert message in err, err
        assert not out.exists() or not list(out.iterdir()), command


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--config", "CFG", "--seed", "1"], "pinfin: unrecognized arguments: --seed 1"),
    (["verify", "--config", "CFG", "--format", "json"],
     "pinfin: unrecognized arguments: --format json"),
    (["solve"], "pinfin solve: the following arguments are required: --config"),
], ids=["sweep_seed", "verify_format", "solve_without_config"])
def test_usage_errors_are_config_errors(tmp_path, capsys, argv, message):
    # exit code 2 means a failed verification, so a flag a command does not
    # take, or a missing one, is a configuration error like a bad config key
    out = tmp_path / "o"
    argv = [str(write_cfg(tmp_path)) if arg == "CFG" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
    assert not out.exists()


def assert_same_run(cfg, other):
    for f in fields(cfg):
        mine, theirs = getattr(cfg, f.name), getattr(other, f.name)
        if f.name == "h_profile":
            mine, theirs = vars(mine), vars(theirs)
        assert mine == theirs, f.name
    assert cfg.params() == other.params()


def test_readme_config_example_is_constant_h(tmp_path):
    readme = (CONFIGS.parent / "README.md").read_text()
    example = re.search(r"## Configuration.*?```yaml\n(.*?)```", readme, re.S).group(1)
    p = tmp_path / "readme.yaml"
    p.write_text(example)
    assert_same_run(load_config(p), load_config(CONFIGS / "constant_h.yaml"))


def test_verify_default_is_verify_yaml():
    # `pinfin verify` without a config runs configs/verify.yaml, field for field
    assert_same_run(default_config(), load_config(CONFIGS / "verify.yaml"))


def test_config_accepts_integral_values(tmp_path):
    p = write_cfg(tmp_path, numerics={"n_cells": 256.0, "max_iters": 50,
                                      "seed": 7},
                  constraint={"kind": "surface", "S0_times_a0_length": 6.0,
                              "M_list_mm": [25.0], "drop_cap": True})
    cfg = load_config(p)
    assert (cfg.n_cells, cfg.max_iters, cfg.seed, cfg.drop_cap) == (256, 50, 7, True)
    assert isinstance(cfg.n_cells, int)


@pytest.mark.parametrize("command, numerics, argv, key", [
    ("verify", {"n_cells": 200, "seed": -1}, [], "numerics.seed"),
    ("verify", {"n_cells": 200}, ["--seed", "-2"], "numerics.seed"),
    ("optimize", {"n_cells": 200, "max_iters": 0}, [], "numerics.max_iters"),
    ("optimize", {"n_cells": 200, "max_iters": -5}, [], "numerics.max_iters"),
])
def test_negative_seed_and_nonpositive_max_iters_are_config_errors(
        tmp_path, capsys, command, numerics, argv, key):
    p = write_cfg(tmp_path, numerics=numerics)
    out = tmp_path / "o"
    assert main([command, "--config", str(p), "--out", str(out), *argv]) == 1
    assert f"config error: {key}" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_optimize_sequence_and_verify_take_the_same_cap(tmp_path):
    # every single-cap run takes the largest cap of the list, in any order
    raw = yaml.safe_load((CONFIGS / "decreasing_h.yaml").read_text())
    raw["constraint"].update(M_list_mm=[6.25, 4.0])
    p = tmp_path / "both_caps.yaml"
    p.write_text(yaml.safe_dump(raw))
    cfg = load_config(p)
    assert check_concentration(cfg).detail.endswith("at M=0.00625")
    assert cfg.cap() == 6.25e-3
    out = tmp_path / "o"
    assert main(["optimize", "--config", str(p), "--out", str(out)]) == 0
    assert json.loads((out / "structure_report.json").read_text())["cap_M_m"] == 6.25e-3
    assert main(["sequence", "--config", str(p), "--out", str(out)]) == 0
    assert "switch at x=0.038095238095238099 m" in (out / "bang_density.csv").read_text()


def test_verify_exit_codes(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--config", str(CONFIGS / "verify.yaml"),
                 "--out", str(out), "--seed", "1"])
    assert code == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["all_passed"] is True
    assert rep["seed"] == 1
    names = [i["name"] for i in rep["items"]]
    assert "closed_form_agreement" in names and "bang_structure" in names
    # on a deliberately coarse grid the gradient item, which runs on the
    # configured grid, fails -> exit 2; the closed-form item keeps its
    # 4096-cell floor and passes
    out2 = tmp_path / "v2"
    code2 = main(["verify", "--config", str(CONFIGS / "verify.yaml"),
                  "--out", str(out2), "--n-cells", "8"])
    assert code2 == 2
    rep2 = json.loads((out2 / "verify_report.json").read_text())
    failed = {i["name"] for i in rep2["items"]
              if not i["passed"] and not i["skipped"]}
    assert failed == {"gradient_check"}


def test_verify_on_two_or_three_cells_reports_failures(tmp_path, capsys):
    # the gradient item probes min(4, n_cells) cells, so a grid too small for
    # four probes fails items instead of raising
    for n in ("2", "3"):
        out = tmp_path / n
        assert main(["verify", "--config", str(CONFIGS / "verify.yaml"),
                     "--out", str(out), "--n-cells", n]) == 2
        assert "[FAIL]" in capsys.readouterr().out
        assert not json.loads((out / "verify_report.json").read_text())["all_passed"]


def test_verify_refuses_a_zero_temperature_drop(tmp_path, capsys):
    # the other commands run with T_d == T_inf, but every verify item measures
    # against the drop, so verify stops before any item runs
    p = write_cfg(tmp_path, physics={
        "k": 10.0, "h": {"kind": "constant", "value": 10.0}, "h_r": "h(l)",
        "T_d": 5.0, "T_inf": 5.0})
    out = tmp_path / "v"
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: verify needs T_d > T_inf, got T_d = T_inf = 5\n"
    assert not list(out.glob("*"))


@pytest.mark.parametrize("name", ["step_h", "decreasing_h", "increasing_h"])
def test_verify_skips_the_excess_items_on_a_floor_budget(tmp_path, capsys, name):
    # S0 = a0 L leaves no surface to concentrate and none to add to the flat design
    raw = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    raw["constraint"]["S0_times_a0_length"] = 1.0
    p = tmp_path / "floor.yaml"
    p.write_text(yaml.safe_dump(raw))
    out = tmp_path / "v"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", str(p), "--out", str(out)]) == 0
    items = {i["name"]: i for i in json.loads((out / "verify_report.json").read_text())["items"]}
    assert items["concentration_behavior"]["skipped"]
    assert items["generalized_supremum"]["skipped"]


def test_generalized_supremum_item_solves_the_flat_design_once(monkeypatch):
    built = []
    init = FinSystem.__init__
    monkeypatch.setattr(FinSystem, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    item = check_generalized_supremum(load_config(CONFIGS / "decreasing_h.yaml"))
    assert item.passed and not item.skipped
    assert len(built) == 1


def test_swap_derivative_item_solves_on_one_kernel(monkeypatch):
    # the perturbed density keeps the radius, so its solve reuses the base kernel
    built = []
    init = FinSystem.__init__
    monkeypatch.setattr(FinSystem, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    item = check_swap_derivative()
    assert item.passed and not item.skipped
    assert len(built) == 1


FLOOR_PHYSICS = {"k": 10.0, "h": {"kind": "affine", "start": 20.0, "end": 10.0},
                 "h_r": "h(l)", "T_d": 10.0, "T_inf": 0.0}


def test_the_floor_budget_loads_as_the_floor_exactly(tmp_path, capsys):
    # (1 * a0) * L is a0 L bit for bit, and a larger factor never rounds below it
    p = write_cfg(tmp_path, physics=FLOOR_PHYSICS,
                  constraint={"kind": "surface", "S0_times_a0_length": 1.0,
                              "M_list_mm": [12.5, 25.0]})
    cfg = load_config(p)
    assert cfg.S0 == cfg.a0 * cfg.length
    for command in ("solve", "optimize", "sweep", "sequence", "verify"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(p), "--out", str(tmp_path / command)])
        assert code == 0, (command, capsys.readouterr().err)


def test_a_budget_below_the_floor_is_refused_by_every_command(tmp_path, capsys):
    # a budget even 1e-13 below the floor is refused: the floor has no slack
    for factor in (0.999999, 1.0 - 1e-13):
        p = write_cfg(tmp_path, physics=FLOOR_PHYSICS,
                      constraint={"kind": "surface", "S0_times_a0_length": factor,
                                  "M_list_mm": [12.5, 25.0]})
        assert_every_command_refuses(tmp_path, capsys, p, "below the floor surface a0 L")


def test_a_budget_below_the_floor_is_refused_at_load(tmp_path):
    # the config owns the rule, so no caller receives a budget no command accepts
    p = write_cfg(tmp_path, constraint={"kind": "surface", "S0_times_a0_length": 0.999999})
    with pytest.raises(ConfigError, match="below the floor surface"):
        load_config(p)
    cfg = default_config()
    with pytest.raises(ConfigError, match="below the floor surface"):
        replace(cfg, S0=0.5 * cfg.a0 * cfg.length)


@pytest.mark.parametrize("section, key, value, message", [
    ("constraint", "S0_times_a0_length", {"S0_mm2": 600.0},
     "constraint: unknown key(s) ['S0_mm2']; expected kind, S0_times_a0_length, "
     "M_list_mm, drop_cap"),
    ("constraint", "M_list_mm", {"M_mm": 25.0},
     "constraint: unknown key(s) ['M_mm']; expected kind, S0_times_a0_length, "
     "M_list_mm, drop_cap"),
    ("profile", "S_times_a0_length", {"S_mm2": 200.0},
     "profile: unknown key(s) ['S_mm2']; expected kind, S_times_a0_length, m"),
    ("physics", "h_r", {"h_r": "h(L)"},
     "physics.h_r: unknown rule 'h(L)'; expected a number or h(l)"),
    ("physics", "h_r", {"h_r": "h(ell)"}, "physics.h_r: unknown rule 'h(ell)'"),
    ("physics", "h_r", {"h_r": "h (l)"}, "physics.h_r: unknown rule 'h (l)'"),
], ids=["S0_mm2", "M_mm", "S_mm2", "h(L)", "h(ell)", "h_space_l"])
def test_each_quantity_has_one_spelling(tmp_path, capsys, section, key, value, message):
    # the budgets, the caps and the tip rule each load from one key or one rule
    sections = {"physics": dict(PHYSICS), "constraint": dict(CONSTRAINT),
                "profile": {"kind": "oscillating", "S_times_a0_length": 1.5, "m": 16}}
    sections[section].pop(key)
    sections[section].update(value)
    assert_every_command_refuses(tmp_path, capsys, write_cfg(tmp_path, **sections), message)


def test_verify_without_a_budget_invents_none(tmp_path, capsys):
    # a volume budget states no S0: the items that need one skip, and no detail names one
    raw = yaml.safe_load((CONFIGS / "decreasing_h.yaml").read_text())
    raw["constraint"] = {"kind": "volume"}
    p = tmp_path / "volume.yaml"
    p.write_text(yaml.safe_dump(raw))
    out = tmp_path / "v"
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 0
    items = {i["name"]: i for i in json.loads((out / "verify_report.json").read_text())["items"]}
    for name in ("surface_bound", "generalized_supremum"):
        assert items[name]["skipped"] and items[name]["detail"] == "requires a surface budget"
    assert not items["gradient_check"]["skipped"]
    assert "S0" not in items["gradient_check"]["detail"]
    assert "S0" not in capsys.readouterr().out


def test_verify_takes_the_cap_list_in_any_order(tmp_path, capsys):
    # caps are sorted at load, so a reversed list gives the same report
    raw = yaml.safe_load((CONFIGS / "verify.yaml").read_text())
    runs = []
    for name, caps in (("sorted", raw["constraint"]["M_list_mm"]),
                       ("reversed", raw["constraint"]["M_list_mm"][::-1])):
        p = tmp_path / f"{name}.yaml"
        p.write_text(yaml.safe_dump({**raw, "constraint": {**raw["constraint"],
                                                           "M_list_mm": caps}}))
        out = tmp_path / name
        assert main(["verify", "--config", str(p), "--out", str(out)]) == 0
        runs.append((capsys.readouterr(), (out / "verify_report.json").read_bytes()))
    assert runs[0] == runs[1]


def test_sweep_and_verify_accept_the_same_cap_list(tmp_path):
    # verify's sweep item ends at the uncapped run and adds no cap of its own,
    # so a cap list that sweep accepts, up to a metre-scale cap, verify accepts
    raw = yaml.safe_load((CONFIGS / "verify.yaml").read_text())
    raw["constraint"]["M_list_mm"] = [6.25, 12.5, 6000.0]
    p = tmp_path / "wide_caps.yaml"
    p.write_text(yaml.safe_dump(raw))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "s")]) == 0
    assert main(["verify", "--config", str(p), "--out", str(tmp_path / "v")]) == 0


def test_numerical_failure_maps_to_exit_code_3(tmp_path, monkeypatch):
    import pinfin.cli as cli
    from pinfin.errors import NumericalError

    def boom(cfg, out):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "cmd_solve", boom)
    p = write_cfg(tmp_path)
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("h, h_r", [
    (10.0, "h(l)"),                                        # h_r / k
    (10.0, 0.0),                                           # 2 h / k
    ({"kind": "affine", "start": 20.0, "end": 10.0}, 0.0),  # 2 h(x) / k
], ids=["constant_h", "constant_h_insulated_tip", "affine_h"])
def test_overflowing_coefficients_are_a_config_error(tmp_path, capsys, h, h_r):
    # k so small that the reaction or tip coefficient overflows to inf
    p = write_cfg(tmp_path, physics={"k": 1.0e-308, "h": h, "h_r": h_r,
                                     "T_d": 10.0, "T_inf": 0.0})
    for command in ("solve", "optimize"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ") and "overflows" in err


def test_shipped_configs_parse():
    for name in ("constant_h.yaml", "decreasing_h.yaml", "step_h.yaml",
                 "increasing_h.yaml", "verify.yaml"):
        cfg = load_config(CONFIGS / name)
        assert cfg.S0 is not None
        cfg.params()      # validates physics


IMPORT_PROBE = """
import json, sys
import numpy
if "numpy.random" in sys.modules:
    print(json.dumps(None))
    sys.exit()
import pinfin.cli
configs, out = sys.argv[1:]
codes = [pinfin.cli.main([cmd, "--config", f"{configs}/constant_h.yaml",
                          "--out", f"{out}/{cmd}", "--n-cells", "64"])
         for cmd in ("solve", "optimize", "sweep", "sequence")]
# verify at its own 4096 cells, where every item passes
codes.append(pinfin.cli.main(["verify", "--config", f"{configs}/verify.yaml",
                              "--out", f"{out}/verify"]))
print(json.dumps({"codes": codes,
                  "loaded": [m for m in ("numpy.random", "_hashlib") if m in sys.modules]}))
"""


def test_no_command_imports_numpy_random(tmp_path):
    # a fresh interpreter: another test may already have imported numpy.random
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(CONFIGS), str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         cwd=CONFIGS.parent / "src")
    seen = json.loads(out.stdout.splitlines()[-1])
    if seen is None:
        pytest.skip(f"numpy {np.__version__} imports numpy.random with numpy itself")
    assert seen == {"codes": [0, 0, 0, 0, 0], "loaded": []}
