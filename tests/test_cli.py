import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from pinfin import Grid
from pinfin.cli import main
from pinfin.config import load_config
from pinfin.errors import ConfigError
from pinfin.io import format_column, read_table, write_table
from pinfin.verification import check_concentration

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, **overrides):
    cfg = {
        "geometry": {"a0_mm": 1.0, "length_mm": 100.0},
        "physics": {"k": 10.0, "h": {"kind": "constant", "value": 10.0},
                    "h_r": "h(l)", "T_d": 10.0, "T_inf": 0.0},
        "constraint": {"kind": "surface", "S0_times_a0_length": 6.0,
                       "M_mm": 25.0},
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
    assert cfg.M == pytest.approx(25e-3)
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
    p.write_text(p.read_text().replace("S0_times_a0_length: 6.0",
                                       f"S0_times_a0_length: {spelling}"))
    cfg = load_config(p)
    assert cfg.S0 == value * cfg.a0 * cfg.length


def test_config_rejects_a_quoted_number(tmp_path):
    p = write_cfg(tmp_path)
    p.write_text(p.read_text().replace("S0_times_a0_length: 6.0",
                                       'S0_times_a0_length: "1e-3"'))
    with pytest.raises(ConfigError, match="expected a number, got '1e-3'"):
        load_config(p)


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
    original = cfg.radius_profile(grid)
    back = read_table(out / "profile.csv")["a_m"]
    assert np.array_equal(back, original.values)
    from pinfin import RadiusProfile
    reingested = RadiusProfile(back, cfg.a0, cfg.length)
    assert np.array_equal(reingested.values, original.values)


def test_read_table_drops_only_the_trailing_padding(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["x", "y"], [np.arange(4.0), np.array([1.0, 2.0])])
    back = read_table(path)
    assert np.array_equal(back["x"], np.arange(4.0))
    assert np.array_equal(back["y"], [1.0, 2.0])


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


def test_read_table_rejects_a_nan_inside_a_column(tmp_path):
    # dropping it would shift the later rows of that column out of line
    path = tmp_path / "t.csv"
    write_table(path, ["x", "y"], [np.arange(3.0), np.array([1.0, np.nan, 3.0])])
    with pytest.raises(ConfigError, match="NaN inside column 'y'"):
        read_table(path)


def test_read_table_rejects_a_row_of_nan(tmp_path):
    # write_table pads only columns shorter than the longest one
    path = tmp_path / "t.csv"
    write_table(path, ["x", "y"], [np.array([1.0, np.nan]), np.array([2.0, np.nan])])
    with pytest.raises(ConfigError, match="NaN in every column"):
        read_table(path)


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
    # concentration limit for this shallow configuration
    p = write_cfg(tmp_path,
                  geometry={"a0_mm": 200.0, "length_mm": 1000.0},
                  physics={"k": 10.0, "h": {"kind": "constant", "value": 0.1},
                           "h_r": "h(l)", "T_d": 10.0, "T_inf": 0.0},
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
    assert rep["converged"]
    assert rep["stop_reason"] in {"line_search", "move_tol", "stall", "max_iters"}
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


def test_sweep_rejects_caps_whose_files_share_a_name(tmp_path, capsys):
    # "_M%gmm" keeps 6 significant digits: the first cap's files would be
    # overwritten by the second's, so the sweep stops before optimizing
    p = write_cfg(tmp_path, constraint={
        "kind": "surface", "S0_times_a0_length": 6.0,
        "M_list_mm": [12.5, 6.25, 6.2500001]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: caps 6.25") and "6.2500001" in err
    assert "_M6.25mm" in err
    assert list(out.iterdir()) == []


def test_optimize_rejects_infeasible_cap(tmp_path):
    p = write_cfg(tmp_path, constraint={
        "kind": "surface", "S0_times_a0_length": 6.0, "M_mm": 1.04})
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
    # profile.m is read only when an oscillating profile is built
    sections = {
        "numerics": {"n_cells": 200},
        "profile": {"kind": "oscillating", "S_times_a0_length": 3.0, "m": 8},
        "constraint": {"kind": "surface", "S0_times_a0_length": 6.0,
                       "M_mm": 25.0},
    }
    sections[section][key] = value
    p = write_cfg(tmp_path, **{section: sections[section]})
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config(p).radius_profile(Grid(0.1, 64))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 1


def test_config_accepts_integral_values(tmp_path):
    p = write_cfg(tmp_path, numerics={"n_cells": 256.0, "max_iters": 50,
                                      "seed": 7},
                  constraint={"kind": "surface", "S0_times_a0_length": 6.0,
                              "M_mm": 25.0, "drop_cap": True})
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
    # M_mm wins over M_list_mm for every single-cap run
    raw = yaml.safe_load((CONFIGS / "decreasing_h.yaml").read_text())
    raw["constraint"].update(M_mm=6.25, M_list_mm=[6.25, 50.0])
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
    # a deliberately coarse grid must fail the convergence item -> exit 2
    out2 = tmp_path / "v2"
    code2 = main(["verify", "--config", str(CONFIGS / "verify.yaml"),
                  "--out", str(out2), "--n-cells", "8"])
    assert code2 == 2
    rep2 = json.loads((out2 / "verify_report.json").read_text())
    failed = {i["name"] for i in rep2["items"]
              if not i["passed"] and not i["skipped"]}
    assert "closed_form_agreement" in failed


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
