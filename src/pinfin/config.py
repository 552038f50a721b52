"""YAML experiment configuration.

Configs are human-editable and carry explicit units in the key names;
geometry is given in millimeters (matching how fin hardware is usually
quoted) and converted to SI on ingestion.  Everything downstream of this
module is strict SI.
"""

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .grid import Grid
from .optimizer import OptimConfig
from .physics import PhysicalParams
from .profiles import RadiusProfile
from .sequences import oscillating_profile, step_density

MM = 1e-3
MM2 = 1e-6
MM3 = 1e-9


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as ``1e-3`` and ``2E+1``.

    PyYAML follows YAML 1.1, where an exponent needs a dot and a signed
    power, so those spellings would load as strings.  Quoted scalars are
    never resolved implicitly and stay strings.
    """


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


class HProfile:
    """Convection coefficient h(x) built from its config spec."""

    def __init__(self, spec, length: float):
        if isinstance(spec, (int, float)):
            spec = {"kind": "constant", "value": spec}
        if not isinstance(spec, dict):
            raise ConfigError(f"physics.h: expected number or mapping, got {spec!r}")
        kind = _require(spec, "kind", "physics.h")
        self.kind = kind
        self.length = length
        if kind == "constant":
            self.value = _number(_require(spec, "value", "physics.h"), "physics.h.value")
        elif kind == "affine":
            self.start = _number(_require(spec, "start", "physics.h"), "physics.h.start")
            self.end = _number(_require(spec, "end", "physics.h"), "physics.h.end")
        elif kind == "step":
            self.low = _number(_require(spec, "low", "physics.h"), "physics.h.low")
            self.high = _number(_require(spec, "high", "physics.h"), "physics.h.high")
            self.x_step = _number(_require(spec, "x_step_mm", "physics.h"),
                                  "physics.h.x_step_mm") * MM
            self.width = _number(spec.get("width_mm", 2.0), "physics.h.width_mm") * MM
            if not (0.0 < self.x_step < length):
                raise ConfigError("physics.h.x_step_mm must lie inside the fin")
        elif kind == "table":
            xs = _require(spec, "x_mm", "physics.h")
            vs = _require(spec, "values", "physics.h")
            if len(xs) != len(vs) or len(xs) < 2:
                raise ConfigError("physics.h table needs matching x_mm/values lists")
            self.xs = np.asarray(xs, dtype=float) * MM
            self.vs = np.asarray(vs, dtype=float)
            if np.any(np.diff(self.xs) <= 0):
                raise ConfigError("physics.h table x_mm must be strictly increasing")
        else:
            raise ConfigError(f"physics.h.kind '{kind}' not one of "
                              "constant|affine|step|table")

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full(x.shape, self.value)
        if self.kind == "affine":
            return self.start + (self.end - self.start) * x / self.length
        if self.kind == "step":
            ramp = np.clip((x - self.x_step + self.width / 2.0) / self.width, 0.0, 1.0)
            return self.low + (self.high - self.low) * ramp
        return np.interp(x, self.xs, self.vs)

    def at_tip(self) -> float:
        return float(self(np.asarray([self.length]))[0])


@dataclass
class ExperimentConfig:
    a0: float
    length: float
    k: float
    h_profile: HProfile
    h_r: float
    T_d: float
    T_inf: float
    constraint_kind: str
    S0: float | None
    V0: float | None
    M: float | None
    M_list: list[float] = field(default_factory=list)
    drop_cap: bool = False
    profile_kind: str = "constant"
    profile_args: dict = field(default_factory=dict)
    n_cells: int = 500
    max_iters: int = 20000
    seed: int = 0
    out_format: str = "csv"

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"numerics.seed must be >= 0, got {self.seed}")
        if self.max_iters < 1:
            raise ConfigError(f"numerics.max_iters must be >= 1, got {self.max_iters}")

    def cap(self) -> float | None:
        """The one cap of a single run: M_mm, else the largest of M_list_mm."""
        if self.M is not None:
            return self.M
        return max(self.M_list) if self.M_list else None

    def grid(self, n_cells: int | None = None) -> Grid:
        return Grid(self.length, n_cells or self.n_cells)

    def params(self) -> PhysicalParams:
        h = self.h_profile.value if self.h_profile.is_constant else self.h_profile
        return PhysicalParams(k=self.k, h=h, h_r=self.h_r,
                              T_d=self.T_d, T_inf=self.T_inf)

    def surface_budget(self) -> float:
        if self.constraint_kind != "surface" or self.S0 is None:
            raise ConfigError("this command needs constraint.kind=surface with a budget S0")
        return self.S0

    def optim_config(self, M: float | None, grid: Grid,
                     reconstruct: bool) -> OptimConfig:
        """Optimizer settings for one cap ``M`` (None runs uncapped) on ``grid``."""
        return OptimConfig(a0=self.a0, S0=self.surface_budget(), M=M, grid=grid,
                           params=self.params(), max_iters=self.max_iters,
                           reconstruct=reconstruct)

    def radius_profile(self, grid: Grid) -> RadiusProfile:
        kind = self.profile_kind
        args = self.profile_args
        if kind == "constant":
            return RadiusProfile.constant(self.a0, grid)
        if kind == "cone":
            tip = _number(_require(args, "tip_mm", "profile"), "profile.tip_mm") * MM
            if tip < self.a0:
                raise ConfigError("profile.tip_mm must be at least a0")
            return RadiusProfile.cone(self.a0, grid, (tip - self.a0) / self.length)
        if kind == "oscillating":
            return self.oscillating_pair(grid)[0]
        if kind == "table":
            xs = np.asarray(_require(args, "x_mm", "profile"), dtype=float) * MM
            vs = np.asarray(_require(args, "a_mm", "profile"), dtype=float) * MM
            if xs.size != vs.size or xs.size < 2:
                raise ConfigError("profile table needs matching x_mm/a_mm lists")
            return RadiusProfile(np.interp(grid.nodes, xs, vs), self.a0, self.length)
        raise ConfigError(f"profile.kind '{kind}' not one of constant|cone|oscillating|table")

    def oscillating_pair(self, grid: Grid):
        """Oscillating radius with its exact step density.

        Node values are exact analytic samples and the density is exact per
        cell, so undersampled oscillations are acceptable here (nothing
        differentiates the samples downstream).
        """
        args = self.profile_args
        S = self.surface_value(args, "profile")
        m = _integer(_require(args, "m", "profile"), "profile.m")
        profile = oscillating_profile(S, m, self.a0, grid,
                                      check_resolution=False)
        return profile, step_density(S, m, self.a0, grid)

    def surface_value(self, mapping: dict, where: str) -> float:
        if "S_mm2" in mapping:
            return _number(mapping["S_mm2"], f"{where}.S_mm2") * MM2
        if "S_times_a0_length" in mapping:
            return _number(mapping["S_times_a0_length"],
                           f"{where}.S_times_a0_length") * self.a0 * self.length
        raise ConfigError(f"{where}: need S_mm2 or S_times_a0_length")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(), Loader=_ConfigLoader)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    geo = _require(raw, "geometry", str(path))
    a0 = _number(_require(geo, "a0_mm", "geometry"), "geometry.a0_mm") * MM
    length = _number(_require(geo, "length_mm", "geometry"), "geometry.length_mm") * MM
    if a0 <= 0 or length <= 0:
        raise ConfigError("geometry: a0_mm and length_mm must be positive")

    phy = _require(raw, "physics", str(path))
    k = _number(_require(phy, "k", "physics"), "physics.k")
    h_profile = HProfile(_require(phy, "h", "physics"), length)
    h_r_raw = phy.get("h_r", "h(l)")
    if isinstance(h_r_raw, str):
        if h_r_raw.replace(" ", "") not in ("h(l)", "h(L)", "h(ell)"):
            raise ConfigError(f"physics.h_r: unknown rule '{h_r_raw}'")
        h_r = h_profile.at_tip()
    else:
        h_r = _number(h_r_raw, "physics.h_r")
    T_d = _number(_require(phy, "T_d", "physics"), "physics.T_d")
    T_inf = _number(_require(phy, "T_inf", "physics"), "physics.T_inf")

    con = raw.get("constraint", {}) or {}
    kind = con.get("kind", "surface")
    if kind not in ("surface", "volume"):
        raise ConfigError(f"constraint.kind '{kind}' not one of surface|volume")
    S0 = V0 = None
    if kind == "surface":
        if "S0_mm2" in con:
            S0 = _number(con["S0_mm2"], "constraint.S0_mm2") * MM2
        elif "S0_times_a0_length" in con:
            S0 = _number(con["S0_times_a0_length"],
                         "constraint.S0_times_a0_length") * a0 * length
    else:
        if "V0_mm3" in con:
            V0 = _number(con["V0_mm3"], "constraint.V0_mm3") * MM3
        elif "V0_times_a02_length" in con:
            V0 = _number(con["V0_times_a02_length"],
                         "constraint.V0_times_a02_length") * a0 * a0 * length
    M = None
    if "M_mm" in con:
        M = _number(con["M_mm"], "constraint.M_mm") * MM
    M_list = [_number(v, "constraint.M_list_mm") * MM
              for v in con.get("M_list_mm", [])]
    drop_cap = con.get("drop_cap", False)
    if not isinstance(drop_cap, bool):
        raise ConfigError(f"constraint.drop_cap: expected true or false, "
                          f"got {drop_cap!r}")

    prof = raw.get("profile", {}) or {}
    profile_kind = prof.get("kind", "constant")
    profile_args = {kk: vv for kk, vv in prof.items() if kk != "kind"}

    num = raw.get("numerics", {}) or {}
    n_cells = _integer(num.get("n_cells", 500), "numerics.n_cells")
    max_iters = _integer(num.get("max_iters", 20000), "numerics.max_iters")
    seed = _integer(num.get("seed", 0), "numerics.seed")

    out = raw.get("output", {}) or {}
    out_format = out.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format '{out_format}' not one of csv|json")

    return ExperimentConfig(
        a0=a0, length=length, k=k, h_profile=h_profile, h_r=h_r,
        T_d=T_d, T_inf=T_inf, constraint_kind=kind, S0=S0, V0=V0, M=M,
        M_list=M_list, drop_cap=drop_cap, profile_kind=profile_kind,
        profile_args=profile_args, n_cells=n_cells, max_iters=max_iters,
        seed=seed, out_format=out_format,
    )
