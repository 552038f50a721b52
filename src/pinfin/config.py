"""YAML experiment configuration.

Configs are human-editable and carry explicit units in the key names;
geometry is given in millimeters (matching how fin hardware is usually
quoted) and converted to SI on ingestion.  Everything downstream of this
module is strict SI.
"""

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .grid import Grid
from .optimizer import OptimConfig
from .physics import H_FLOOR, PhysicalParams
from .profiles import RadiusProfile, SurfaceMeasure
from .sequences import oscillating_profile, step_density

MM = 1e-3
MM2 = 1e-6
CAPS = ("M_mm", "M_list_mm", "drop_cap")
# every key a config may hold, by section and by kind of a section or of physics.h
KEYS = {
    "geometry": ("a0_mm", "length_mm"),
    "physics": ("k", "h", "h_r", "T_d", "T_inf"),
    "constraint": {"surface": ("S0_mm2", "S0_times_a0_length", *CAPS), "volume": CAPS},
    "profile": {"constant": (), "cone": ("tip_mm",),
                "oscillating": ("S_mm2", "S_times_a0_length", "m"),
                "table": ("x_mm", "a_mm")},
    "numerics": ("n_cells", "max_iters", "seed"),
    "output": ("format",),
    "physics.h": {"constant": ("value",), "affine": ("start", "end"),
                  "step": ("low", "high", "x_step_mm", "width_mm"), "table": ("x_mm", "values")},
}


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


def _keys(spec: dict, where: str, kind=None) -> dict:
    """``spec``, once every key it holds is one that ``KEYS[where]`` lists for ``kind``."""
    accepted = KEYS[where]
    if isinstance(accepted, dict):
        if not isinstance(kind, str) or kind not in accepted:
            raise ConfigError(f"{where}.kind '{kind}' not one of {'|'.join(accepted)}")
        accepted = ("kind", *accepted[kind])
    unknown = [key for key in spec if key not in accepted]
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; expected {', '.join(accepted)}")
    return spec


def _section(raw: dict, key: str, path: Path, required: bool = False) -> dict:
    """Top-level section ``key``, a mapping; an optional one may be absent or null."""
    sec = _require(raw, key, str(path)) if required or raw.get(key) is not None else {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{key}: expected a mapping, got {sec!r}")
    return sec if isinstance(KEYS[key], dict) else _keys(sec, key)  # with kinds: checked by kind


def _number(value, where: str, floor: float = -math.inf) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if value < floor:
        raise ConfigError(f"{where} must be >= {floor}, got {value!r}")
    return float(value)


def _number_at(mapping: dict, key: str, where: str, floor: float = -math.inf) -> float:
    return _number(_require(mapping, key, where), f"{where}.{key}", floor)


def _numbers(values, where: str, floor: float = -math.inf) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{where}: expected a list of numbers, got {values!r}")
    return [_number(v, where, floor) for v in values]


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _table(spec: dict, where: str, key: str,
           floor: float = -math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Knots ``x_mm`` (returned in m, strictly increasing) and their ``key`` values."""
    xs = np.array(_numbers(_require(spec, "x_mm", where), f"{where}.x_mm"))
    vs = np.array(_numbers(_require(spec, key, where), f"{where}.{key}", floor))
    if xs.size != vs.size or xs.size < 2:
        raise ConfigError(f"{where}: x_mm and {key} need equal lengths of at least 2")
    if np.any(np.diff(xs) <= 0):
        raise ConfigError(f"{where}.x_mm must be strictly increasing")
    return xs * MM, vs


def _surface(spec: dict, where: str, stem: str, a0: float, length: float) -> float | None:
    """``<stem>_mm2`` or ``<stem>_times_a0_length`` in m^2; None if neither is given."""
    mm2, times = (_number_at(spec, key, where) if key in spec else None
                  for key in (f"{stem}_mm2", f"{stem}_times_a0_length"))
    if mm2 is not None and times is not None:
        raise ConfigError(f"{where}: give {stem}_mm2 or {stem}_times_a0_length, not both")
    if mm2 is not None:
        return mm2 * MM2
    return None if times is None else times * a0 * length


class HProfile:
    """Convection coefficient h(x) built from its config spec."""

    def __init__(self, spec, length: float):
        if isinstance(spec, (int, float)):
            spec = {"kind": "constant", "value": spec}
        if not isinstance(spec, dict):
            raise ConfigError(f"physics.h: expected number or mapping, got {spec!r}")
        where = "physics.h"
        self.kind = kind = _require(spec, "kind", where)
        _keys(spec, where, kind)
        self.length = length
        # h(x) stays between the levels it is given, so each is held to the floor
        if kind == "constant":
            self.value = _number_at(spec, "value", where, H_FLOOR)
        elif kind == "affine":
            self.start = _number_at(spec, "start", where, H_FLOOR)
            self.end = _number_at(spec, "end", where, H_FLOOR)
        elif kind == "step":
            self.low = _number_at(spec, "low", where, H_FLOOR)
            self.high = _number_at(spec, "high", where, H_FLOOR)
            self.x_step = _number_at(spec, "x_step_mm", where) * MM
            self.width = _number_at({"width_mm": 2.0, **spec}, "width_mm", where) * MM
            if not (0.0 < self.x_step < length and self.width > 0.0):
                raise ConfigError("physics.h: x_step_mm must lie inside the fin "
                                  "and width_mm be positive")
        else:
            self.xs, self.vs = _table(spec, where, "values", H_FLOOR)

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


@dataclass
class ExperimentConfig:
    a0: float
    length: float
    k: float
    h_profile: HProfile
    h_r: float
    T_d: float
    T_inf: float
    S0: float | None
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
        if not isinstance(self.drop_cap, bool):
            raise ConfigError("constraint.drop_cap: expected true or false, "
                              f"got {self.drop_cap!r}")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"output.format '{self.out_format}' not one of csv|json")
        self.M_list = sorted(self.M_list)
        for M1, M2 in zip(self.M_list, self.M_list[1:]):
            if M1 == M2:
                raise ConfigError(f"constraint.M_list_mm: cap {M1 * 1e3:g} mm is repeated")
        # build what the commands build, so a bad section fails here, before any work
        self.params()
        self.design(self.grid())

    def cap(self) -> float | None:
        """The one cap of a single run: M_mm, else the largest of M_list_mm."""
        if self.M is not None:
            return self.M
        return self.M_list[-1] if self.M_list else None

    def grid(self, n_cells: int | None = None) -> Grid:
        return Grid(self.length, n_cells or self.n_cells)

    def params(self) -> PhysicalParams:
        h = self.h_profile.value if self.h_profile.is_constant else self.h_profile
        return PhysicalParams(k=self.k, h=h, h_r=self.h_r,
                              T_d=self.T_d, T_inf=self.T_inf)

    def surface_budget(self) -> float:
        if self.S0 is None:
            raise ConfigError("this command needs constraint.kind=surface with a budget S0")
        return self.S0

    def optim_config(self, M: float | None, grid: Grid) -> OptimConfig:
        """Optimizer settings for one cap ``M`` (None runs uncapped) on ``grid``."""
        return OptimConfig(a0=self.a0, S0=self.surface_budget(), M=M, grid=grid,
                           params=self.params(), max_iters=self.max_iters)

    def design(self, grid: Grid) -> tuple[RadiusProfile, SurfaceMeasure]:
        """The configured radius on ``grid`` and its lateral surface density.

        An oscillating radius is sampled exactly and takes its exact step
        density, so it may be undersampled (nothing differentiates the
        samples downstream); any other takes the density of its samples.
        """
        kind, args = self.profile_kind, _keys(self.profile_args, "profile", self.profile_kind)
        if kind == "oscillating":
            S = _surface(args, "profile", "S", self.a0, self.length)
            if S is None:
                raise ConfigError("profile: need S_mm2 or S_times_a0_length")
            m = _integer(_require(args, "m", "profile"), "profile.m")
            return oscillating_profile(S, m, self.a0, grid), step_density(S, m, self.a0, grid)
        if kind == "cone":
            tip = _number_at(args, "tip_mm", "profile") * MM
            if tip < self.a0:
                raise ConfigError("profile.tip_mm must be at least a0")
            a = RadiusProfile.cone(self.a0, grid, (tip - self.a0) / self.length)
        elif kind == "table":
            xs, vs = _table(args, "profile", "a_mm")
            vs = vs * MM
            if np.any(vs < self.a0):
                raise ConfigError("profile.a_mm must be at least a0 everywhere")
            a = RadiusProfile(np.interp(grid.nodes, xs, vs), self.a0, self.length)
        else:
            a = RadiusProfile.constant(self.a0, grid)
        return a, SurfaceMeasure.from_radius(a, grid)


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
    sections = [name for name in KEYS if "." not in name]
    unknown = [key for key in raw if key not in sections]
    if unknown:
        raise ConfigError(f"{path}: unknown top-level key(s) {unknown}; "
                          f"expected sections {', '.join(sections)}")

    geo = _section(raw, "geometry", path, required=True)
    a0 = _number_at(geo, "a0_mm", "geometry") * MM
    length = _number_at(geo, "length_mm", "geometry") * MM
    if a0 <= 0 or length <= 0:
        raise ConfigError("geometry: a0_mm and length_mm must be positive")

    phy = _section(raw, "physics", path, required=True)
    k = _number_at(phy, "k", "physics")
    h_profile = HProfile(_require(phy, "h", "physics"), length)
    h_r = phy.get("h_r", "h(l)")
    if isinstance(h_r, str):
        if h_r.replace(" ", "") not in ("h(l)", "h(L)", "h(ell)"):
            raise ConfigError(f"physics.h_r: unknown rule '{h_r}'")
        h_r = float(h_profile(np.asarray([length]))[0])
    else:
        h_r = _number(h_r, "physics.h_r")
    T_d, T_inf = _number_at(phy, "T_d", "physics"), _number_at(phy, "T_inf", "physics")

    con = _section(raw, "constraint", path)
    _keys(con, "constraint", con.get("kind", "surface"))
    # a volume budget has no key: no command optimizes under one, so S0 stays None
    S0 = _surface(con, "constraint", "S0", a0, length)
    M = _number_at(con, "M_mm", "constraint") * MM if "M_mm" in con else None
    M_list = [v * MM for v in _numbers(con.get("M_list_mm", []), "constraint.M_list_mm")]

    # a key left out keeps its ExperimentConfig default
    given = {key: _integer(value, f"numerics.{key}")
             for key, value in _section(raw, "numerics", path).items()}
    prof, out = _section(raw, "profile", path), _section(raw, "output", path)
    for sec, key, name in ((con, "drop_cap", "drop_cap"), (prof, "kind", "profile_kind"),
                           (out, "format", "out_format")):
        if key in sec:
            given[name] = sec[key]

    return ExperimentConfig(
        a0=a0, length=length, k=k, h_profile=h_profile, h_r=h_r, T_d=T_d, T_inf=T_inf,
        S0=S0, M=M, M_list=M_list,
        profile_args={kk: vv for kk, vv in prof.items() if kk != "kind"}, **given)
