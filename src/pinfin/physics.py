"""Material and boundary data for the fin model.

All quantities are strict SI: meters, watts, kelvins (temperature differences
only enter the equations, so Celsius values are accepted as-is).  The lateral
convection coefficient ``h`` may be a constant or a function of the axial
coordinate; the reaction coefficient used by the solver is ``2 h(x) / k`` and
the tip coefficient is ``h_r / k``.
"""

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigError

HCoefficient = Union[float, Callable[[np.ndarray], np.ndarray]]

H_FLOOR = 1e-12        # lower bound enforced on h(x); keeps the reaction coercive


@dataclass(frozen=True)
class PhysicalParams:
    """Conductivity, convection and boundary temperatures.

    Parameters
    ----------
    k : thermal conductivity, W/(m K).
    h : lateral convective coefficient, W/(m^2 K); scalar or callable of x.
    h_r : tip convective coefficient, W/(m^2 K).
    T_d : inlet temperature, degC.
    T_inf : ambient fluid temperature, degC.
    """

    k: float
    h: HCoefficient
    h_r: float
    T_d: float
    T_inf: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0.0):
            raise ConfigError(f"conductivity k must be positive, got {self.k}")
        if self.h_r < 0.0 or not np.isfinite(self.h_r):
            raise ConfigError(f"tip coefficient h_r must be >= 0, got {self.h_r}")
        if not (np.isfinite(self.T_d) and np.isfinite(self.T_inf)):
            raise ConfigError("temperatures must be finite")
        if self.T_d < self.T_inf:
            raise ConfigError(
                f"inlet temperature T_d={self.T_d} must not be below T_inf={self.T_inf}"
            )
        if self.is_constant_h and (not np.isfinite(self.h) or self.h < H_FLOOR):
            raise ConfigError(f"h must be >= {H_FLOOR}, got {self.h}")
        # a tiny k overflows the tip or reaction coefficient to inf
        with np.errstate(over="ignore"):
            if not np.isfinite(self.beta_r):
                raise ConfigError(f"h_r / k overflows for h_r={self.h_r}, k={self.k}")
            if self.is_constant_h and not np.isfinite(2.0 * self.h / self.k):
                raise ConfigError(f"2 h / k overflows for h={self.h}, k={self.k}")

    @property
    def is_constant_h(self) -> bool:
        return not callable(self.h)

    @property
    def delta_T(self) -> float:
        return self.T_d - self.T_inf

    @property
    def beta_r(self) -> float:
        return self.h_r / self.k

    def beta(self, x) -> np.ndarray:
        """Lateral reaction coefficient 2 h(x) / k, in 1/m."""
        if self.is_constant_h:      # h and 2 h / k were checked in __post_init__
            return np.full(np.shape(x), self.constant_beta())
        h = np.asarray(self.h(np.asarray(x, dtype=float)), dtype=float)
        if not np.all(np.isfinite(h)):
            raise ConfigError("h(x) produced non-finite values")
        if np.any(h < H_FLOOR):
            raise ConfigError(f"h(x) drops below the floor {H_FLOOR}; "
                              "the lateral surface may not be insulated")
        with np.errstate(over="ignore"):
            vals = 2.0 * h / self.k
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"2 h(x) / k overflows for k={self.k}")
        return vals

    def constant_beta(self) -> float:
        """Scalar beta for constant-h data; raises otherwise."""
        if not self.is_constant_h:
            raise ConfigError("operation requires a constant convective coefficient")
        return 2.0 * float(self.h) / self.k
