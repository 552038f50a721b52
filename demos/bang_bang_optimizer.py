"""Shape optimization under a surface budget and a pointwise cap.

The capped problem has a genuine optimizer, and it is two-level (bang-bang):
the density sits at the cap up to a switch point and at the floor beyond.
Untightening the cap drives the designs toward the inlet concentration and
the objectives toward the closed-form supremum.  A spatially varying
convection coefficient moves the concentration to wherever the gradient
density beta(x) (T(x) - T_inf)^2 is largest.
"""

import numpy as np

from pinfin import (Grid, OptimConfig, PhysicalParams, optimize,
                    surface_supremum, sweep_M, switch_point,
                    verify_bang_structure)

a0, length = 1e-3, 0.1
params = PhysicalParams(k=10.0, h=10.0, h_r=10.0, T_d=10.0, T_inf=0.0)
S0 = 6 * a0 * length
grid = Grid(length, 500)

print("== capped optimization, constant convection ==")
print("   cap M      switch (found / exact)   cells between   objective [W]")
cfg = OptimConfig(a0=a0, S0=S0, M=None, grid=grid, params=params)
for res in sweep_M(cfg, [6.25e-3, 12.5e-3, 25e-3, 50e-3]):
    rep = verify_bang_structure(res)
    print(f"  {res.config.M * 1e3:6.2f}mm   {res.switch_estimate * 1e3:7.2f} / "
          f"{rep.switch_expected * 1e3:7.2f} mm      {res.cells_between_bounds}"
          f"           {res.objective:.6f}")

print("\n== sweep toward the supremum ==")
sup = surface_supremum(a0, length, S0, params)
cfg = OptimConfig(a0=a0, S0=S0, M=None, grid=Grid(length, 2000), params=params)
for res in sweep_M(cfg, [6.25e-3, 25e-3], include_uncapped=True):
    M = res.config.M
    where = ("uncapped" if M is None
             else f"switch at {switch_point(M, S0, a0, length) * 1e3:.2f} mm")
    print(f"  M={M or np.inf:8.4f} m: objective {res.objective:.6f} W "
          f"({res.objective / sup:6.1%} of supremum {sup:.6f}, {where})")

print("\n== decreasing convection: concentration at the inlet ==")
pd = PhysicalParams(k=10.0, h=lambda x: 20.0 - 100.0 * np.asarray(x),
                    h_r=10.0, T_d=10.0, T_inf=0.0)
cfg = OptimConfig(a0=a0, S0=3 * a0 * length, M=50e-3, grid=grid, params=pd)
head = optimize(cfg).excess_fraction(0.0)
print(f"  excess surface in the first 5% of the fin: {head:.1%}")

print("\n== increasing convection, cap removed: a regular optimum ==")
pi_ = PhysicalParams(k=10.0, h=lambda x: 0.25 + 17.5 * np.asarray(x),
                     h_r=2.0, T_d=10.0, T_inf=0.0)
cfg = OptimConfig(a0=a0, S0=1.5 * a0 * length, M=None, grid=grid, params=pi_)
res = optimize(cfg)
exc = res.b_opt.density - a0
support = np.nonzero(exc > 0.01 * exc.max())[0]
print(f"  density hump on [{grid.midpoints[support[0]] * 1e3:.1f}, "
      f"{grid.midpoints[support[-1]] * 1e3:.1f}] mm, "
      f"max/median excess {exc.max() / np.median(exc[support]):.2f} "
      f"(no point concentration)")
