"""Near-optimal oscillating designs under surface and volume budgets.

With a lateral-surface budget the flux supremum is finite but unattained:
profiles that oscillate faster and faster near the inlet push the flux
arbitrarily close to it while converging uniformly to the thinnest fin.
With a volume budget the flux is unbounded altogether: the same oscillating
designs carry an arbitrary amount of surface at negligible volume cost.
"""

from pinfin import (Grid, PhysicalParams, RadiusProfile, heat_flux_relaxed,
                    oscillation_peak, oscillating_radius, solve_temperature,
                    step_density, surface_supremum, volume)
from pinfin.sequences import volume_constrained_design

a0, length = 0.2, 1.0
params = PhysicalParams(k=10.0, h=0.1, h_r=0.1, T_d=10.0, T_inf=0.0)
S0 = 1.5 * a0 * length
grid = Grid(length, 8192)
sup = surface_supremum(a0, length, S0, params)

print(f"surface budget {S0:g}; closed-form flux supremum {sup:.6f} W")
print("\n== oscillating designs approach the supremum ==")
print("   m   peak excursion   flux [W]      gap to supremum")
for m in (8, 16, 32, 64, 128):
    a = RadiusProfile(oscillating_radius(grid.nodes, S0, m, a0, length),
                      a0, length)
    b = step_density(S0, m, a0, grid)       # exact lateral density
    T = solve_temperature(a, b, params, grid)
    F = heat_flux_relaxed(T)
    print(f"  {m:4d}   {oscillation_peak(S0, m, a0, length):.5f}"
          f"          {F:.6f}     {(sup - F) / sup:.2e}")
print("  (the radius converges uniformly to the floor while the flux climbs)")

print("\n== volume budget: the flux grows without bound ==")
a0v, ellv = 1.2, 0.2
pv = PhysicalParams(k=10.0, h=0.25, h_r=0.0, T_d=10.0, T_inf=0.0)
V0 = 2 * a0v * a0v * ellv
gv = Grid(ellv, 32768)
print(f"volume budget {V0:g} (floor volume {a0v**2 * ellv:g})")
print("   surface n   oscillations m   volume        flux [W]")
for n in (5, 10, 20):
    # F is the search's solve of the design with its exact step density
    prof, m, F = volume_constrained_design(n, V0, a0v, gv, pv)
    print(f"   {n:6d}      {m:8d}         {volume(prof, gv):.6f}     {F:.4f}")
print("  (volume stays inside the budget; flux grows linearly in the "
      "surface target)")
