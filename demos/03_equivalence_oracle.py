"""Numerically verify that every multi-term ordering reduces to the
canonical two-parameter form.

Each ordering is assembled two independent ways on the same grid: by
composing its m^a p m^b p m^c terms, and from the canonical kinetic part
plus the (xi, zeta) effective potential. The defect between the two
pathways, applied to a smooth test function, must shrink by ~4x each time
the grid spacing halves (second-order agreement): `defect_convergence`
compares a grid of n points with its refinement of 2n + 1, and that one
with its own.
"""

import pdmkeo as pk

profile = pk.cosine_bump(m0=1, lam=1)
psi = lambda x: (1 - x**2) ** 2
grid = pk.Grid(-1.0, 1.0, 100)
fine = grid.refined()

print(f"profile: {profile.name}, interval [-1, 1], test function (1-x^2)^2\n")
print(f"{'ordering':10s} {'defect n=100':>14s} {f'n={fine.n}':>11s} {f'n={fine.refined().n}':>11s}"
      f" {'ratios':>14s} {'observed orders':>16s}")
for name in ("ZK", "MM", "W", "LK", "Lal", "YY"):
    spec = pk.catalog(name)
    coarse, refined = (pk.defect_convergence(spec, profile, g, psi) for g in (grid, fine))
    print(f"{name:10s} {coarse.defect_n:14.3e} {refined.defect_n:11.3e} {refined.defect_refined:11.3e}"
          f" {coarse.ratio:6.3f}, {refined.ratio:6.3f} {coarse.observed_order:7.3f}, {refined.observed_order:6.3f}")

print("\ndegenerate checks (defect exactly zero by construction):")
grid = pk.Grid(-1.0, 1.0, 200)
print("  constant mass, any ordering:",
      pk.equivalence_defect(pk.catalog("W"), pk.constant(1), grid, psi))
print("  plain p(1/m)p on a varying mass:",
      pk.equivalence_defect(pk.catalog("BDD"), profile, grid, psi))
