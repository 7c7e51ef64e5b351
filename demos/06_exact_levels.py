"""Exact levels of any Hermitian ordering, reached at order 2.

The point canonical transformation y = int sqrt(m) dx, psi = m^(1/4) phi
maps the ordering at (xi, zeta) = (-1/4, 1/16), Mustafa-Mazharimousavi's
point, to a free particle in y. Adding the effective potential
V_eff(-1/4 - xi, 1/16 - zeta) moves any eta = 0 ordering to that point,
so on a box [a, b] its Dirichlet levels are E_j = (j pi / L)^2 / 2 with
L = int_a^b sqrt(m) dx. For m = 1/(1+x^2) on [-1, 1], L = 2 asinh(1).
The staggered spectrum reaches these levels at order 2 in h for every
ordering, whatever its own (xi, zeta).
"""

import math
from fractions import Fraction as F

import numpy as np

import pdmkeo as pk

profile = pk.lorentzian(m0=1, lam=1)  # m = 1/(1+x^2)
grid = pk.Grid(-1.0, 1.0, 200)
length = math.asinh(1.0) - math.asinh(-1.0)
k = 3
exact = (np.arange(1, k + 1) * math.pi / length) ** 2 / 2

print(f"profile: {profile.name}, box [-1, 1], L = 2 asinh(1) = {length:.12f}")
print("exact levels E_j = (j pi / L)^2 / 2:", ", ".join(f"{e:.10f}" for e in exact))
print(f"\nerrors |E_j - exact| at n = {grid.n} and n = {grid.refined().n},"
      " and the observed order log2(coarse / fine)")
print(f"{'ordering':10s} {'(xi, zeta)':>12s} {'E_1 coarse':>11s} {'E_1 fine':>11s} {'orders j = 1..3':>20s}")
for name in ("BDD", "ZK", "MM", "W", "LK", "YY", "DA(-1/2)"):
    spec = pk.catalog(name)
    xi, zeta, _ = pk.linear_params(spec).as_tuple()
    shift = pk.LinearParams(F(-1, 4) - xi, F(1, 16) - zeta, 0)
    potential = pk.PotentialProfile("to_mm", lambda x: pk.effective_potential(shift, profile, x))
    coarse, fine = (
        np.abs(np.array(pk.spectrum_of_spec(spec, profile, potential, g, k).eigenvalues) - exact)
        for g in (grid, grid.refined())
    )
    orders = ", ".join(f"{o:.2f}" for o in np.log2(coarse / fine))
    print(f"{name:10s} {f'({xi}, {zeta})':>12s} {coarse[0]:11.2e} {fine[0]:11.2e} {orders:>20s}")
