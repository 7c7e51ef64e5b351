"""Bound states in a box with position-dependent mass, across orderings.

With constant mass every Hermitian ordering gives the same Hamiltonian,
reproducing the particle-in-a-box levels. With a varying mass the choice
of ordering shifts the spectrum through the (xi, zeta)-dependent
effective potential: orderings sharing (xi, zeta) agree after Richardson
extrapolation, orderings with different (xi, zeta) do not.
"""

import numpy as np

import pdmkeo as pk

# constant-mass sanity: box levels n^2/2 on [0, pi]
grid = pk.Grid(0.0, float(np.pi), 1200)
levels = pk.spectrum_of_spec(
    pk.catalog("BDD"), pk.constant(1), pk.zero_potential(), grid, 5
).eigenvalues
print("constant-mass box levels vs n^2/2:")
for k, e in enumerate(levels, start=1):
    print(f"  E_{k} = {e:.6f}   exact {k * k / 2:.6f}")

# varying mass: ground state per ordering, Richardson-extrapolated
profile = pk.lorentzian(m0=1, lam=1)  # m = 1/(1+x^2)
v = pk.zero_potential()


def extrapolated_ground(name, n=300):
    grid = pk.Grid(-1, 1, n)
    coarse = pk.spectrum_of_spec(pk.catalog(name), profile, v, grid, 1)
    fine = pk.spectrum_of_spec(pk.catalog(name), profile, v, grid.refined(), 1)
    return pk.richardson(coarse.eigenvalues[0], fine.eigenvalues[0])


print("\nground state on m = 1/(1+x^2), box [-1, 1]:")
print(f"{'ordering':8s} {'(xi, zeta)':>14s} {'E_0 (extrapolated)':>20s} {'error est':>10s}")
for name in ("BDD", "ZK", "MM", "LK", "W", "Lal", "YY"):
    lp = pk.linear_params(pk.catalog(name))
    e, err = extrapolated_ground(name)
    print(f"{name:8s} {f'({lp.xi}, {lp.zeta})':>14s} {e:20.10f} {err:10.1e}")

e_lk, d_lk = extrapolated_ground("LK")
e_w, d_w = extrapolated_ground("W")
print(f"\nLK vs W (same point (-1/4, 0)): |E0 difference| = {abs(e_lk - e_w):.2e}"
      f" within estimate {d_lk + d_w:.2e}")
e_bdd, _ = extrapolated_ground("BDD")
e_zk, _ = extrapolated_ground("ZK")
print(f"BDD vs ZK (different points): |E0 difference| = {abs(e_bdd - e_zk):.2e}")
