"""Both assembly pathways written out as whole band arrays.

The independent references for `pdmkeo.discretize.assemble_terms` and
`assemble_linear`, which write straight into the diagonals they reach:
here every term is the entrywise product a[i] * core[i, j] * c[j] over
the whole (3, n) layout of the diagonals at offsets +l, 0 and -l, cells
outside the matrix included, with m^s evaluated afresh for every factor
of every term; and the canonical form is the sum of whole band arrays
for the kinetic core, the effective potential and the first-order term.
The float operations on each entry are the same, so each pair agrees to
the byte.
"""

import numpy as np

from pdmkeo.discretize import AssembledOperator


def row_values(a: np.ndarray, half: int) -> np.ndarray:
    """(3, n) view whose band cell [r, j] holds a[i] for its row
    i = j + (r - 1) * half; cells outside the matrix hold 1.0."""
    padded = np.concatenate((np.ones(half), a, np.ones(half)))
    return np.lib.stride_tricks.sliding_window_view(padded, a.size)[::half]


def core_bands(b: np.ndarray, h: float, half: int) -> np.ndarray:
    """Bands of d/dx b d/dx: the three-point divergence stencil on each
    stride-`half` sublattice, b padded with half - 1 zeros at each end."""
    pad = np.zeros(half - 1)
    b = np.concatenate((pad, b, pad))
    n = b.size - half
    s = half * h
    w = 1.0 / (s * s)
    bands = np.zeros((3, n))
    bands[1] = -(w * b[:n] + w * b[half:])
    bands[0, half:] = bands[2, :-half] = w * b[half:n]
    return bands


def reference_assemble_terms(spec, profile, grid, hbar=1.0, scheme="staggered"):
    """`assemble_terms` as a sum of whole-band products, one per term, for
    a spec, profile and grid that it accepts."""
    u = np.asarray(profile.jet(grid.points)[0], dtype=float)
    u_core = u if scheme == "central" else np.asarray(profile.jet(grid.midpoints)[0], dtype=float)
    half = {"central": 2, "staggered": 1}[scheme]
    total = np.zeros((3, grid.n))
    for t in spec.terms:
        w, alpha, beta, gamma = map(float, (t.w, t.alpha, t.beta, t.gamma))
        # m^s = (1/m)^(-s), and x^0 is 1.0 for every x
        a = row_values(u ** -alpha, half)
        c = u ** -gamma
        core = core_bands(u_core ** -beta, grid.h, half)
        total += w * (a * core * c)
    bands = -(hbar**2 / 2.0) * total
    mean_alpha, mean_gamma, _ = spec._means
    if mean_gamma - mean_alpha == 0:
        mean = bands[0, half:] + bands[2, :-half]
        mean /= 2
        bands[0, half:] = bands[2, :-half] = mean
    return AssembledOperator(bands, grid, float(hbar), bandwidth=half)


def reference_assemble_linear(params, profile, grid, hbar=1.0):
    """`assemble_linear` as a sum of whole-band arrays, for parameters,
    a profile and a grid that it accepts."""
    u, du, ddu = (np.asarray(v, dtype=float) for v in profile.jet(grid.points))
    u_mid = np.asarray(profile.jet(grid.midpoints)[0], dtype=float)
    kinetic = -(hbar**2 / 2.0) * core_bands(u_mid, grid.h, 1)
    potential = np.zeros((3, grid.n))
    xi, zeta = float(params.xi), float(params.zeta)
    potential[1] = (hbar**2 / 2.0) * (xi * ddu + zeta * (du * (du / u)))
    bands = kinetic + potential
    if params.eta != 0:
        # eta (hbar^2/2) (1/m)' d/dx, with row i of d/dx (psi[i+1] - psi[i-1]) / (2h)
        derivative = np.zeros((3, grid.n))
        derivative[0, 1:] = 1.0 / (2 * grid.h)
        derivative[2, :-1] = -1.0 / (2 * grid.h)
        bands = bands + float(params.eta) * (hbar**2 / 2.0) * (row_values(du, 1) * derivative)
    return AssembledOperator(bands, grid, float(hbar))
