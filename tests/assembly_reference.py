"""The term-by-term assembly written out as whole band arrays.

The independent reference for `pdmkeo.discretize.assemble_terms`, which
adds each term straight into the three diagonals it reaches: here every
term is the entrywise product a[i] * core[i, j] * c[j] over the full
(2l+1, n) band layout, zero rows and cells outside the matrix included,
with m^s evaluated afresh for every factor of every term. The float
operations on each entry are the same, so the two agree to the byte.
"""

import numpy as np

from pdmkeo.discretize import AssembledOperator


def row_values(a: np.ndarray, half: int) -> np.ndarray:
    """(2*half+1, n) view whose band cell [r, j] holds a[i] for its row
    i = j + r - half; cells outside the matrix hold 1.0."""
    padded = np.concatenate((np.ones(half), a, np.ones(half)))
    return np.lib.stride_tricks.sliding_window_view(padded, a.size)


def core_bands(b: np.ndarray, h: float, half: int) -> np.ndarray:
    """Bands of d/dx b d/dx: the three-point divergence stencil on each
    stride-`half` sublattice, b padded with half - 1 zeros at each end."""
    pad = np.zeros(half - 1)
    b = np.concatenate((pad, b, pad))
    n = b.size - half
    s = half * h
    w = 1.0 / (s * s)
    bands = np.zeros((2 * half + 1, n))
    bands[half] = -w * (b[:n] + b[half:])
    bands[0, half:] = bands[2 * half, :-half] = w * b[half:n]
    return bands


def reference_assemble_terms(spec, profile, grid, hbar=1.0, scheme="central"):
    """`assemble_terms` as a sum of whole-band products, one per term, for
    a spec, profile and grid that it accepts."""
    u = np.asarray(profile.jet(grid.points)[0], dtype=float)
    u_core = u if scheme == "central" else np.asarray(profile.jet(grid.midpoints)[0], dtype=float)
    half = {"central": 2, "staggered": 1}[scheme]
    total = np.zeros((2 * half + 1, grid.n))
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
        mean = bands[0, half:] + bands[2 * half, :-half]
        mean /= 2
        bands[0, half:] = bands[2 * half, :-half] = mean
    return AssembledOperator(bands, grid, float(hbar))
