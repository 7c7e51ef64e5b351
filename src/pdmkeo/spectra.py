"""Bound-state spectra of H = T + V and cross-ordering comparisons.

H is an assembled kinetic operator T plus a potential V(x) on its
diagonal, assembled under the staggered scheme (no odd-even grid
decoupling), whose levels converge to the continuum ones at O(h^2).
`solve` finds the lowest eigenvalues of the tridiagonal H by bisection in
one LAPACK call. It also splits the pentadiagonal central H, whose +-1
diagonals are zero, into its even and odd tridiagonal blocks laid end to
end; that split is kept only because the benchmark's `spectra` workload
still solves central operators, and goes with them. The call sees H
scaled by a power of two, so that entries near the float limit solve
too. Each residual is measured for the eigenvector that the same call
returns. Every eta = 0 ordering assembles exactly symmetric and solves,
mirrored or not; an eta != 0 operator is refused as NotSymmetric.
Dual-pair spectra are computed and reported side by side without
asserting equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .classify import DualityParams, from_duality, invert
from .discretize import AssembledOperator, Grid, assemble_terms
from .errors import KeoError, NotSymmetric
from .profiles import MassProfile, _from_spec_text


@dataclass(frozen=True, eq=False)
class PotentialProfile:
    """External potential V(x) in energy units."""

    name: str
    v: Callable[[np.ndarray], np.ndarray]
    parameters: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parameters", dict(self.parameters))


def zero_potential() -> PotentialProfile:
    return PotentialProfile("zero", lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def harmonic(k=1, x0=0) -> PotentialProfile:
    p = {"k": Fraction(k), "x0": Fraction(x0)}
    kf, x0f = float(p["k"]), float(p["x0"])

    def v(x):
        return 0.5 * kf * (np.asarray(x, dtype=float) - x0f) ** 2

    return PotentialProfile("harmonic", v, p)


POTENTIALS = {"zero": zero_potential, "harmonic": harmonic}


def make_potential(spec: str) -> PotentialProfile:
    """Build a potential from 'name' or 'name:key=value,...' text."""
    return _from_spec_text(spec, "potential", POTENTIALS)


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Lowest eigenvalues in ascending order plus solve metadata.

    The eigenvalues are those of H's tridiagonal blocks (see `solve`).
    `residuals[i]` is ||H x - e x|| for e = `eigenvalues[i]` and the unit
    vector x that LAPACK returns with e, which is zero off the block that e
    came from. It is a few rounding errors of max|H|
    exactly when e is an eigenvalue of H; within a degenerate pair x is
    some vector of the shared eigenspace.
    """

    eigenvalues: tuple[float, ...]
    grid: Grid
    provenance: dict
    residuals: tuple[float, ...]


def hamiltonian(keo: AssembledOperator, potential: PotentialProfile) -> AssembledOperator:
    """H = T + diag(V), the potential evaluated on the operator's grid."""
    v = np.asarray(potential.v(keo.grid.points), dtype=float)
    if not np.all(np.isfinite(v)):
        raise KeoError(f"potential {potential.name!r} is not finite on the grid")
    # T + diag(V) cell by cell: adding 0.0 off the diagonal turns T's -0.0
    # into the +0.0 that the dense sum leaves there
    bands = keo.bands + 0.0
    bands[keo.bandwidth] = keo.bands[keo.bandwidth] + v
    prov = dict(keo.provenance)
    prov["potential"] = potential.name
    return AssembledOperator(bands, keo.grid, keo.hbar, prov)


def _max_asymmetry(bands: np.ndarray) -> float:
    """max |A[i, j] - A[j, i]| over the band; entries off it are zero."""
    half, n = (bands.shape[0] - 1) // 2, bands.shape[1]
    return max(
        float(np.max(np.abs(bands[half - k, k:] - bands[half + k, :n - k])))
        for k in range(half + 1)
    )


def solve(h: AssembledOperator, k: int) -> SpectrumResult:
    """Lowest k eigenvalues of a symmetric banded operator.

    With half-bandwidth l, H must have zero diagonals at offsets 1 .. l-1,
    so that it splits into l tridiagonal blocks, block p on the grid points
    p, p + l, p + 2l, ... (one block for the staggered scheme, two for the
    central one, which only the benchmark assembles). The blocks, laid end
    to end, are solved together by one LAPACK bisection call
    (`eigh_tridiagonal`) in O(n k). Each residual is measured on the full H
    for the eigenvector that the same call returns."""
    # imported here: scipy.linalg is most of the package's import time, and
    # only the eigensolve needs it
    from scipy.linalg import eigh_tridiagonal

    n = h.grid.n
    if not 1 <= k <= n:
        raise KeoError(f"need 1 <= k <= n = {n}, got k = {k}")
    bands, half = h.bands, h.bandwidth
    scale = float(np.max(np.abs(bands))) or 1.0
    asym = _max_asymmetry(bands)
    if asym > 1e-10 * scale:
        raise NotSymmetric(asym)
    # read the lower triangle, as a dense symmetric solver does
    if half == 0 or np.any(bands[half + 1:2 * half, :-1]):
        raise KeoError(f"operator of half-bandwidth {half} does not split into "
                       f"stride-{half} tridiagonal blocks")
    # the blocks laid end to end: the lower-band cell past each block's last
    # point lies outside the matrix and holds zero, so LAPACK splits there
    order = np.concatenate([np.arange(p, n, half) for p in range(half)])
    # bisection squares the off-diagonals, so H is solved scaled by the
    # power of two that brings max|H| into [1/2, 1), and the eigenvalues are
    # scaled back: entries near 1e154 would overflow. The scaling is exact
    # for every entry that stays a normal float
    shift = math.frexp(scale)[1]
    values, vecs = eigh_tridiagonal(
        np.ldexp(bands[half, order], -shift), np.ldexp(bands[2 * half, order][:-1], -shift),
        select="i", select_range=(0, k - 1),
    )
    values = np.ldexp(values, shift)
    x = np.empty((n, values.size))
    x[order] = vecs
    # the norm squares the residual's entries, so it too is taken scaled
    residuals = np.ldexp(
        np.linalg.norm(np.ldexp(h.applied_to(x) - x * values, -shift), axis=0), shift
    )
    return SpectrumResult(
        eigenvalues=tuple(map(float, values)),
        grid=h.grid,
        provenance=dict(h.provenance),
        residuals=tuple(map(float, residuals)),
    )


def spectrum_of_spec(
    spec, profile: MassProfile, potential: PotentialProfile, grid: Grid,
    k: int, hbar: float = 1.0,
) -> SpectrumResult:
    """Assemble T from an ordering (staggered), add V, and solve."""
    keo = assemble_terms(spec, profile, grid, hbar=hbar)
    return solve(hamiltonian(keo, potential), k)


def richardson(coarse: float, fine: float) -> tuple[float, float]:
    """Extrapolated value and error estimate for an O(h^2) quantity computed
    at spacing h (coarse) and h/2 (fine), as on a grid and its `Grid.refined()`."""
    extrapolated = fine + (fine - coarse) / 3.0
    return extrapolated, abs(fine - coarse) / 3.0


@dataclass(frozen=True, eq=False)
class DualPairReport:
    """Side-by-side spectra of a (xi, theta) dual pair; no equality asserted."""

    xi: Fraction
    theta: Fraction
    vr_point: tuple[Fraction, Fraction]
    class_i_point: tuple[Fraction, Fraction]
    vr_alpha_gamma: tuple
    class_i_alpha_gamma: tuple
    parameter_identity: bool
    vr_spectrum: SpectrumResult
    class_i_spectrum: SpectrumResult


def dual_pair_report(
    xi, theta, profile: MassProfile, potential: PotentialProfile,
    grid: Grid, k: int, hbar: float = 1.0,
) -> DualPairReport:
    """Solve both members of the theta <-> -theta pair: the side with
    zeta <= xi^2 inverted as a mirrored (vR) ordering, the other as class I."""
    xi, theta = Fraction(xi), Fraction(theta)
    mag = abs(theta)
    vr_xi, vr_zeta = from_duality(DualityParams(xi, -mag))
    i_xi, i_zeta = from_duality(DualityParams(xi, mag))
    vr_spec = invert(vr_xi, vr_zeta, "vR")
    i_spec = invert(i_xi, i_zeta, "I")
    vr_ag = frozenset((t.alpha, t.gamma) for t in vr_spec.terms)
    i_ag = frozenset((t.alpha, t.gamma) for t in i_spec.terms)
    vr_set = frozenset(v for pair in vr_ag for v in pair)
    i_set = frozenset(v for pair in i_ag for v in pair)
    return DualPairReport(
        xi=xi,
        theta=theta,
        vr_point=(vr_xi, vr_zeta),
        class_i_point=(i_xi, i_zeta),
        vr_alpha_gamma=tuple(sorted(vr_set)),
        class_i_alpha_gamma=tuple(sorted(i_set)),
        parameter_identity=vr_set == i_set,
        vr_spectrum=spectrum_of_spec(vr_spec, profile, potential, grid, k, hbar=hbar),
        class_i_spectrum=spectrum_of_spec(i_spec, profile, potential, grid, k, hbar=hbar),
    )
