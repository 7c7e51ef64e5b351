"""Bound-state spectra of H = T + V and cross-ordering comparisons.

H is an assembled kinetic operator T plus a potential V(x) on its
diagonal, assembled under the staggered scheme (no odd-even grid
decoupling), whose levels converge to the continuum ones at O(h^2).
`solve` finds the lowest eigenvalues of the tridiagonal H by calling two
LAPACK routines directly: Sturm-count bisection (`?stebz`) brackets each
one to within 2^-40 of the scaled H's largest entry (LAPACK's default
bisects to rounding), inverse iteration (`?stein`) from the bracket
returns its eigenvector, held as a row, and the eigenvalue reported is
that vector's Rayleigh quotient, which is exact to rounding plus the
squared residual over the gap to the next level. Two levels of one LAPACK
block within 2^10 brackets of each other, from which inverse iteration
can return one vector twice, send H to bisection to rounding instead. It
also splits the pentadiagonal central H, whose +-1 diagonals are zero,
into its even and odd tridiagonal blocks (the slices p::2) laid end to
end; that split is kept only because the benchmark's `spectra` workload
still solves central operators, and goes with them. The calls see H
scaled by a power of two, and `solve` finishes in those coordinates:
H x, the quotients and the residual norms are taken on the scaled
blocks, so that entries near the float limit, and subnormal ones, solve
too, and only the k eigenvalues and norms are scaled back. The
provenance records the bracket width and the largest residual relative
to max|H|. Every eta = 0 ordering assembles exactly symmetric and solves,
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
    `eigenvalues[i]` is the Rayleigh quotient e = (x.Hx)/(x.x) of the unit
    vector x that LAPACK's inverse iteration returns from a bisection
    bracket, and x is zero off the block that e came from.
    `residuals[i]` is ||H x - e x||, measured on H scaled by the power of
    two that brings max|H| into [1/2, 1) and scaled back. It is a few
    rounding errors of max|H| exactly when e is an eigenvalue of H; within
    a degenerate pair x is some vector of the shared eigenspace. Besides
    the operator's own provenance, `provenance` holds "bracket", the
    bisection width in H's units (0.0 where bisection ran to rounding), and
    "max_residual", max(residuals) / max|H| taken in the scaled units, so
    that it reads the same for a subnormal H: an eigenvalue whose gap to its neighbours
    exceeds the bracket is exact to rounding, one in a cluster narrower
    than it with a level of another LAPACK block is within it of the true
    value.
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


# the absolute width to which bisection brackets each eigenvalue of the
# scaled H, whose largest entry lies in [1/2, 1)
_BRACKET = 2.0**-40


def _max_asymmetry(bands: np.ndarray) -> float:
    """max |A[i, j] - A[j, i]| over the band off the main diagonal; entries
    off the band are zero."""
    half, n = (bands.shape[0] - 1) // 2, bands.shape[1]
    return max([float(np.abs(bands[half - k, k:] - bands[half + k, :n - k]).max())
                for k in range(1, half + 1)], default=0.0)


def _eigenvectors(d: np.ndarray, e: np.ndarray, k: int, bracket: float):
    """Eigenvectors of the k lowest levels of the tridiagonal (d, e), one
    per row, grouped by LAPACK block, or None. `?stebz` brackets each level
    to within `bracket` (0.0: to rounding) and `?stein` iterates from the
    brackets. With a nonzero bracket, a nonzero `info` from either routine
    gives None, and so do two adjacent levels of one block within 2^10
    brackets of each other; to rounding, a nonzero `info` is a LinAlgError."""
    # imported here: scipy.linalg is most of the package's import time, and
    # only the eigensolve needs it. The dotted `from scipy.linalg.lapack
    # import ...` loads the same modules but measured about 10 ms slower on
    # a fresh interpreter's first solve
    from scipy.linalg import lapack

    # range 'I' (levels 1 .. k) and order 'B' (by block, ascending in each)
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 0.0, 1, k, bracket, "B")
    routine, w = "?stebz", w[:m]
    # from shifts this close, inverse iteration can return one vector twice
    levels = list(zip(iblock[:m].tolist(), w.tolist()))
    close = bracket and any(b == c and v - u <= 2.0**10 * bracket
                            for (b, u), (c, v) in zip(levels, levels[1:]))
    if info == 0 and not close:
        routine, (z, info) = "?stein", lapack.dstein(d, e, w, iblock, isplit)
        if info == 0:
            # the (n, m) array is Fortran-ordered: its transpose is a view
            # that holds the vectors as contiguous rows
            return z.T
    if bracket:
        return None
    raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info = {info})")


def solve(h: AssembledOperator, k: int) -> SpectrumResult:
    """Lowest k eigenvalues of a symmetric banded operator.

    With half-bandwidth l, H must have zero diagonals at offsets 1 .. l-1
    (read in the lower triangle), so that it splits into l tridiagonal
    blocks, block p on the grid points p, p + l, p + 2l, ... (one block for
    the staggered scheme, two for the central one, which only the benchmark
    assembles). Gathered with the slices p::l, laid end to end and scaled
    by the power of two that brings max|H| into [1/2, 1), the blocks are
    solved together in O(n k): bisection (`?stebz`) brackets the k lowest
    eigenvalues to within 2^-40 of the scaled max|H|, and inverse iteration
    (`?stein`) from each bracket returns a unit eigenvector x, held as a
    row. In the same coordinates each eigenvalue is the Rayleigh quotient
    e = (x.Hx)/(x.x), accurate to rounding plus ||Hx - ex||^2 / gap, and
    the residual ||Hx - ex|| is taken on the blocks; only these k pairs are
    scaled back. Where two levels of one LAPACK block lie within 2^10
    brackets of each other, or inverse iteration fails from the bracket (a
    block of small norm that LAPACK splits off can make it), H is bisected
    to rounding instead; so only levels of different blocks closer than the
    bracket are each within it of the true one."""
    n = h.grid.n
    if not 1 <= k <= n:
        raise KeoError(f"need 1 <= k <= n = {n}, got k = {k}")
    bands, half = h.bands, h.bandwidth
    scale = float(np.abs(bands).max()) or 1.0
    asym = _max_asymmetry(bands)
    if asym > 1e-10 * scale:
        raise NotSymmetric(asym)
    if half == 0 or bands[half + 1:2 * half, :-1].any():
        raise KeoError(f"operator of half-bandwidth {half} does not split into "
                       f"stride-{half} tridiagonal blocks")
    # bisection squares the off-diagonals, so all below works on H scaled to
    # max|H| = unit in [1/2, 1): entries near 1e154 would overflow, and a
    # subnormal H would have no precision. The scaling is exact for every
    # entry that stays a normal float. Rows 0, l and 2l hold each block's
    # upper, main and lower diagonal; laid end to end, the upper cell before
    # and the lower cell after each block lie outside the matrix and hold
    # zero, so LAPACK splits there
    unit, shift = math.frexp(scale)
    rows = bands[::half]
    if half > 1:
        rows = np.concatenate([rows[:, p::half] for p in range(half)], axis=1)
    upper, diagonal, lower = np.ldexp(rows, -shift)
    # the bracket only has to pick out the eigenvalue that inverse iteration
    # converges to; the Rayleigh quotient below fixes its value
    bracket = _BRACKET
    x = _eigenvectors(diagonal, lower[:-1], k, bracket)
    if x is None:
        # two close levels of one block, or ?stein's convergence test, which
        # assumes a shift accurate to rounding and fails without one when
        # the block it lies in has a small norm (in scaled units), as a
        # block that LAPACK splits off where the potential swamps the
        # kinetic coupling can
        bracket = 0.0
        x = _eigenvectors(diagonal, lower[:-1], k, bracket)
    # (d x + u x) + l x, the sums of `applied_to`: each entry rounds alike
    hx = diagonal * x
    hx[:, :-1] += upper[1:] * x[:, 1:]
    hx[:, 1:] += lower[:-1] * x[:, :-1]
    # summed along each row elementwise, not as a BLAS product, whose
    # rounding can depend on its thread count
    values = (x * hx).sum(axis=1) / (x * x).sum(axis=1)
    hx -= values[:, None] * x
    values, residuals = values.tolist(), np.linalg.norm(hx, axis=1).tolist()
    # the rows come block by block, and a level inside a bracket-wide
    # cluster of two blocks can take its neighbour's slot
    rank = sorted(range(len(values)), key=values.__getitem__)
    prov = dict(h.provenance)
    prov["bracket"] = math.ldexp(bracket, shift)
    prov["max_residual"] = max(residuals) / unit
    return SpectrumResult(eigenvalues=tuple(math.ldexp(values[i], shift) for i in rank),
                          grid=h.grid, provenance=prov,
                          residuals=tuple(math.ldexp(residuals[i], shift) for i in rank))


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
