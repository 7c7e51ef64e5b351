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
squared residual over the gap to the next level. The calls form one
ladder, `_eigenvectors`, the only place that asks LAPACK: where two levels
of one LAPACK block lie within 2^10 brackets of each other, from which
inverse iteration can return one vector twice, or where either routine
fails, it bisects to rounding instead, and only a failure there is an
error. H is stored as its three nonzero diagonals, at offsets +l, 0
and -l, so it is l tridiagonal blocks on the grid points p, p + l,
p + 2l, ...: one for the staggered scheme, and the even and odd blocks
(the slices p::2), laid end to end, for the central operators that the
benchmark's `spectra` workload still solves. The calls see H scaled by a
power of two, and `solve` finishes in those coordinates: H x (`_apply`,
the product of `AssembledOperator.applied_to`), the quotients and the
residual norms are taken on the scaled blocks, so that entries near the
float limit, and subnormal ones, solve too, and only the k eigenvalues
and norms are scaled back. The provenance records the bracket width and
the largest residual relative to max|H|. Every eta = 0 ordering
assembles exactly symmetric and solves, mirrored or not. `spectrum_of_spec`
refuses an eta != 0 ordering before assembly, naming the Hermitian one it
is similar to, and `solve` refuses a non-symmetric operator as
NotSymmetric. Dual-pair spectra are computed and reported side by side
without asserting equality.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .classify import DualityParams, from_duality, invert
from .discretize import AssembledOperator, Grid, _apply, assemble_terms
from .errors import KeoError, NotSymmetric
from .ordering import weighted_mean
from .profiles import MassProfile, _from_spec_text
from .surds import rational


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
    bands[1] = keo.bands[1] + v
    prov = dict(keo.provenance)
    prov["potential"] = potential.name
    return AssembledOperator(bands, keo.grid, keo.hbar, prov, bandwidth=keo.bandwidth)


# the absolute width to which bisection brackets each eigenvalue of the
# scaled H, whose largest entry lies in [1/2, 1)
_BRACKET = 2.0**-40


def _eigenvectors(d: np.ndarray, e: np.ndarray, k: int):
    """(rows, bracket): eigenvectors of the k lowest levels of the
    tridiagonal (d, e), one per row, grouped by LAPACK block, and the width
    `?stebz` bracketed them to, `_BRACKET` or, on the next rung, 0.0 (to
    rounding), before `?stein` iterated from the brackets."""
    # imported here: scipy.linalg is most of the package's import time, and
    # only the eigensolve needs it. The dotted `from scipy.linalg.lapack
    # import ...` loads the same modules but measured about 10 ms slower on
    # a fresh interpreter's first solve
    from scipy.linalg import lapack

    for bracket in (_BRACKET, 0.0):
        # range 'I' (levels 1 .. k) and order 'B' (by block, ascending in each)
        m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 0.0, 1, k, bracket, "B")
        routine, w = "?stebz", w[:m]
        # from shifts this close, inverse iteration can return one vector twice
        levels = list(zip(iblock[:m].tolist(), w.tolist()))
        close = bracket and any(b == c and v - u <= 2.0**10 * bracket
                                for (b, u), (c, v) in zip(levels, levels[1:]))
        if info == 0 and not close:
            # ?stein's convergence test assumes a shift accurate to rounding
            # and can fail without one when the block it lies in has a small
            # norm (in scaled units), as a block that LAPACK splits off where
            # the potential swamps the kinetic coupling can
            routine, (z, info) = "?stein", lapack.dstein(d, e, w, iblock, isplit)
            if info == 0:
                # the (n, m) array is Fortran-ordered: its transpose is a
                # view that holds the vectors as contiguous rows
                return z.T, bracket
    raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info = {info})")


def _check_k(k, n: int) -> int:
    """k as an int; one that is not an integer in 1 .. n is a KeoError."""
    try:
        k = operator.index(k)
    except TypeError:
        raise KeoError(f"need an integer k, got k = {k!r}") from None
    if not 1 <= k <= n:
        raise KeoError(f"need 1 <= k <= n = {n}, got k = {k}")
    return k


def solve(h: AssembledOperator, k: int) -> SpectrumResult:
    """Lowest k eigenvalues of a symmetric banded operator.

    H is its three nonzero diagonals, at offsets +l, 0 and -l for its stride
    l, so it splits into l tridiagonal blocks, block p on the grid points p,
    p + l, p + 2l, ... (one block for the staggered scheme, two for the
    central one, which only the benchmark assembles). Gathered with the
    slices p::l, laid end to end and scaled by the power of two that brings
    max|H| into [1/2, 1), the blocks are solved together in O(n k):
    bisection (`?stebz`) brackets the k lowest eigenvalues to within 2^-40
    of the scaled max|H|, and inverse iteration (`?stein`) from each bracket
    returns a unit eigenvector x, held as a row. In the same coordinates
    each eigenvalue is the Rayleigh quotient e = (x.Hx)/(x.x), accurate to
    rounding plus ||Hx - ex||^2 / gap, and the residual ||Hx - ex|| is taken
    on the blocks; only these k pairs are scaled back. Both LAPACK calls go
    through one ladder: where two levels of one LAPACK block lie within 2^10
    brackets of each other, or either routine fails from the bracket (a
    block of small norm that LAPACK splits off can make `?stein` fail), H is
    bisected to rounding instead, and a failure there is a LinAlgError that
    names the routine and its `info`; so only levels of different blocks
    closer than the bracket are each within it of the true one."""
    k = _check_k(k, h.grid.n)
    bands, l = h.bands, h.bandwidth
    scale = float(np.abs(bands).max()) or 1.0
    # max |H[i, j] - H[j, i]|, over the diagonals at +-l: H is zero off them
    asym = float(np.abs(bands[0, l:] - bands[2, :-l]).max())
    if asym > 1e-10 * scale:
        raise NotSymmetric(asym)
    # bisection squares the off-diagonals, so all below works on H scaled to
    # max|H| = unit in [1/2, 1): entries near 1e154 would overflow, and a
    # subnormal H would have no precision. The scaling is exact for every
    # entry that stays a normal float. Laid end to end, the blocks' rows are
    # one stride-1 operator: the upper cell before and the lower cell after
    # each block lie outside the matrix and hold zero, so LAPACK splits there
    unit, shift = math.frexp(scale)
    rows = np.ldexp(np.concatenate([bands[:, p::l] for p in range(l)], axis=1), -shift)
    _, diagonal, lower = rows
    # the bracket only has to pick out the eigenvalue that inverse iteration
    # converges to; the Rayleigh quotient below fixes its value
    x, bracket = _eigenvectors(diagonal, lower[:-1], k)
    hx = _apply(rows, x, 1)
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
    """Check k and eta, assemble T from an ordering (staggered), add V, and
    solve. An eta != 0 ordering is refused before assembly: with psi =
    m^(-eta/2) phi it is similar to the Hermitian (xi - eta/2, zeta + eta^2/4)."""
    _check_k(k, grid.n)
    xi, zeta = weighted_mean(spec, "gamma"), weighted_mean(spec, "alpha_gamma")
    eta = xi - weighted_mean(spec, "alpha")
    if eta != 0:
        raise KeoError(f"eta = {eta} != 0: the ordering is not Hermitian; psi = m^(-eta/2) phi "
                       f"makes it the Hermitian (xi, zeta) = ({xi - eta / 2}, "
                       f"{zeta + eta * eta / 4})")
    keo = assemble_terms(spec, profile, grid, hbar=hbar)
    return solve(hamiltonian(keo, potential), k)


def richardson(coarse: float, fine: float) -> tuple[float, float]:
    """Extrapolated value and error estimate for an O(h^2) quantity computed
    at spacing h (coarse) and h/2 (fine), as on a grid and its `Grid.refined()`."""
    extrapolated = fine + (fine - coarse) / 3.0
    return extrapolated, abs(fine - coarse) / 3.0


@dataclass(frozen=True, eq=False)
class DualPairReport:
    """Side-by-side spectra of a (xi, theta) dual pair; no equality asserted.

    theta = Cov_w(alpha, gamma), so both sides hold the exponents
    xi +- sqrt|theta|: as a mirrored pair (vR) and as two symmetric terms
    (class I). `parameter_identity`, the equality of their {alpha, gamma}
    sets, is therefore True wherever both inversions exist."""

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
    xi, theta = rational(xi), rational(theta)
    mag = abs(theta)
    vr_xi, vr_zeta = from_duality(DualityParams(xi, -mag))
    i_xi, i_zeta = from_duality(DualityParams(xi, mag))
    vr_spec = invert(vr_xi, vr_zeta, "vR")
    i_spec = invert(i_xi, i_zeta, "I")
    vr_set = frozenset(v for t in vr_spec.terms for v in (t.alpha, t.gamma))
    i_set = frozenset(v for t in i_spec.terms for v in (t.alpha, t.gamma))
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
