"""Finite-difference assembly of kinetic operators on a uniform 1D grid.

Two independent pathways build the same operator:

  * terms path: compose each building block m^a p m^b p m^c from diagonal
    mass-power matrices and the antisymmetric central-difference momentum.
  * linear path: the canonical form p(1/m)p/2 plus a first-order term
    proportional to the Hermiticity defect plus a multiplicative
    effective potential driven by (xi, zeta).

Agreement of the two pathways at O(h^2) is the numerical oracle for the
reduction of a multi-term ordering to its linear parameters. A mass
profile is read only through its jet, x -> (1/m, (1/m)', (1/m)''), and
is checked where it is sampled: 1/m at every point an operator uses, and
the derivatives, which only the linear path reads, in
`_check_derivatives`, against finite differences of 1/m.

Both pathways use the staggered scheme: the kinetic core d/dx b d/dx is
the three-point divergence stencil `_core_diagonals` with b sampled at
the n + 1 midpoints, so the operator is tridiagonal and free of odd-even
decoupling, and its spectra converge to the continuum levels at O(h^2).
Every operator is stored as its three nonzero diagonals, at offsets +l,
0 and -l (l = 1 here), and assembled, added and applied as them in O(n).
The terms path adds each term into the three diagonals, entry by entry
in the dense product's order, and evaluates m^s once per distinct
exponent of the ordering: once per exponent at the grid points for the
outer factors, and once per core exponent at the midpoints. The linear
path writes the core and the effective potential, and the first-order
term, whose central difference also sits at offsets +-1, when eta != 0.
An ordering with eta = 0 assembles to an exactly symmetric operator.
`to_csv` and `to_json_dict` write the dense export row by row from the
three diagonals; `AssembledOperator.matrix`, built on demand, is the
dense reference that the tests and the benchmark compare against.

Each diagonal has one formula, whose sums and squares are taken after
weighting, so they overflow only where an entry does: the core weights
each sample by 1/h^2 before two are summed, and the effective potential
takes ((1/m)')^2 m as du (du / u). lorentzian on [0, 1e154] (1/m ~ 1e308)
assembles with no floating-point warning. The finiteness check of
`AssembledOperator` is the one gate: an operator whose entries, or a
mass power m^s itself, overflow is refused.

`assemble_terms` alone also takes scheme='central', the
D diag(m^b) D composition: the same stencil on the even and on the odd
grid points with spacing 2h, b at the grid points between them, so its
three diagonals have stride l = 2. Its spectra are those of two boxes
with Neumann-type ends, not of the Dirichlet problem, so nothing in the
package picks it; it is kept, with `SCHEMES` and the stencil's stride,
only because the benchmark's `spectra` workload assembles it, and goes
when that workload stops doing so.

Each pathway is a public wrapper, which checks hbar, samples the profile
and records the provenance, around a private function that takes the
samples (`_terms_operator`, `_linear_operator`). Every staggered
assembly samples the profile with `_sample`: one jet call on the 2n + 1
half-step points, whose odd and even points are the grid points and the
midpoints to the byte. `equivalence_defect` hands one such sampling to
both pathways; `defect_convergence` runs it on a grid and on its
refinement.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import KeoError, NonPositiveMass
from .ordering import LinearParams, OrderingSpec, is_hermitian, linear_params, weighted_mean
from .profiles import MassProfile

# the schemes `assemble_terms` takes; central only for the benchmark (see above)
SCHEMES = ("central", "staggered")


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n interior points on [x_min, x_max], Dirichlet ends."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        try:
            operator.index(self.n)
        except TypeError:
            raise KeoError(f"need an integer n, got n = {self.n!r}") from None
        if self.n < 3:
            raise KeoError("need n >= 3 interior points")
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.h))):
            raise KeoError(
                f"need finite x_min, x_max and spacing, got x_min = {self.x_min!r}, "
                f"x_max = {self.x_max!r}, h = {self.h!r}"
            )
        if not self.x_max > self.x_min:
            raise KeoError("need x_max > x_min")
        # the second-derivative stencils scale with 1/h^2, which must be finite
        if not (self.h * self.h > 0 and math.isfinite(1 / (self.h * self.h))):
            raise KeoError(f"need a spacing with a finite 1/h^2, got h = {self.h!r}")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n + 1)

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n + 1)

    @property
    def midpoints(self) -> np.ndarray:
        """The n+1 half-grid points straddling the interior nodes."""
        return self.x_min + self.h * (np.arange(self.n + 1) + 0.5)

    def refined(self) -> "Grid":
        """Grid with half the spacing: 2n + 1 interior points, so the n + 1
        steps of h become 2n + 2 steps of h/2."""
        return Grid(self.x_min, self.x_max, 2 * self.n + 1)


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """A kinetic (or full) operator stored by its three nonzero diagonals.

    `bands` is real (float64) for every ordering, eta != 0 included: in
    position representation m^a p m^b p m^c and the first-order term
    eta (i hbar/2)(1/m)' p = eta (hbar^2/2)(1/m)' d/dx are real
    operators. It has shape (3, n): rows 0, 1 and 2 hold the diagonals at
    offsets +l, 0 and -l for the stride l = `bandwidth`,
    `bands[0, j] == A[j - l, j]` and `bands[2, j] == A[j + l, j]`, and
    every other entry of A is zero. l is 1 for the staggered scheme
    (tridiagonal) and 2 for the central one that `assemble_terms` also
    takes. The cells of rows 0 and 2 outside the matrix hold the signed
    zero that dense arithmetic leaves off the band, and `matrix` and the
    exports write that value there. Another shape, an l that is not an integer in 1 .. n - 1 or an
    entry that is not finite is a KeoError.
    """

    bands: np.ndarray
    grid: Grid
    hbar: float
    provenance: dict = field(default_factory=dict)
    bandwidth: int = 1

    def __post_init__(self):
        n, l = self.grid.n, self.bandwidth
        if np.shape(self.bands) != (3, n) or not (isinstance(l, Integral) and 1 <= l < n):
            raise KeoError(f"need bands of shape (3, n) and an integer bandwidth 1 <= l < n "
                             f"for n = {n}, got shape {np.shape(self.bands)} and l = {l!r}")
        # hbar^2/h^2 * m^s can overflow though hbar and the grid pass their checks
        if not np.isfinite(self.bands).all():
            raise KeoError(
                f"operator entries are not finite (hbar = {self.hbar!r}, h = {self.grid.h!r})"
            )

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix, built on each access (the reference form)."""
        return _dense(self.bands, self.bandwidth)

    def applied_to(self, psi: np.ndarray) -> np.ndarray:
        """Banded matrix-vector product A @ psi for psi of shape (n,), and A
        applied to each row of psi of shape (m, n)."""
        return _apply(self.bands, np.asarray(psi), self.bandwidth)


def _apply(bands: np.ndarray, x: np.ndarray, l: int) -> np.ndarray:
    """The three-row `bands` of stride l times x along x's last axis, as
    (d x + u x) + w x for the rows u, d and w."""
    upper, diagonal, lower = bands
    out = diagonal * x
    out[..., :-l] += upper[l:] * x[..., l:]
    out[..., l:] += lower[:-l] * x[..., :-l]
    return out


def _dense(bands: np.ndarray, l: int) -> np.ndarray:
    i = np.arange(bands.shape[1])
    dense = np.full((i.size, i.size), bands[0, 0])
    dense[i[:-l], i[l:]] = bands[0, l:]
    dense[i, i] = bands[1]
    dense[i[l:], i[:-l]] = bands[2, :-l]
    return dense


def derivative_matrix(grid: Grid) -> np.ndarray:
    """Central-difference first derivative, exactly antisymmetric under
    Dirichlet truncation (momentum is -i*hbar times this)."""
    bands = np.zeros((3, grid.n))
    bands[0, 1:] = 1.0 / (2 * grid.h)
    bands[2, :-1] = -1.0 / (2 * grid.h)
    return _dense(bands, 1)


def _sample(profile: MassProfile, grid: Grid, derivatives: bool = False) -> tuple:
    """The profile's jet from one call on the 2n + 1 points x_min + j h/2,
    j = 1 .. 2n + 1, whose odd points [1::2] are the grid points and even
    points [0::2] the midpoints to the byte: (h/2) 2j == h j and
    (h/2) (2j + 1) == h (j + 1/2), h/2 being normal where 1/h^2 is finite.
    Returns contiguous copies of 1/m at the grid points, of (1/m)' and
    (1/m)'' there if `derivatives`, and of 1/m at the midpoints, checked in
    that order (`_positive`, `_check_derivatives`); a NonPositiveMass names
    the index in its own set."""
    x = grid.x_min + (grid.h / 2) * np.arange(1, 2 * grid.n + 2)
    jet = [np.asarray(v, dtype=float) for v in profile.jet(x)]
    u = _positive(jet[0][1::2].copy(), x[1::2])
    if derivatives:
        du, ddu = (v[1::2].copy() for v in jet[1:])
        _check_derivatives(profile, x[1::2], u, du, ddu)
    u_mid = _positive(jet[0][0::2].copy(), x[0::2])
    return (u, du, ddu, u_mid) if derivatives else (u, u_mid)


def _positive(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u, samples of 1/m at x; the first not finite and positive is a NonPositiveMass."""
    bad = np.flatnonzero(~(np.isfinite(u) & (u > 0)))
    if bad.size:
        i = int(bad[0])
        raise NonPositiveMass(i, float(x[i]), float(u[i]))
    return u


def _as_float(value, what: str) -> float:
    """float(value); an exact value that no float holds is a KeoError."""
    try:
        return float(value)
    except OverflowError:
        raise KeoError(f"{what} is too large for a float") from None


def _core_diagonals(b: np.ndarray, h: float, half: int) -> tuple[np.ndarray, np.ndarray]:
    """d/dx b d/dx as the three-point divergence stencil on each stride-`half`
    sublattice (spacing half*h), b sampled halfway between its neighbours:
    the n+1 midpoint samples for half = 1, the n grid-point samples for
    half = 2 (which makes it D diag(b) D), padded with half - 1 zeros at each
    end for the Dirichlet points beyond the grid. Returns its diagonal (n
    values) and its symmetric off-diagonal at offsets +-half (n - half values,
    entry k coupling grid points k and k + half). Each sample is weighted by
    1/(half*h)^2 before two are summed: two samples of b can sum past the
    float limit where the entry does not."""
    pad = np.zeros(half - 1)
    b = np.concatenate((pad, b, pad))
    n = b.size - half
    s = half * h
    wb = (1.0 / (s * s)) * b
    return -(wb[:n] + wb[half:]), wb[half:n]


def assemble_terms(
    spec: OrderingSpec,
    profile: MassProfile,
    grid: Grid,
    hbar: float = 1.0,
    scheme: str = "staggered",
) -> AssembledOperator:
    """Term-by-term banded composition of a weighted multi-term ordering:
    each term m^a p m^b p m^c contributes diag(m^a) core(m^b) diag(m^c).
    An ordering with eta = 0 gives the exactly symmetric (A + A^T)/2.
    scheme='central' is kept only for the benchmark (see the module doc)."""
    if scheme not in SCHEMES:
        raise KeoError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    _require_hbar(hbar)
    if scheme == "central":
        u = u_core = _positive(np.asarray(profile.jet(grid.points)[0], dtype=float), grid.points)
    else:
        u, u_core = _sample(profile, grid)
    prov = {
        "pathway": "terms",
        "scheme": scheme,
        "spec": spec.name or "",
        "terms": [[str(t.w), str(t.alpha), str(t.beta), str(t.gamma)] for t in spec.terms],
        "profile": profile.name,
        "eta": str(weighted_mean(spec, "gamma") - weighted_mean(spec, "alpha")),
    }
    return _terms_operator(spec, u, u_core, grid, hbar, scheme, prov)


def _terms_operator(
    spec: OrderingSpec, u: np.ndarray, u_core: np.ndarray, grid: Grid, hbar: float,
    scheme: str, provenance: dict,
) -> AssembledOperator:
    """`assemble_terms` from checked samples of 1/m at the grid points (u)
    and at the core stencil's points (u_core): the midpoints, or the grid
    points again under the central scheme."""
    # the stencil's stride: D diag(b) D couples grid points two apart
    half = 2 if scheme == "central" else 1
    total = np.zeros((3, grid.n))
    # the three diagonals a term reaches; the cells outside the matrix stay +0.0
    diag, upper, lower = total[1], total[0, half:], total[2, :-half]
    # m^s = u^(-s) at the grid points and core stencils, each once per
    # distinct exponent (u^-0.0 is exactly 1.0)
    powers, cores = {}, {}
    for i, t in enumerate(spec.terms):
        w, alpha, beta, gamma = (
            _as_float(v, f"term {i}: weight or exponent") for v in (t.w, t.alpha, t.beta, t.gamma)
        )
        for s in (alpha, gamma):
            if s not in powers:
                powers[s] = u ** (-s)
        if beta not in cores:
            cores[beta] = _core_diagonals(u_core ** (-beta), grid.h, half)
        a, c, (core, off) = powers[alpha], powers[gamma], cores[beta]
        # A[i, j] += ((a[i] * core[i, j]) * c[j]) * w, the order of the
        # dense product w diag(a) core diag(c), entry by entry
        diag += a * core * c * w
        upper += a[:-half] * off * c[half:] * w
        lower += a[half:] * off * c[:-half] * w
    bands = -(hbar**2 / 2.0) * total
    if is_hermitian(spec):
        # Hermitian in the continuum, so made exactly symmetric: (A + A^T)/2.
        # A[i, j] and A[j, i] differ by rounding for mirrored terms, and by
        # O(h^3) relative to max|A| for orderings that are not mirrored
        mean = bands[0, half:] + bands[2, :-half]
        mean /= 2
        bands[0, half:] = bands[2, :-half] = mean
    return AssembledOperator(bands, grid, float(hbar), provenance, bandwidth=half)


def effective_potential(
    params: LinearParams, profile: MassProfile, x, hbar: float = 1.0
):
    """Multiplicative reordering potential (hbar^2/2) [xi (1/m)'' + zeta ((1/m)')^2 m]."""
    _require_hbar(hbar)
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    u, du, ddu = (np.asarray(v, dtype=float) for v in profile.jet(flat))
    _check_derivatives(profile, flat, _positive(u, flat), du, ddu)
    out = _effective_potential(params, u, du, ddu, hbar)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _check_derivatives(profile: MassProfile, x: np.ndarray, u, du, ddu) -> None:
    """A derivative (d_inv_m, dd_inv_m) sampled at x, with u = 1/m there, that
    is not finite, or unlike central differences of 1/m at every
    (x.size // 21)-th point by more than the rounding of x explains, is a
    KeoError."""
    if x.size == 0:
        return
    # a scale is NaN or inf if one of its samples is
    scale, scale1, scale2 = max(1.0, float(u.max())), *(float(np.abs(v).max()) for v in (du, ddu))
    for name, v, s in (("d_inv_m", du, scale1), ("dd_inv_m", ddu, scale2)):
        if not math.isfinite(s):
            i = int(np.flatnonzero(~np.isfinite(v))[0])
            raise KeoError(f"profile {profile.name!r}: {name} is not finite at index {i}")
    # the step resolves the profile's own length, scale/|u'| or sqrt(scale/|u''|)
    h = 1e-4 * min(1.0, scale / scale1 if scale1 else 1.0,
                   math.sqrt(scale / scale2) if scale2 else 1.0)
    # a point passes at step h or h/10: it may sit in the tail of a feature h does not resolve
    steps = np.array([[h], [h / 10], [-h], [-h / 10]])
    k = slice(None, None, max(1, x.size // 21))
    probe = np.asarray(profile.jet((x[k] + steps).ravel())[0], dtype=float)
    ahead, behind = probe.reshape(2, 2, -1)
    # x + h and the profile's own arithmetic on x round at eps |x|, which
    # moves a sample of 1/m by up to eps |x| |u'|: far from 0 that swamps the
    # differences, and where x + h rounds to x it is all they hold
    noise = 2 * np.finfo(float).eps * np.abs(x[k]) * scale1
    step = steps[:2]
    with np.errstate(all="ignore"):  # a non-finite 1/m off the grid fails below
        err1 = np.fmin(*(np.abs((ahead - behind) / (2 * step) - du[k]) - noise / step)).max()
        # differences from u first: ahead + behind can overflow where they do not
        err2 = np.fmin(*(np.abs(((ahead - u[k]) + (behind - u[k])) / step**2 - ddu[k])
                         - 4 * noise / step**2)).max()
    for name, err, tol in (("d_inv_m", err1, 1e-5 * max(scale, scale1)),
                           ("dd_inv_m", err2, 1e-3 * max(scale, scale2))):
        if not err <= tol:
            raise KeoError(f"profile {profile.name!r}: {name} disagrees with finite differences")


def _effective_potential(params: LinearParams, u, du, ddu, hbar: float) -> np.ndarray:
    """`effective_potential` from samples of 1/m and its two derivatives."""
    xi, zeta = _as_float(params.xi, "xi"), _as_float(params.zeta, "zeta")
    # ((1/m)')^2 m as du (du / u): du^2 overflows near the float limit where it does not
    return (hbar**2 / 2.0) * (xi * ddu + zeta * (du * (du / u)))


def assemble_linear(
    params: LinearParams,
    profile: MassProfile,
    grid: Grid,
    hbar: float = 1.0,
) -> AssembledOperator:
    """Canonical assembly p(1/m)p/2 + defect term + effective potential,
    tridiagonal (the staggered scheme)."""
    _require_hbar(hbar)
    u, du, ddu, u_mid = _sample(profile, grid, derivatives=True)
    prov = {
        "pathway": "linear",
        "scheme": "staggered",
        "params": {"xi": str(params.xi), "zeta": str(params.zeta), "eta": str(params.eta)},
        "profile": profile.name,
        "eta": str(params.eta),
    }
    return _linear_operator(params, u, du, ddu, u_mid, grid, hbar, prov)


def _linear_operator(
    params: LinearParams, u: np.ndarray, du: np.ndarray, ddu: np.ndarray, u_mid: np.ndarray,
    grid: Grid, hbar: float, provenance: dict,
) -> AssembledOperator:
    """`assemble_linear` from checked samples of 1/m, (1/m)' and (1/m)'' at
    the grid points and of 1/m at the midpoints (u_mid)."""
    core, off = _core_diagonals(u_mid, grid.h, 1)
    c = -(hbar**2 / 2.0)
    # the core and the first-order term both sit at offsets +-1; the two
    # cells outside the matrix stay +0.0
    bands = np.zeros((3, grid.n))
    bands[1] = c * core + _effective_potential(params, u, du, ddu, hbar)
    bands[0, 1:] += c * off
    bands[2, :-1] += c * off
    if params.eta != 0:
        # first-order term eta (i hbar / 2) (1/m)' p = eta (hbar^2 / 2) (1/m)' d/dx
        # in position representation: row i of d/dx is (psi[i+1] - psi[i-1]) / (2h)
        k = _as_float(params.eta, "eta") * (hbar**2 / 2.0)
        inv = 1.0 / (2 * grid.h)
        bands[0, 1:] += k * (du[:-1] * inv)
        bands[2, :-1] += k * (du[1:] * -inv)
    return AssembledOperator(bands, grid, float(hbar), provenance)


def _require_hbar(hbar: float) -> None:
    # the operators scale with hbar^2, which must be finite too
    if not (math.isfinite(hbar) and math.isfinite(hbar * hbar)):
        raise KeoError(f"need a finite hbar with a finite hbar^2, got hbar = {hbar!r}")


def equivalence_defect(
    spec: OrderingSpec,
    profile: MassProfile,
    grid: Grid,
    test_function: Callable[[np.ndarray], np.ndarray],
    hbar: float = 1.0,
) -> float:
    """||(A_terms - A_linear) psi||_2 / ||psi||_2 for psi sampled from a smooth
    boundary-vanishing test function; the two-pathway agreement oracle.
    A zero or non-finite ||psi||, or a non-finite defect, is a KeoError.
    Both pathways are assembled under the staggered scheme from one `_sample`."""
    _require_hbar(hbar)
    u, du, ddu, u_mid = _sample(profile, grid, derivatives=True)
    a = _terms_operator(spec, u, u_mid, grid, hbar, "staggered", {})
    b = _linear_operator(linear_params(spec), u, du, ddu, u_mid, grid, hbar, {})
    psi = np.asarray(test_function(grid.points), dtype=float)
    norm = float(np.linalg.norm(psi))
    if norm == 0:
        raise KeoError("test function vanishes identically on the grid")
    defect = float(np.linalg.norm(a.applied_to(psi) - b.applied_to(psi)) / norm)
    if not (math.isfinite(norm) and math.isfinite(defect)):
        raise KeoError(f"defect is not finite: ||psi|| = {norm!r}, defect = {defect!r}")
    return defect


@dataclass(frozen=True)
class DefectConvergence:
    """`equivalence_defect` on a grid (n points) and on its refinement
    (n_refined = 2n + 1 points, half the spacing). `ratio` is
    defect_n / defect_refined, None when defect_refined is 0;
    `observed_order` is log2(ratio), the order in h, None when ratio is
    None or 0."""

    defect_n: float
    n_refined: int
    defect_refined: float
    ratio: float | None
    observed_order: float | None


def defect_convergence(
    spec: OrderingSpec,
    profile: MassProfile,
    grid: Grid,
    test_function: Callable[[np.ndarray], np.ndarray],
    hbar: float = 1.0,
) -> DefectConvergence:
    """The two-pathway defect on `grid` and on `grid.refined()`, with the
    observed order of their agreement in h."""
    try:
        fine = grid.refined()
    except ValueError as exc:
        raise KeoError(f"the refined grid of 2n + 1 = {2 * grid.n + 1} points is refused: "
                         f"{exc}") from None
    coarse_defect = equivalence_defect(spec, profile, grid, test_function, hbar=hbar)
    fine_defect = equivalence_defect(spec, profile, fine, test_function, hbar=hbar)
    ratio = coarse_defect / fine_defect if fine_defect > 0 else None
    return DefectConvergence(
        defect_n=coarse_defect,
        n_refined=fine.n,
        defect_refined=fine_defect,
        ratio=ratio,
        observed_order=math.log2(ratio) if ratio else None,
    )


def _rows(bands: list, l: int):
    """The dense rows of the three diagonals `bands` (lists, of floats or of
    their text) of stride l, one list at a time. Every cell off the
    diagonals is the one object bands[0][0], the signed zero that `_dense`
    fills with, so a row costs a pointer per cell."""
    upper, diagonal, lower = bands
    n = len(diagonal)
    for i in range(n):
        row = [upper[0]] * n
        if i >= l:
            row[i - l] = lower[i - l]
        row[i] = diagonal[i]
        if i + l < n:
            row[i + l] = upper[i + l]
        yield row


def to_csv(op: AssembledOperator) -> str:
    """Row-major dense CSV at full precision, written from the diagonals."""
    text = [list(map(repr, row)) for row in op.bands.tolist()]
    return "".join(",".join(row) + "\n" for row in _rows(text, op.bandwidth))


def to_json_dict(op: AssembledOperator) -> dict:
    """JSON envelope {grid, hbar, provenance, matrix}, the matrix dense (a
    list of rows of floats) and written from the diagonals."""
    return {
        "grid": {
            "x_min": op.grid.x_min,
            "x_max": op.grid.x_max,
            "n": op.grid.n,
            "h": op.grid.h,
        },
        "hbar": op.hbar,
        "provenance": op.provenance,
        "matrix": list(_rows(op.bands.tolist(), op.bandwidth)),
    }
