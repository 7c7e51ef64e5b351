"""Finite-difference assembly of kinetic operators on a uniform 1D grid.

Two independent pathways build the same operator:

  * terms path: compose each building block m^a p m^b p m^c from diagonal
    mass-power matrices and the antisymmetric central-difference momentum.
  * linear path: the canonical form p(1/m)p/2 plus a first-order term
    proportional to the Hermiticity defect plus a multiplicative
    effective potential driven by (xi, zeta).

Agreement of the two pathways at O(h^2) is the numerical oracle for the
reduction of a multi-term ordering to its linear parameters.

Both pathways support a 'central' scheme (pure central-difference
composition, exactly antisymmetric momentum, used by the oracle) and a
'staggered' scheme (three-point divergence form with half-grid mass
sampling, free of odd-even decoupling, used for spectra).

Every operator is banded, pentadiagonal under the central scheme and
tridiagonal under the staggered one, and is assembled, added and applied
as its diagonals in O(n). `AssembledOperator.matrix` is the one dense
form, built on demand for export and for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonPositiveMass
from .ordering import LinearParams, OrderingSpec, _mean, check, linear_params
from .profiles import MassProfile

SCHEMES = ("central", "staggered")
# half-bandwidth of each scheme's operator: D diag(b) D spans two
# neighbours on each side, the three-point divergence form one
_HALF_BANDWIDTH = {"central": 2, "staggered": 1}


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n interior points on [x_min, x_max], Dirichlet ends."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3 interior points")
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.h))):
            raise ValueError(
                f"need finite x_min, x_max and spacing, got x_min = {self.x_min!r}, "
                f"x_max = {self.x_max!r}, h = {self.h!r}"
            )
        if not self.x_max > self.x_min:
            raise ValueError("need x_max > x_min")
        # the second-derivative stencils scale with 1/h^2, which must be finite
        if not (self.h * self.h > 0 and math.isfinite(1 / (self.h * self.h))):
            raise ValueError(f"need a spacing with a finite 1/h^2, got h = {self.h!r}")

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
        """Grid with roughly half the spacing (2n interior points)."""
        return Grid(self.x_min, self.x_max, 2 * self.n)


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """A kinetic (or full) operator stored by its diagonals.

    `bands` is real (float64) for every ordering, eta != 0 included: in
    position representation m^a p m^b p m^c and the first-order term
    eta (i hbar/2)(1/m)' p = eta (hbar^2/2)(1/m)' d/dx are real
    operators. It is scipy's banded layout: shape (2l+1, n) with
    `bands[l + i - j, j] == A[i, j]`, where the half-bandwidth l is 1 for
    the staggered scheme (tridiagonal) and 2 for the central one
    (pentadiagonal). The cells of `bands` that fall outside the n x n
    matrix stand for the entries outside the band: every operation treats
    them like any other entry, so they hold the signed zero that dense
    arithmetic leaves there, and `matrix` writes that value off the band.
    Every entry is finite: an overflowing operator is a ValueError.
    """

    bands: np.ndarray
    grid: Grid
    hbar: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        # hbar^2/h^2 * m^s can overflow though hbar and the grid pass their checks
        if not np.isfinite(self.bands).all():
            raise ValueError(
                f"operator entries are not finite (hbar = {self.hbar!r}, h = {self.grid.h!r})"
            )

    @property
    def bandwidth(self) -> int:
        """Half-bandwidth l: A[i, j] == 0 whenever |i - j| > l."""
        return (self.bands.shape[0] - 1) // 2

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix, built on each access (the export form)."""
        return _dense(self.bands)

    def applied_to(self, psi: np.ndarray) -> np.ndarray:
        """Banded matrix-vector product A @ psi (psi of shape (n,) or (n, m))."""
        psi = np.asarray(psi)
        half, n = self.bandwidth, self.grid.n
        cols = self.bands.reshape(self.bands.shape + (1,) * (psi.ndim - 1))
        out = np.zeros(psi.shape, dtype=np.result_type(self.bands, psi))
        for r in range(2 * half + 1):
            k = half - r  # column minus row on this diagonal
            lo, hi = max(0, -k), min(n, n - k)
            out[lo:hi] += cols[r, lo + k:hi + k] * psi[lo + k:hi + k]
        return out


def _dense(bands: np.ndarray) -> np.ndarray:
    width, n = bands.shape
    half = width // 2
    dense = np.full((n, n), bands[0, 0])
    for r in range(width):
        k = half - r
        i = np.arange(max(0, -k), min(n, n - k))
        dense[i, i + k] = bands[r, i + k]
    return dense


def _row_values(a: np.ndarray, half: int) -> np.ndarray:
    """(2*half+1, n) view whose band cell [r, j] holds a[i] for its row
    i = j + r - half; cells outside the matrix hold 1.0."""
    padded = np.concatenate((np.ones(half), a, np.ones(half)))
    return np.lib.stride_tricks.sliding_window_view(padded, a.size)


def _diagonal_bands(v: np.ndarray, half: int) -> np.ndarray:
    """Bands of diag(v) at half-bandwidth `half`."""
    bands = np.zeros((2 * half + 1, v.size), dtype=v.dtype)
    bands[half] = v
    return bands


def _derivative_bands(n: int, h: float, half: int) -> np.ndarray:
    bands = np.zeros((2 * half + 1, n))
    bands[half - 1, 1:] = 1.0 / (2 * h)
    bands[half + 1, :-1] = -1.0 / (2 * h)
    return bands


def derivative_matrix(grid: Grid) -> np.ndarray:
    """Central-difference first derivative, exactly antisymmetric under
    Dirichlet truncation (momentum is -i*hbar times this)."""
    return _dense(_derivative_bands(grid.n, grid.h, 1))


def _inverse_mass_at(profile: MassProfile, x: np.ndarray) -> np.ndarray:
    u = np.asarray(profile.inv_m(x), dtype=float)
    bad = np.where(~(u > 0))[0]
    if bad.size:
        i = int(bad[0])
        raise NonPositiveMass(i, float(x[i]), float(u[i]))
    return u


def _as_float(value, what: str) -> float:
    """float(value); an exact value that no float holds is a ValueError."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def _mass_power(u: np.ndarray, s: float) -> np.ndarray:
    """diag values of m^s from inverse-mass samples (m^s = u^(-s))."""
    if s == 0.0:
        return np.ones_like(u)
    return u ** (-s)


def _central_core(b: np.ndarray, h: float) -> np.ndarray:
    """D diag(b) D as the five bands of a pentadiagonal matrix."""
    n = b.size
    w = 1.0 / (4 * h * h)
    diag = np.zeros(n)
    diag[1:] += b[:-1]
    diag[:-1] += b[1:]
    bands = np.zeros((5, n))
    bands[2] = -w * diag
    bands[0, 2:] = w * b[1:-1]
    bands[4, :-2] = w * b[1:-1]
    return bands


def _staggered_core(b_mid: np.ndarray, h: float) -> np.ndarray:
    """-G^T diag(b_mid) G, the three-point divergence form of d/dx b d/dx,
    as the three bands of a tridiagonal matrix."""
    n = b_mid.size - 1
    w = 1.0 / (h * h)
    bands = np.zeros((3, n))
    bands[1] = -w * (b_mid[:-1] + b_mid[1:])
    bands[0, 1:] = w * b_mid[1:-1]
    bands[2, :-1] = w * b_mid[1:-1]
    return bands


def assemble_terms(
    spec: OrderingSpec,
    profile: MassProfile,
    grid: Grid,
    hbar: float = 1.0,
    scheme: str = "central",
) -> AssembledOperator:
    """Term-by-term banded composition of a weighted multi-term ordering:
    each term m^a p m^b p m^c contributes diag(m^a) core(m^b) diag(m^c)."""
    check(spec)
    _require_scheme_and_hbar(scheme, hbar)
    x = grid.points
    u = _inverse_mass_at(profile, x)
    if scheme == "staggered":
        u_mid = _inverse_mass_at(profile, grid.midpoints)
    half = _HALF_BANDWIDTH[scheme]
    total = np.zeros((2 * half + 1, grid.n))
    for i, t in enumerate(spec.terms):
        w, alpha, beta, gamma = (
            _as_float(v, f"term {i}: weight or exponent") for v in (t.w, t.alpha, t.beta, t.gamma)
        )
        a = _row_values(_mass_power(u, alpha), half)
        c = _mass_power(u, gamma)
        if scheme == "central":
            core = _central_core(_mass_power(u, beta), grid.h)
        else:
            core = _staggered_core(_mass_power(u_mid, beta), grid.h)
        # entrywise a[i] * core[i, j] * c[j], in the dense product's order
        total += w * (a * core * c)
    bands = -(hbar**2 / 2.0) * total
    eta = _mean(spec, "gamma") - _mean(spec, "alpha")
    prov = {
        "pathway": "terms",
        "scheme": scheme,
        "spec": spec.name or "",
        "terms": [[str(t.w), str(t.alpha), str(t.beta), str(t.gamma)] for t in spec.terms],
        "profile": profile.name,
        "eta": str(eta),
    }
    return AssembledOperator(bands, grid, float(hbar), prov)


def effective_potential(
    params: LinearParams, profile: MassProfile, x, hbar: float = 1.0
):
    """Multiplicative reordering potential (hbar^2/2) [xi (1/m)'' + zeta ((1/m)')^2 m]."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    u = _inverse_mass_at(profile, xs)
    du = np.asarray(profile.d_inv_m(xs), dtype=float)
    ddu = np.asarray(profile.dd_inv_m(xs), dtype=float)
    xi, zeta = _as_float(params.xi, "xi"), _as_float(params.zeta, "zeta")
    out = (hbar**2 / 2.0) * (xi * ddu + zeta * du**2 / u)
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def assemble_linear(
    params: LinearParams,
    profile: MassProfile,
    grid: Grid,
    hbar: float = 1.0,
    scheme: str = "central",
) -> AssembledOperator:
    """Canonical assembly p(1/m)p/2 + defect term + effective potential."""
    _require_scheme_and_hbar(scheme, hbar)
    x = grid.points
    u = _inverse_mass_at(profile, x)
    if scheme == "central":
        kinetic = -(hbar**2 / 2.0) * _central_core(u, grid.h)
    else:
        kinetic = -(hbar**2 / 2.0) * _staggered_core(
            _inverse_mass_at(profile, grid.midpoints), grid.h
        )
    half = _HALF_BANDWIDTH[scheme]
    bands = kinetic + _diagonal_bands(effective_potential(params, profile, x, hbar), half)
    if params.eta != 0:
        # first-order term eta (i hbar / 2) (1/m)' p in position representation
        du = _row_values(np.asarray(profile.d_inv_m(x), dtype=float), half)
        bands = bands + _as_float(params.eta, "eta") * (hbar**2 / 2.0) * (
            du * _derivative_bands(grid.n, grid.h, half)
        )
    prov = {
        "pathway": "linear",
        "scheme": scheme,
        "params": {"xi": str(params.xi), "zeta": str(params.zeta), "eta": str(params.eta)},
        "profile": profile.name,
        "eta": str(params.eta),
    }
    return AssembledOperator(bands, grid, float(hbar), prov)


def _require_scheme_and_hbar(scheme: str, hbar: float) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    # the operators scale with hbar^2, which must be finite too
    if not (math.isfinite(hbar) and math.isfinite(hbar * hbar)):
        raise ValueError(f"need a finite hbar with a finite hbar^2, got hbar = {hbar!r}")


def equivalence_defect(
    spec: OrderingSpec,
    profile: MassProfile,
    grid: Grid,
    test_function: Callable[[np.ndarray], np.ndarray],
    hbar: float = 1.0,
) -> float:
    """||(A_terms - A_linear) psi||_2 / ||psi||_2 for psi sampled from a smooth
    boundary-vanishing test function; the two-pathway agreement oracle.
    A zero or non-finite ||psi||, or a non-finite defect, is a ValueError."""
    a = assemble_terms(spec, profile, grid, hbar=hbar, scheme="central")
    b = assemble_linear(linear_params(spec), profile, grid, hbar=hbar, scheme="central")
    psi = np.asarray(test_function(grid.points), dtype=float)
    norm = float(np.linalg.norm(psi))
    if norm == 0:
        raise ValueError("test function vanishes identically on the grid")
    defect = float(np.linalg.norm(a.applied_to(psi) - b.applied_to(psi)) / norm)
    if not (math.isfinite(norm) and math.isfinite(defect)):
        raise ValueError(f"defect is not finite: ||psi|| = {norm!r}, defect = {defect!r}")
    return defect


def to_csv(op: AssembledOperator) -> str:
    """Row-major dense CSV at full precision."""
    # row by row: the Python floats of one row at a time, not all n^2
    lines = [",".join(map(repr, row.tolist())) for row in op.matrix]
    return "\n".join(lines) + "\n"


def to_json_dict(op: AssembledOperator) -> dict:
    """JSON envelope {grid, hbar, provenance, matrix}, the matrix dense."""
    return {
        "grid": {
            "x_min": op.grid.x_min,
            "x_max": op.grid.x_max,
            "n": op.grid.n,
            "h": op.grid.h,
        },
        "hbar": op.hbar,
        "provenance": op.provenance,
        "matrix": op.matrix.tolist(),
    }
