"""Workloads: seeded inputs, the timed operation and its output check.

A workload is an endless sequence of rounds. Every round has the same
composition (operation types, grid sizes, schemes), so a run made of
whole rounds puts the same cost mix in front of the program for every
seed. The seed draws the content: orderings, points, profiles,
potentials, and the order within the round.

An operation is an `Op`: `run(pk)` makes the library calls that are timed
and returns their outputs; `check(outputs)` compares them with values the
benchmark derives without the timed path and returns None or a reason.

This module imports nothing heavy at import time (numpy and scipy are
imported inside the checks), so that the set-up measurement of a fresh
worker still pays every import the package itself makes.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Any, Callable

HALF = F(1, 2)
GRID = (-1.0, 1.0)  # every grid in the numerical workloads spans [-1, 1]
SPECTRUM_K = 5

# catalog entries by number of terms; the term count sets assembly cost
ONE_TERM = ("ZK", "MM", "MB(-1/2)", "MB(-1/3)", "MB(-1/4)")
TWO_TERM = ("GW", "LK", "YY", "LKDA(-1/3)", "LKDA(-1/2)", "vR(-1/4,-1/2)", "vR(-1/3,0)")
THREE_TERM = ("W", "Lal")
FOUR_TERM = ("DA(-1/2)", "DA(1)", "DA(-1/3)")
CATALOG = ("BDD",) + ONE_TERM + TWO_TERM + THREE_TERM + FOUR_TERM

PROFILE_CHOICES = {
    "constant": ("constant:m0=1", "constant:m0=2", "constant:m0=1/2"),
    "lorentzian": ("lorentzian:m0=1,lam=1", "lorentzian:m0=1,lam=1/2", "lorentzian:m0=2,lam=2"),
    "gaussian_bump": ("gaussian_bump:lam=1,sigma=1/4", "gaussian_bump:lam=1/2,sigma=1/3"),
    "smoothed_step": ("smoothed_step:lam=1/2,sigma=1/4", "smoothed_step:lam=-1/3,sigma=1/2"),
    "cosine_bump": ("cosine_bump:lam=1", "cosine_bump:m0=2,lam=1/2"),
}
POTENTIAL_CHOICES = ("zero", "harmonic:k=1", "harmonic:k=4", "harmonic:k=16")


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], "str | None"]
    tags: dict = field(default_factory=dict)


def _profile(rng: random.Random, allow_constant: bool = True) -> str:
    names = [p for p in PROFILE_CHOICES if allow_constant or p != "constant"]
    return rng.choice(PROFILE_CHOICES[rng.choice(names)])


# ---------------------------------------------------------------- exact oracle


def allowed(xi: F, zeta: F) -> bool:
    return -HALF <= xi <= 0 and 0 <= zeta <= -xi / 2


def expected_labels(xi: F, zeta: F) -> tuple[set, set]:
    """Regions containing (xi, zeta) and the boundary curves through it,
    straight from the class definitions in the (xi, zeta) plane."""
    mb = xi * xi
    i_iii = mb + (xi + HALF) ** 2
    regions = set()
    if zeta <= mb:
        regions.add("vR")
    if mb <= zeta <= min(i_iii, 2 * mb):
        regions.add("I")
    if zeta >= 2 * mb:
        regions.add("II")
    if zeta >= i_iii:
        regions.add("III")
    curves = (("MB", mb), ("I/II", 2 * mb), ("I/III", i_iii), ("upper", -xi / 2), ("lower", 0))
    flags = {name for name, value in curves if zeta == value}
    return regions, flags


def _label_error(xi, zeta, labels) -> "str | None":
    regions, flags = expected_labels(xi, zeta)
    if {lab.region for lab in labels} != regions:
        return f"classify regions at ({xi}, {zeta})"
    seen = set()
    for lab in labels:
        if not set(lab.boundaries) <= flags:
            return f"classify boundaries at ({xi}, {zeta})"
        seen |= set(lab.boundaries)
    if seen != flags:
        return f"classify boundaries at ({xi}, {zeta})"
    return None


def random_point(rng: random.Random) -> tuple[F, F]:
    """An allowed rational point; small denominators land on boundary curves often."""
    den = rng.choice((2, 3, 4, 6, 8, 12, 16, 24, 30))
    i = rng.randint(0, den)
    j = rng.randint(0, i)
    return F(-i, 2 * den), F(j, 4 * den)


def random_terms(rng: random.Random) -> list[tuple[F, F, F, F]]:
    """1 to 4 terms (w, alpha, beta, gamma), positive weights summing to 1."""
    counts = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
    terms = []
    for c in counts:
        q = rng.choice((1, 2, 3, 4, 6))
        alpha, gamma = F(-rng.randint(0, q), q), F(-rng.randint(0, q), q)
        terms.append((F(c, sum(counts)), alpha, -1 - alpha - gamma, gamma))
    return terms


def _mass_factors(e: F, rng: random.Random) -> list[str]:
    if e == 0:
        return []
    if e == -1 and rng.random() < 0.5:
        return ["1/m"]
    if e == -HALF and rng.random() < 0.5:
        return ["1/sqrt(m)"]
    if rng.random() < 0.25:
        first = F(rng.choice((-1, 1)), rng.choice((2, 3)))
        if first != e:
            return [f"m^({first})", f"m^({e - first})"]
    return [f"m^({e})"]


def terms_text(terms, rng: random.Random) -> str:
    """Expression text in the parser's grammar, with equivalent spellings
    (1/m, 1/sqrt(m), split mass powers, p^2) drawn at random."""
    pieces = []
    for w, alpha, beta, gamma in terms:
        factors = _mass_factors(alpha, rng)
        if beta == 0 and rng.random() < 0.5:
            factors.append("p^2")
        else:
            factors += ["p"] + _mass_factors(beta, rng) + ["p"]
        factors += _mass_factors(gamma, rng)
        pieces.append(f"{w / 2} * " + " ".join(factors))
    return " + ".join(pieces)


def params_of(terms) -> tuple[F, F, F]:
    xi = sum(w * g for w, _, _, g in terms)
    zeta = sum(w * a * g for w, a, _, g in terms)
    return xi, zeta, xi - sum(w * a for w, a, _, _ in terms)


# -------------------------------------------------------------------- algebra

REGION_RESOLUTION = 9


def point_op(xi: F, zeta: F) -> Op:
    def run(pk):
        labels = pk.classify(xi, zeta)
        round_trips = {
            lab.region: pk.linear_params(pk.invert(xi, zeta, lab.region)).as_tuple()
            for lab in labels
        }
        d = pk.to_duality(xi, zeta)
        try:
            image = pk.dual(d)
            dual_out = (image, pk.dual(image), pk.from_duality(image))
        except pk.errors.DualOutsideAllowedRegion:
            dual_out = None
        return labels, round_trips, d, dual_out

    def check(out):
        labels, round_trips, d, dual_out = out
        error = _label_error(xi, zeta, labels)
        if error:
            return error
        if any(lp != (xi, zeta, 0) for lp in round_trips.values()):
            return f"invert round trip at ({xi}, {zeta})"
        if (d.xi, d.theta) != (xi, zeta - xi * xi):
            return "to_duality"
        image_zeta = 2 * xi * xi - zeta
        if not allowed(xi, image_zeta):
            return None if dual_out is None else "dual accepted a point outside the region"
        if dual_out is None:
            return "dual refused a dualizable point"
        image, back, point = dual_out
        if image.theta != -d.theta or back != d or point != (xi, image_zeta):
            return "dual involution"
        return None

    return Op("point", run, check)


def spec_op(terms, text: str) -> Op:
    expected = params_of(terms)

    def run(pk):
        s = pk.parse(text)
        lp = pk.linear_params(s).as_tuple()
        canon = pk.print_canonical(s)
        return lp, canon, pk.print_canonical(pk.parse(canon))

    def check(out):
        lp, canon, again = out
        if lp != expected:
            return f"linear_params of {text!r}"
        if again != canon:
            return f"print_canonical fixpoint of {text!r}"
        return None

    return Op("spec", run, check)


def region_op(resolution: int) -> Op:
    steps = resolution - 1
    grid = [
        (F(i, 2 * steps) - HALF, F(j, 4 * steps))
        for i in range(resolution)
        for j in range(resolution)
    ]
    expected_points = [p for p in grid if allowed(*p)]

    def run(pk):
        return pk.region_samples(resolution)

    def check(samples):
        if [(xi, zeta) for xi, zeta, _ in samples] != expected_points:
            return "region_samples points"
        for xi, zeta, labels in samples:
            error = _label_error(xi, zeta, labels)
            if error:
                return error
        return None

    return Op("region", run, check)


def algebra_round(rng: random.Random) -> list[Op]:
    # 10 points, 7 specs, 3 region maps: regions are the slowest 15% of
    # operations, so p90 sits inside them and p50 inside the points
    ops = [point_op(*random_point(rng)) for _ in range(10)]
    for _ in range(7):
        terms = random_terms(rng)
        ops.append(spec_op(terms, terms_text(terms, rng)))
    ops += [region_op(REGION_RESOLUTION) for _ in range(3)]
    rng.shuffle(ops)
    return ops


def algebra_warmup() -> list[Op]:
    terms = [(HALF, F(-1), F(0), F(0)), (HALF, F(0), F(0), F(-1))]
    return [point_op(F(-1, 3), F(1, 6)), spec_op(terms, terms_text(terms, random.Random(0))),
            region_op(REGION_RESOLUTION)]


# -------------------------------------------------------------------- spectra

SPECTRA_SIZES = (400, 800, 1600)


def mirrored_text(rng: random.Random) -> str:
    """A Hermitian ordering whose terms come in mirrored pairs or are
    symmetric (alpha = gamma); these assemble to symmetric matrices."""
    if rng.random() < 0.5:
        a, g = F(-rng.randint(0, 4), 4), F(-rng.randint(0, 4), 4)
        terms = [(HALF, a, -1 - a - g, g), (HALF, g, -1 - a - g, a)]
    else:
        counts = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        terms = []
        for c in counts:
            a = F(-rng.randint(0, 6), 12)
            terms.append((F(c, sum(counts)), a, -1 - 2 * a, a))
    return terms_text(terms, rng)


def non_mirrored_text(rng: random.Random) -> str:
    """A Hermitian ordering (eta = 0 exactly) that is not built from mirrored
    pairs, e.g. 1/4 m^(-3/4) p m^(-1/4) p + 1/8 p m^(-1/2) p m^(-1/2) + 1/8 p p 1/m."""
    while True:
        a1, g1 = F(-rng.randint(2, 4), 4), F(-rng.randint(0, 1), 4)  # gamma - alpha > 0
        a2, g2 = F(0), F(-rng.randint(1, 4), 4)                          # gamma - alpha < 0
        a3 = F(-rng.randint(0, 4), 8)                                    # symmetric filler
        w1 = F(rng.randint(1, 3), 8)
        w2 = w1 * (g1 - a1) / (a2 - g2)
        w3 = 1 - w1 - w2
        mirrored = g1 == 0 and g2 == a1  # then w1 = w2 and terms 1, 2 mirror each other
        if w3 > 0 and not mirrored:
            break
    terms = [(w1, a1, -1 - a1 - g1, g1), (w2, a2, -1 - a2 - g2, g2), (w3, a3, -1 - 2 * a3, a3)]
    return terms_text(terms, rng)


def _box_eigenvalues(n: int, scheme: str, m0: float):
    """Exact eigenvalues of the constant-mass, zero-potential operator:
    the three-point Laplacian (staggered) or the square of the central
    difference (central), on the Dirichlet grid over GRID."""
    import numpy as np

    h = (GRID[1] - GRID[0]) / (n + 1)
    j = np.arange(1, n + 1)
    if scheme == "staggered":
        values = 2.0 * np.sin(j * np.pi / (2 * (n + 1))) ** 2 / (m0 * h * h)
    else:
        values = np.cos(j * np.pi / (n + 1)) ** 2 / (2.0 * m0 * h * h)
    return np.sort(values)[:SPECTRUM_K]


def eigen_residual(matrix, value: float, band: int, b) -> float:
    """||H x - value x|| for x from two steps of inverse iteration with shift
    `value`, solved in banded form; small only if `value` is an eigenvalue of
    the full dense `matrix`."""
    import numpy as np
    from scipy.linalg import solve_banded

    n = matrix.shape[0]
    ab = np.zeros((2 * band + 1, n))
    for k in range(-band, band + 1):
        diagonal = np.diagonal(matrix, k)
        if k >= 0:
            ab[band - k, k:] = diagonal
        else:
            ab[band - k, : n + k] = diagonal
    ab[band] -= value
    x = b
    for _ in range(2):
        x = solve_banded((band, band), ab, x, check_finite=False)
        x = x / np.linalg.norm(x)
    return float(np.linalg.norm(matrix @ x - value * x))


# eigen-residual bound relative to max|H|; the dense solver's backward error
# is a small multiple of machine epsilon times max|H|
RESIDUAL_BOUND = 1e-11


def spectra_op(source: str, ordering, profile: str, potential: str, n: int, scheme: str,
               seed: int) -> Op:
    def run(pk):
        if source == "catalog":
            s = pk.catalog(ordering)
        elif source == "inverse":
            s = pk.invert(*ordering)
        else:
            s = pk.parse(ordering)
        keo = pk.assemble_terms(s, pk.make_profile(profile), pk.Grid(*GRID, n), scheme=scheme)
        h = pk.hamiltonian(keo, pk.make_potential(potential))
        return h, pk.solve(h, SPECTRUM_K)

    def check(out):
        import numpy as np

        h, result = out
        values = np.asarray(result.eigenvalues, dtype=float)
        if values.shape != (SPECTRUM_K,) or not np.all(np.isfinite(values)):
            return "eigenvalue count"
        if np.any(np.diff(values) < 0):
            return "eigenvalues not ascending"
        matrix = np.real(h.matrix)
        scale = float(np.max(np.abs(matrix)))
        if profile.startswith("constant") and potential == "zero":
            m0 = float(F(profile.partition("m0=")[2]))
            if np.max(np.abs(values - _box_eigenvalues(n, scheme, m0))) > RESIDUAL_BOUND * scale:
                return f"box spectrum n={n} {scheme}"
            return None
        band = 1 if scheme == "staggered" else 2
        b = np.random.default_rng(seed).standard_normal(n)
        for value in values:
            if eigen_residual(matrix, value, band, b) > RESIDUAL_BOUND * scale:
                return f"eigen-residual n={n} {scheme}"
        return None

    return Op("spectrum", run, check, {"n": n, "scheme": scheme, "source": source})


def spectra_round(rng: random.Random) -> list[Op]:
    ops = []
    for n in SPECTRA_SIZES:
        schemes = ["staggered"] * 3 + ["central"] * 3
        rng.shuffle(schemes)
        sources = ["catalog", "catalog", "inverse", "inverse", "parsed", "parsed"]
        for source, scheme in zip(sources, schemes):
            if source == "catalog":
                ordering = rng.choice(CATALOG)
            elif source == "inverse":
                xi, zeta = random_point(rng)
                region = rng.choice(sorted(expected_labels(xi, zeta)[0]))
                ordering = (xi, zeta, region)
            else:
                ordering = mirrored_text(rng)
            ops.append(spectra_op(source, ordering, _profile(rng), rng.choice(POTENTIAL_CHOICES),
                                  n, scheme, rng.randrange(2**32)))
    rng.shuffle(ops)
    return ops


# The known-defect probe: non-mirrored Hermitian orderings, which `solve`
# refuses with NotSymmetric today (ROADMAP item 3). Their discrete asymmetry
# shrinks like h^3 relative to max|H|; at n = 400 with the central scheme it
# stays above solve's 1e-10 threshold for every draw, while at larger n or
# with the staggered scheme some draws slip under it and come back with
# wrong eigenvalues. A constant mass makes every ordering symmetric and would
# hide the defect, so the mass varies.
PROBE_OPS = 6
PROBE_SIZE = 400
PROBE_SCHEME = "central"


def spectra_probe(rng: random.Random) -> list[Op]:
    return [spectra_op("parsed", non_mirrored_text(rng), _profile(rng, allow_constant=False),
                       rng.choice(POTENTIAL_CHOICES), PROBE_SIZE, PROBE_SCHEME, rng.randrange(2**32))
            for _ in range(PROBE_OPS)]


def spectra_warmup() -> list[Op]:
    return [spectra_op("catalog", "YY", "lorentzian", "zero", SPECTRA_SIZES[0], "staggered", 0)]


# known-defect probes by workload: run after the measurement, reported in the
# run record and kept out of the timed operations and their counts
PROBES = {"spectra": spectra_probe}


# --------------------------------------------------------------------- defect

# n -> copies per round of the five orderings (1, 2, 3 and 4 catalog terms,
# one eta != 0 term); two thirds of the operations at the smaller n puts p50
# inside the n = 1000 operations and p90 inside the n = 2000 ones
DEFECT_SIZES = {1000: 2, 2000: 1}
# exact agreement (constant mass) is checked against this multiple of the
# operator scale 1/(m h^2)
EXACT_BOUND = 1e-11


def _psi(x):
    # vanishes to fourth order at both ends, so the boundary rows do not
    # spoil second-order agreement for profiles with a nonzero end slope
    return ((x - GRID[0]) * (GRID[1] - x)) ** 4


def random_non_hermitian(rng: random.Random):
    """One term m^alpha p m^beta p m^gamma with alpha != gamma (eta != 0)."""
    alpha, gamma = rng.sample([F(0), F(-1, 4), F(-1, 2), F(-3, 4), F(-1)], 2)
    return [(F(1), alpha, -1 - alpha - gamma, gamma)]


def defect_op(ordering, profile: str, n: int, stratum: str) -> Op:
    def run(pk):
        s = pk.catalog(ordering) if isinstance(ordering, str) else pk.spec(ordering)
        mass = pk.make_profile(profile)
        coarse = pk.equivalence_defect(s, mass, pk.Grid(*GRID, n), _psi)
        fine = pk.equivalence_defect(s, mass, pk.Grid(*GRID, 2 * n), _psi)
        return coarse, fine

    def check(out):
        coarse, fine = out
        if profile.startswith("constant"):
            # every ordering is p(1/m)p/2 for a constant mass: agreement is exact
            m0 = float(F(profile.partition("m0=")[2]))
            h = (GRID[1] - GRID[0]) / (2 * n + 1)
            if max(coarse, fine) > EXACT_BOUND / (m0 * h * h):
                return f"constant-mass defect not at rounding level (n={n})"
            return None
        if not (fine > 0 and 3.5 <= coarse / fine <= 4.5):
            return f"defect ratio {coarse / fine if fine else 'inf'} not second order (n={n})"
        return None

    return Op("defect", run, check, {"n": n, "stratum": stratum})


def defect_round(rng: random.Random) -> list[Op]:
    ops = []
    for n, copies in DEFECT_SIZES.items():
        for _ in range(copies):
            strata = {"1-term": rng.choice(ONE_TERM), "2-term": rng.choice(TWO_TERM),
                      "3-term": rng.choice(THREE_TERM), "4-term": rng.choice(FOUR_TERM),
                      "eta": random_non_hermitian(rng)}
            for stratum, ordering in strata.items():
                ops.append(defect_op(ordering, _profile(rng), n, stratum))
    rng.shuffle(ops)
    return ops


def defect_warmup() -> list[Op]:
    # full size: the first large allocations of a process cost more than
    # later ones, and that belongs to set-up
    return [defect_op("YY", "lorentzian", min(DEFECT_SIZES), "2-term")]


# ------------------------------------------------------------------------ cli

CLI_N = {"assemble": "200", "defect": "200", "spectrum": "500"}
CLI_RESOLUTION = "51"
GOLDEN_TABLE = os.path.join("tests", "golden", "table1.json")


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    from pdmkeo import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def cli_argv(command: str, rng: random.Random) -> list[str]:
    if command == "table1":
        return ["table1"]
    if command == "region":
        return ["region", "--resolution", CLI_RESOLUTION]
    if command == "params":
        if rng.random() < 0.5:
            return ["params", "--name", rng.choice(CATALOG)]
        return ["params", "--expr", terms_text(random_terms(rng), rng)]
    xi, zeta = random_point(rng)
    if command == "classify":
        return ["classify", "--xi", str(xi), "--zeta", str(zeta)]
    if command == "invert":
        region = rng.choice(sorted(expected_labels(xi, zeta)[0]))
        return ["invert", "--xi", str(xi), "--zeta", str(zeta), "--class", region] + (
            ["--float"] if rng.random() < 0.25 else [])
    if command == "dual":
        while not allowed(xi, 2 * xi * xi - zeta):
            xi, zeta = random_point(rng)
        return ["dual", "--xi", str(xi), "--zeta", str(zeta)]
    argv = [command, "--name", rng.choice(CATALOG), "--profile", _profile(rng), "--n", CLI_N[command]]
    if command == "assemble":
        argv += ["--format", "csv"]
    if command == "spectrum":
        argv += ["--potential", rng.choice(POTENTIAL_CHOICES)]
    return argv


CLI_COMMANDS = ("table1", "params", "classify", "invert", "dual", "assemble", "defect",
                "spectrum", "region")


def cli_op(argv: list[str], span: Callable) -> Op:
    command = argv[0]

    def run(_pk):
        return subprocess.run([sys.executable, "-m", "pdmkeo", *argv], capture_output=True,
                              timeout=120)

    def check(proc):
        if proc.returncode != 0:
            return f"{command} exit code {proc.returncode}: {proc.stderr.decode()[-200:]}"
        with span(f"cli.{command}"):
            code, reference = run_cli_inprocess(argv)
        if code != 0 or proc.stdout != reference:
            return f"{command} stdout differs from in-process cli.main"
        if command == "table1":
            with open(GOLDEN_TABLE, "rb") as fh:
                if proc.stdout != fh.read():
                    return "table1 differs from the golden file"
        return None

    return Op(command, run, check, {"command": command})


def cli_round(rng: random.Random, span: Callable) -> list[Op]:
    ops = [cli_op(cli_argv(command, rng), span) for command in CLI_COMMANDS]
    rng.shuffle(ops)
    return ops


def cli_warmup() -> list[Op]:
    return [Op("table1", lambda _pk: run_cli_inprocess(["table1"]), lambda out: None)]
