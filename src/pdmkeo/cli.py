"""Command-line interface with machine-readable JSON/CSV output.

Every command takes the parsed arguments and returns (doc, csv_text): the
JSON document and the CSV text, either of them None when the command has
no such form or the other format was asked for. Exit codes: 0 success,
1 domain error (single-line diagnostic on stderr, no traceback), 2 usage
error. Exact quantities cross the boundary as rational strings like
"-1/3"; grid and physical quantities as decimals.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from fractions import Fraction

from .classify import (
    BOUNDARY_NAMES,
    REGIONS,
    classify,
    dual,
    from_duality,
    invert,
    region_samples,
    to_duality,
)
from .errors import KeoError
from .ordering import catalog, linear_params, validate
from .parser import parse, print_canonical
from .surds import Surd

# The numerical modules (discretize, profiles, spectra) are imported inside
# the commands that use them: they load numpy, which the exact-algebra
# subcommands never need.

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# let argparse accept values like -1/3 (its stock matcher only knows -1, -0.5)
_NEGATIVE_VALUE_RE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def rational_arg(text):
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational like -1/3, got {text!r}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")


def _csv(rows) -> str:
    return "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"


def _emit(args, doc, csv_text) -> None:
    if args.format == "csv":
        if csv_text is None:
            raise KeoError("this command has no CSV form; use --format json")
        text = csv_text
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_spec(args):
    if getattr(args, "name", None):
        spec = catalog(args.name)
    else:
        spec = parse(args.expr)
    for warning in validate(spec):
        print(f"warning: {warning}", file=sys.stderr)
    return spec


def _grid(args):
    from .discretize import Grid

    return Grid(args.xmin, args.xmax, args.n)


def _sorted_labels(labels):
    return sorted(labels, key=lambda lab: REGIONS.index(lab.region))


def _label_doc(label) -> dict:
    bounds = sorted(label.boundaries, key=BOUNDARY_NAMES.index)
    return {"region": label.region, "boundaries": bounds}


def _bump_psi(grid):
    # each factor scaled before it is squared, so psi stays of order one
    # however short or long [a, b] is
    a, b = grid.x_min, grid.x_max
    half = (b - a) / 2.0

    def psi(x):
        return ((x - a) / half * ((b - x) / half)) ** 2

    return psi


def cmd_params(args):
    spec = _resolve_spec(args)
    lp = linear_params(spec)
    return {"xi": str(lp.xi), "zeta": str(lp.zeta), "eta": str(lp.eta)}, None


def cmd_classify(args):
    labels = _sorted_labels(classify(args.xi, args.zeta))
    return {
        "xi": str(args.xi),
        "zeta": str(args.zeta),
        "labels": [_label_doc(lab) for lab in labels],
    }, None


def cmd_invert(args):
    spec = invert(args.xi, args.zeta, args.cls, float_mode=args.float)
    fmt = (lambda v: repr(float(v))) if args.float else str
    doc = {
        "class": args.cls,
        "xi": str(args.xi),
        "zeta": str(args.zeta),
        "float_mode": args.float,
        "terms": [
            {key: fmt(getattr(t, key)) for key in ("w", "alpha", "beta", "gamma")}
            for t in spec.terms
        ],
    }
    if not args.float and all(
        not isinstance(v, Surd) or v.is_rational
        for t in spec.terms
        for v in (t.w, t.alpha, t.beta, t.gamma)
    ):
        doc["expression"] = print_canonical(spec)
    else:
        doc["expression"] = None
    return doc, None


def cmd_dual(args):
    d = to_duality(args.xi, args.zeta)
    image = dual(d)
    _, dual_zeta = from_duality(image)
    return {
        "xi": str(args.xi),
        "zeta": str(args.zeta),
        "theta": str(d.theta),
        "dual_theta": str(image.theta),
        "dual_zeta": str(dual_zeta),
    }, None


TABLE_ENTRIES = (
    "vR(-1/4,-1/2)",
    "MB(-1/3)",
    "BDD",
    "ZK",
    "MM",
    "GW",
    "LKDA(-1/3)",
    "LK",
    "W",
    "DA(-1/2)",
    "Lal",
    "YY",
)


def cmd_table1(args):
    rows = []
    for name in TABLE_ENTRIES:
        spec = catalog(name)
        lp = linear_params(spec)
        rows.append(
            {
                "name": spec.name,
                "weights": [str(t.w) for t in spec.terms],
                "alpha": [str(t.alpha) for t in spec.terms],
                "beta": [str(t.beta) for t in spec.terms],
                "gamma": [str(t.gamma) for t in spec.terms],
                "xi": str(lp.xi),
                "zeta": str(lp.zeta),
                "eta": str(lp.eta),
            }
        )
    # the CSV columns are the row keys; a per-term list is one "|"-joined cell
    csv_rows = [list(rows[0])] + [
        ["|".join(v) if isinstance(v, list) else v for v in row.values()] for row in rows
    ]
    return {"rows": rows}, _csv(csv_rows)


def cmd_region(args):
    points = []
    csv_rows = [["xi", "zeta", "region", "boundaries"]]
    for xi, zeta, labels in region_samples(args.resolution):
        labs = [_label_doc(lab) for lab in _sorted_labels(labels)]
        points.append({"xi": str(xi), "zeta": str(zeta), "labels": labs})
        csv_rows += [[xi, zeta, lab["region"], "|".join(lab["boundaries"])] for lab in labs]
    return {"resolution": args.resolution, "points": points}, _csv(csv_rows)


def cmd_assemble(args):
    from .discretize import assemble_linear, assemble_terms, to_csv, to_json_dict
    from .profiles import make_profile

    spec = _resolve_spec(args)
    profile = make_profile(args.profile)
    grid = _grid(args)
    if args.pathway == "linear":
        op = assemble_linear(linear_params(spec), profile, grid, hbar=args.hbar)
    else:
        op = assemble_terms(spec, profile, grid, hbar=args.hbar)
    if args.format == "csv":
        return None, to_csv(op)
    return to_json_dict(op), None


def cmd_defect(args):
    from .discretize import equivalence_defect
    from .profiles import make_profile

    spec = _resolve_spec(args)
    profile = make_profile(args.profile)
    grid = _grid(args)
    fine = grid.refined()
    d_coarse = equivalence_defect(spec, profile, grid, _bump_psi(grid), hbar=args.hbar)
    d_fine = equivalence_defect(spec, profile, fine, _bump_psi(fine), hbar=args.hbar)
    ratio = d_coarse / d_fine if d_fine > 0 else None
    return {
        "spec": spec.name or print_canonical(spec),
        "profile": profile.name,
        "xmin": args.xmin,
        "xmax": args.xmax,
        "hbar": args.hbar,
        "n": grid.n,
        "defect_n": d_coarse,
        "n_refined": fine.n,
        "defect_refined": d_fine,
        "ratio": ratio,
        # the refined grid halves h, so this is the observed order in h
        "observed_order": math.log2(ratio) if ratio else None,
    }, None


def cmd_spectrum(args):
    from .profiles import make_profile
    from .spectra import make_potential, spectrum_of_spec

    spec = _resolve_spec(args)
    profile = make_profile(args.profile)
    potential = make_potential(args.potential)
    grid = _grid(args)
    result = spectrum_of_spec(spec, profile, potential, grid, args.k, hbar=args.hbar)
    lp = linear_params(spec)
    doc = {
        "params": {
            "name": spec.name or print_canonical(spec),
            "xi": str(lp.xi),
            "zeta": str(lp.zeta),
            "eta": str(lp.eta),
            "profile": profile.name,
            "potential": potential.name,
            "scheme": "staggered",
            "hbar": args.hbar,
        },
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n, "h": grid.h},
        "eigenvalues": list(result.eigenvalues),
    }
    csv_rows = [["index", "eigenvalue"]]
    csv_rows += [[i, repr(e)] for i, e in enumerate(result.eigenvalues)]
    return doc, _csv(csv_rows)


def cmd_dualpair(args):
    from .profiles import make_profile
    from .spectra import dual_pair_report, make_potential

    profile = make_profile(args.profile)
    potential = make_potential(args.potential)
    grid = _grid(args)
    report = dual_pair_report(args.xi, args.theta, profile, potential, grid, args.k, hbar=args.hbar)

    def side(point, alpha_gamma, spectrum):
        return {
            "xi": str(point[0]),
            "zeta": str(point[1]),
            "alpha_gamma": [str(v) for v in alpha_gamma],
            "eigenvalues": list(spectrum.eigenvalues),
        }

    doc = {
        "xi": str(report.xi),
        "theta": str(report.theta),
        "parameter_identity": report.parameter_identity,
        "vr": side(report.vr_point, report.vr_alpha_gamma, report.vr_spectrum),
        "class_i": side(report.class_i_point, report.class_i_alpha_gamma, report.class_i_spectrum),
    }
    csv_rows = [["index", "vr_eigenvalue", "class_i_eigenvalue"]]
    for i, (a, b) in enumerate(
        zip(report.vr_spectrum.eigenvalues, report.class_i_spectrum.eigenvalues)
    ):
        csv_rows.append([i, repr(a), repr(b)])
    return doc, _csv(csv_rows)


def _config_value(flag, value, kw):
    """A config file value checked and converted as the flag's text would be."""
    if kw.get("action") == "store_true":
        if not isinstance(value, bool):
            raise KeoError(f"config: {flag} takes true or false, got {value!r}")
        return value
    try:
        value = kw.get("type", str)(str(value))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise KeoError(f"config: {flag}: {exc}") from None
    if "choices" in kw and value not in kw["choices"]:
        raise KeoError(
            f"config: {flag}: invalid choice {value!r} (choose from {', '.join(kw['choices'])})"
        )
    return value


def _option(p, config, *flags, **kw):
    """add_argument with the config file's value, if any, as the default."""
    dest = kw.get("dest") or flags[0].lstrip("-")
    if dest in config:
        kw["default"] = _config_value(flags[0], config[dest], kw)
        kw["required"] = False
    return p.add_argument(*flags, **kw)


class _SpecSource(argparse.Action):
    """--name or --expr: the flag clears the other source, so it beats a
    config file value for either."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.name = namespace.expr = None
        setattr(namespace, self.dest, values)


def _add_common(p, config):
    _option(p, config, "--format", choices=("json", "csv"), default="json")
    _option(p, config, "--output", default=None, help="write to file instead of stdout")
    p.add_argument("--config", default=None, help="JSON config file; flags win")


def _add_spec_source(p, config):
    g = p.add_mutually_exclusive_group(required=not {"name", "expr"} & config.keys())
    _option(g, config, "--name", action=_SpecSource,
            help="catalog ordering, e.g. ZK or MB(-1/2)")
    _option(g, config, "--expr", action=_SpecSource,
            help="ordering expression, e.g. '1/2 * p m^(-1) p'")


def _add_point(p, config, second="--zeta"):
    _option(p, config, "--xi", type=rational_arg, required=True)
    _option(p, config, second, type=rational_arg, required=True)


def _add_grid(p, config, default_n=200):
    _option(p, config, "--n", type=int, default=default_n, help="interior grid points")
    _option(p, config, "--xmin", type=float, default=-1.0)
    _option(p, config, "--xmax", type=float, default=1.0)
    _option(p, config, "--hbar", type=float, default=1.0)


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """Build the CLI parser; config values become per-subcommand defaults
    (explicit flags still win)."""
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="pdmkeo",
        description="classification and numerical verification of position-dependent-mass kinetic operators",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE_RE
    sub = parser.add_subparsers(dest="command", required=True)
    commands = []

    def add_parser(name, func, **kw):
        p = sub.add_parser(name, **kw)
        p._negative_number_matcher = _NEGATIVE_VALUE_RE
        commands.append((p, func))
        return p

    p = add_parser("params", cmd_params,
                   help="linear ambiguity parameters (xi, zeta, eta) of an ordering")
    _add_spec_source(p, config)

    p = add_parser("classify", cmd_classify, help="class membership of an exact (xi, zeta) point")
    _add_point(p, config)

    p = add_parser("invert", cmd_invert, help="two-term ordering of a given class at (xi, zeta)")
    _add_point(p, config)
    _option(p, config, "--class", dest="cls", choices=REGIONS, required=True)
    _option(p, config, "--float", action="store_true", help="evaluate surds numerically")

    p = add_parser("dual", cmd_dual, help="theta -> -theta dual of an allowed (xi, zeta) point")
    _add_point(p, config)

    add_parser("table1", cmd_table1, help="catalog orderings with their exact (xi, zeta)")

    p = add_parser("region", cmd_region, help="classified rational grid over the allowed region")
    _option(p, config, "--resolution", type=int, default=51)

    p = add_parser("assemble", cmd_assemble, help="dense finite-difference kinetic matrix")
    _add_spec_source(p, config)
    _option(p, config, "--profile", required=True, help="mass profile, e.g. lorentzian:m0=1,lam=1")
    _option(p, config, "--pathway", choices=("terms", "linear"), default="terms")
    _add_grid(p, config)

    p = add_parser("defect", cmd_defect, help="two-pathway equivalence defect at n and 2n")
    _add_spec_source(p, config)
    _option(p, config, "--profile", required=True)
    _add_grid(p, config)

    p = add_parser("spectrum", cmd_spectrum, help="lowest eigenvalues of T + V")
    _add_spec_source(p, config)
    _option(p, config, "--profile", required=True)
    _option(p, config, "--potential", default="zero", help="e.g. zero or harmonic:k=1")
    _option(p, config, "--k", type=int, default=5)
    _add_grid(p, config, default_n=500)

    p = add_parser("dualpair", cmd_dualpair, help="side-by-side spectra of a (xi, theta) dual pair")
    _add_point(p, config, second="--theta")
    _option(p, config, "--profile", required=True)
    _option(p, config, "--potential", default="zero")
    _option(p, config, "--k", type=int, default=5)
    _add_grid(p, config, default_n=500)

    # the shared options come last, so they close every command's --help
    for p, func in commands:
        _add_common(p, config)
        p.set_defaults(func=func)

    # one config file may serve every subcommand, but a key that sets no
    # option of any of them (a typo, or help and config, which only flags
    # give) would otherwise be dropped without a word
    options = {a.dest for p in sub.choices.values() for a in p._actions} - {"help", "config"}
    unknown = [key for key in config if key not in options]
    if unknown:
        raise KeoError(f"config: unknown key {unknown[0]!r}")
    return parser


def _config_defaults(argv) -> dict:
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if not path:
        return {}
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise KeoError("config file must hold a JSON object of flag values")
    return raw


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # warnings (numpy's floating-point ones) are recorded, not shown with
    # their source line: a domain error prints only its error line, and a
    # successful run one "warning:" line for each
    with warnings.catch_warnings(record=True) as caught:
        try:
            parser = build_parser(_config_defaults(argv))
            args = parser.parse_args(argv)
            doc, csv_text = args.func(args)
            _emit(args, doc, csv_text)
        except (KeoError, ValueError, OSError, argparse.ArgumentTypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
