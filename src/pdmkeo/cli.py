"""Command-line interface with machine-readable JSON/CSV output.

Every command takes the parsed arguments and returns (doc, csv_text): the
JSON document and the CSV text, either of them None when the command has
no such form or the other format was asked for. Exit codes: 0 success,
1 domain error (single-line diagnostic on stderr, no traceback; running
out of memory is one too), 2 usage error. Exact quantities cross the
boundary as rational strings like "-1/3"; grid and physical quantities as
decimals. A JSON `--config` file, found as the subcommand's parser reads
the flag (abbreviated or not, the last one winning), supplies flag values
keyed by the flag's name without dashes, each checked as the flag's text
would be; flags win. The JSON output is streamed, not held whole.

The CLI reads the numerical layer through the package, as `pk.<name>`:
`pdmkeo` imports it on first use of one of its names, so only the
commands that touch one load numpy.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from fractions import Fraction

import pdmkeo as pk

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


def _write(fh, fmt, doc, csv_text) -> None:
    if fmt == "csv":
        fh.write(csv_text)
        return
    # streamed, so the text is never held whole, and joined in batches of
    # chunks, so an unbuffered stdout (PYTHONUNBUFFERED) is not written one
    # token at a time. With an indent, json.dumps uses the same pure-Python
    # encoder, so the bytes are the same
    batch = []
    for chunk in json.JSONEncoder(indent=2).iterencode(doc):
        batch.append(chunk)
        if len(batch) == 1 << 14:
            fh.write("".join(batch))
            batch.clear()
    batch.append("\n")
    fh.write("".join(batch))


def _emit(args, doc, csv_text) -> None:
    if args.format == "csv" and csv_text is None:
        raise KeoError("this command has no CSV form; use --format json")
    if args.output:
        with open(args.output, "w") as fh:
            _write(fh, args.format, doc, csv_text)
    else:
        _write(sys.stdout, args.format, doc, csv_text)


def _resolve_spec(args):
    if getattr(args, "name", None):
        spec = catalog(args.name)
    else:
        spec = parse(args.expr)
    for warning in validate(spec):
        print(f"warning: {warning}", file=sys.stderr)
    return spec


def _grid(args):
    return pk.Grid(args.xmin, args.xmax, args.n)


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


def _params_doc(spec) -> dict:
    lp = linear_params(spec)
    return {"xi": str(lp.xi), "zeta": str(lp.zeta), "eta": str(lp.eta)}


def cmd_params(args):
    return _params_doc(_resolve_spec(args)), None


def cmd_classify(args):
    labels = _sorted_labels(classify(args.xi, args.zeta))
    return {
        "xi": str(args.xi),
        "zeta": str(args.zeta),
        "labels": [_label_doc(lab) for lab in labels],
    }, None


def cmd_invert(args):
    spec = invert(args.xi, args.zeta, getattr(args, "class"), float_mode=args.float)
    fmt = (lambda v: repr(float(v))) if args.float else str
    doc = {
        "class": getattr(args, "class"),
        "xi": str(args.xi),
        "zeta": str(args.zeta),
        "float_mode": args.float,
        "terms": [
            {key: fmt(getattr(t, key)) for key in ("w", "alpha", "beta", "gamma")}
            for t in spec.terms
        ],
    }
    # exact() leaves a Surd only where it is irrational, which the grammar cannot write
    if not args.float and all(
        not isinstance(v, Surd)
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
        rows.append(
            {
                "name": spec.name,
                "weights": [str(t.w) for t in spec.terms],
                "alpha": [str(t.alpha) for t in spec.terms],
                "beta": [str(t.beta) for t in spec.terms],
                "gamma": [str(t.gamma) for t in spec.terms],
                **_params_doc(spec),
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
    spec = _resolve_spec(args)
    profile = pk.make_profile(args.profile)
    grid = _grid(args)
    if args.pathway == "linear":
        op = pk.assemble_linear(linear_params(spec), profile, grid, hbar=args.hbar)
    else:
        op = pk.assemble_terms(spec, profile, grid, hbar=args.hbar)
    if args.format == "csv":
        return None, pk.to_csv(op)
    return pk.to_json_dict(op), None


def cmd_defect(args):
    spec = _resolve_spec(args)
    profile = pk.make_profile(args.profile)
    grid = _grid(args)
    conv = pk.defect_convergence(spec, profile, grid, _bump_psi(grid), hbar=args.hbar)
    return {
        "spec": spec.name or print_canonical(spec),
        "profile": profile.name,
        "xmin": args.xmin,
        "xmax": args.xmax,
        "hbar": args.hbar,
        "n": grid.n,
        "defect_n": conv.defect_n,
        "n_refined": conv.n_refined,
        "defect_refined": conv.defect_refined,
        "ratio": conv.ratio,
        "observed_order": conv.observed_order,
    }, None


def cmd_spectrum(args):
    spec = _resolve_spec(args)
    profile = pk.make_profile(args.profile)
    potential = pk.make_potential(args.potential)
    grid = _grid(args)
    result = pk.spectrum_of_spec(spec, profile, potential, grid, args.k, hbar=args.hbar)
    doc = {
        "params": {
            "name": spec.name or print_canonical(spec),
            **_params_doc(spec),
            "profile": profile.name,
            "potential": potential.name,
            "scheme": result.provenance["scheme"],
            "hbar": args.hbar,
        },
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n, "h": grid.h},
        "eigenvalues": list(result.eigenvalues),
    }
    csv_rows = [["index", "eigenvalue"]]
    csv_rows += [[i, repr(e)] for i, e in enumerate(result.eigenvalues)]
    return doc, _csv(csv_rows)


def cmd_dualpair(args):
    profile = pk.make_profile(args.profile)
    potential = pk.make_potential(args.potential)
    grid = _grid(args)
    report = pk.dual_pair_report(args.xi, args.theta, profile, potential, grid, args.k,
                                 hbar=args.hbar)

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


def _config_value(action, value):
    """A config file value checked and converted as the flag's text would be."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise KeoError(f"config: {flag} takes true or false, got {value!r}")
        return value
    # null, a boolean, a list or an object: no flag text spells it
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise KeoError(f"config: {flag} takes a string or a number, got {json.dumps(value)}")
    try:
        value = (action.type or str)(str(value))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise KeoError(f"config: {flag}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise KeoError(
            f"config: {flag}: invalid choice {value!r} (choose from {', '.join(action.choices)})"
        )
    return value


class _SpecSource(argparse.Action):
    """--name or --expr: the flag clears the other source, so it beats a
    config file value for either."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.name = namespace.expr = None
        setattr(namespace, self.dest, values)


class _ConfigFound(Exception):
    """Raised out of a parse that has read --config PATH (args[0]): the file
    may supply a missing flag, so the parse that applies it reports usage
    errors and help."""


class _ConfigPath(argparse.Action):
    """--config on the parse that looks for it: stores the path (the last
    one wins) and hands any later usage error or help to the next parse."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)

        def found(*_):
            raise _ConfigFound(values)

        parser.error = parser.print_help = found


def _add_common(p, config_action):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.add_argument("--config", action=config_action, default=None,
                   help="JSON config file; flags win")


def _add_spec_source(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--name", action=_SpecSource, help="catalog ordering, e.g. ZK or MB(-1/2)")
    g.add_argument("--expr", action=_SpecSource,
                   help="ordering expression, e.g. '1/2 * p m^(-1) p'")


def _add_point(p, second="--zeta"):
    p.add_argument("--xi", type=rational_arg, required=True)
    p.add_argument(second, type=rational_arg, required=True)


def _add_grid(p, default_n=200):
    p.add_argument("--n", type=int, default=default_n, help="interior grid points")
    p.add_argument("--xmin", type=float, default=-1.0)
    p.add_argument("--xmax", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """Build the CLI parser; config values become per-subcommand defaults
    (explicit flags still win). Without a config (None, not {}), the parser
    is the one that finds --config: see `_parse`."""
    config_action = _ConfigPath if config is None else "store"
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
    _add_spec_source(p)

    p = add_parser("classify", cmd_classify, help="class membership of an exact (xi, zeta) point")
    _add_point(p)

    p = add_parser("invert", cmd_invert, help="two-term ordering of a given class at (xi, zeta)")
    _add_point(p)
    p.add_argument("--class", choices=REGIONS, required=True)
    p.add_argument("--float", action="store_true", help="evaluate surds numerically")

    p = add_parser("dual", cmd_dual, help="theta -> -theta dual of an allowed (xi, zeta) point")
    _add_point(p)

    add_parser("table1", cmd_table1, help="catalog orderings with their exact (xi, zeta)")

    p = add_parser("region", cmd_region, help="classified rational grid over the allowed region")
    p.add_argument("--resolution", type=int, default=51)

    p = add_parser("assemble", cmd_assemble,
                   help="banded finite-difference kinetic operator, exported as a full matrix")
    _add_spec_source(p)
    p.add_argument("--profile", required=True, help="mass profile, e.g. lorentzian:m0=1,lam=1")
    p.add_argument("--pathway", choices=("terms", "linear"), default="terms")
    _add_grid(p)

    p = add_parser("defect", cmd_defect,
                   help="two-pathway equivalence defect at n and 2n + 1 points")
    _add_spec_source(p)
    p.add_argument("--profile", required=True)
    _add_grid(p)

    p = add_parser("spectrum", cmd_spectrum, help="lowest eigenvalues of T + V")
    _add_spec_source(p)
    p.add_argument("--profile", required=True)
    p.add_argument("--potential", default="zero", help="e.g. zero or harmonic:k=1")
    p.add_argument("--k", type=int, default=5)
    _add_grid(p, default_n=500)

    p = add_parser("dualpair", cmd_dualpair, help="side-by-side spectra of a (xi, theta) dual pair")
    _add_point(p, second="--theta")
    p.add_argument("--profile", required=True)
    p.add_argument("--potential", default="zero")
    p.add_argument("--k", type=int, default=5)
    _add_grid(p, default_n=500)

    # the shared options come last, so they close every command's --help
    for p, func in commands:
        _add_common(p, config_action)
        p.set_defaults(func=func)

    # config values become defaults, checked in declaration order (each
    # command's own options, then the shared ones); one file may serve every
    # subcommand, but a key that sets no option of any (a typo, or help and
    # config, which only flags give) would otherwise be dropped silently
    actions = [a for p, _ in commands for a in p._actions if a.dest not in ("help", "config")]
    for a in sorted(actions, key=lambda a: a.dest in ("format", "output")):
        if a.dest in config:
            a.default = _config_value(a, config[a.dest])
            a.required = False
    for g in (g for p, _ in commands for g in p._mutually_exclusive_groups):
        g.required = not {a.dest for a in g._group_actions} & config.keys()
    unknown = [key for key in config if key not in {a.dest for a in actions}]
    if unknown:
        raise KeoError(f"config: unknown key {unknown[0]!r}")
    return parser


def _load_config(path) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise KeoError(f"config: {path} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise KeoError("config file must hold a JSON object of flag values")
    return raw


def _parse(argv):
    """argv parsed, with the config file it names applied. The first parse
    reads --config as the subcommand's parser does (abbreviated or not, the
    last one winning); where it finds one, a second parse applies the file."""
    try:
        args = build_parser().parse_args(argv)
        if not args.config:
            return args
        path = args.config
    except _ConfigFound as found:
        path = found.args[0]
    # an empty path names no file: the parse runs as without --config
    return build_parser(_load_config(path) if path else {}).parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # warnings (numpy's floating-point ones) are recorded, not shown with
    # their source line: a domain error prints only its error line, and a
    # successful run one "warning:" line for each
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = _parse(argv)
            doc, csv_text = args.func(args)
            _emit(args, doc, csv_text)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError:
            print("error: out of memory", file=sys.stderr)
            return 1
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
