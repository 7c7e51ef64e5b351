import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "table1.json"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "pdmkeo.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_params_name_yy():
    cp = run_cli("params", "--name", "YY")
    assert cp.returncode == 0
    assert json.loads(cp.stdout) == {"xi": "-1/3", "zeta": "1/6", "eta": "0"}


def test_params_expr():
    cp = run_cli("params", "--expr", "1/2 * 1/sqrt(m) p^2 1/sqrt(m)")
    assert cp.returncode == 0
    assert json.loads(cp.stdout) == {"xi": "-1/2", "zeta": "1/4", "eta": "0"}


def test_params_warning_goes_to_stderr():
    cp = run_cli("params", "--name", "DA(1)")
    assert cp.returncode == 0
    assert "warning:" in cp.stderr
    assert json.loads(cp.stdout)["xi"] == "0"
    # exact parameters no float holds are still printed exactly
    cp = run_cli("params", "--name", "MB(1e400)")
    assert cp.returncode == 0
    assert json.loads(cp.stdout)["xi"] == str(10**400)


def test_classify_point():
    cp = run_cli("classify", "--xi", "-1/3", "--zeta", "1/6")
    assert cp.returncode == 0
    doc = json.loads(cp.stdout)
    assert doc["labels"] == [{"region": "III", "boundaries": ["upper"]}]


def test_classify_outside_region_exit_code_and_diagnostic():
    cp = run_cli("classify", "--xi", "-1/2", "--zeta", "1/2")
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert cp.stderr.startswith("error:")
    assert "zeta > -xi/2" in cp.stderr
    assert "Traceback" not in cp.stderr


def test_usage_error_exit_code():
    cp = run_cli("classify", "--xi", "-1/2")
    assert cp.returncode == 2
    cp = run_cli("classify", "--xi", "0.5", "--zeta", "0")
    assert cp.returncode == 2  # exactness required: decimals rejected
    cp = run_cli("nosuchcommand")
    assert cp.returncode == 2


def test_invert_yy_point():
    cp = run_cli("invert", "--xi", "-1/3", "--zeta", "1/6", "--class", "III")
    doc = json.loads(cp.stdout)
    assert doc["terms"][0] == {"w": "1/3", "alpha": "0", "beta": "-1", "gamma": "0"}
    assert doc["terms"][1]["w"] == "2/3"


def test_invert_surd_and_float_modes():
    cp = run_cli("invert", "--xi", "-1/4", "--zeta", "1/32", "--class", "vR")
    doc = json.loads(cp.stdout)
    assert doc["terms"][0]["alpha"] == "-1/4+1/8*sqrt(2)"
    assert doc["expression"] is None
    cp = run_cli("invert", "--xi", "-1/4", "--zeta", "1/32", "--class", "vR", "--float")
    doc = json.loads(cp.stdout)
    assert abs(float(doc["terms"][0]["alpha"]) - (-0.25 + 2**0.5 / 8)) < 1e-15


def test_dual_roundtrip_values():
    cp = run_cli("dual", "--xi", "-1/4", "--zeta", "0")
    doc = json.loads(cp.stdout)
    assert doc == {
        "xi": "-1/4",
        "zeta": "0",
        "theta": "-1/16",
        "dual_theta": "1/16",
        "dual_zeta": "1/8",
    }


def test_dual_gw_errors():
    cp = run_cli("dual", "--xi", "-1/2", "--zeta", "0")
    assert cp.returncode == 1
    assert "outside allowed region" in cp.stderr


def test_table1_matches_golden_byte_for_byte():
    cp = run_cli("table1")
    assert cp.returncode == 0
    assert cp.stdout == GOLDEN.read_text()


def test_every_command_follows_one_output_protocol():
    # the commands without a tabular result refuse --format csv
    for argv in (
        ["params", "--name", "YY"],
        ["classify", "--xi", "-1/3", "--zeta", "1/6"],
        ["invert", "--xi", "-1/3", "--zeta", "1/6", "--class", "III"],
        ["dual", "--xi", "-1/4", "--zeta", "0"],
        ["defect", "--name", "YY", "--profile", "lorentzian", "--n", "20"],
    ):
        cp = run_cli(*argv, "--format", "csv")
        assert cp.returncode == 1 and cp.stdout == "", argv
        assert cp.stderr == "error: this command has no CSV form; use --format json\n", argv
    # table1's CSV columns are its JSON row keys, per-term lists joined by |
    lines = run_cli("table1", "--format", "csv").stdout.splitlines()
    assert lines[0] == "name,weights,alpha,beta,gamma,xi,zeta,eta"
    assert "YY,1/3|2/3,0|-1/2,-1|0,0|-1/2,-1/3,1/6,0" in lines
    # the shared options close every subcommand's --help
    for name in ("params", "classify", "invert", "dual", "table1", "region", "assemble",
                 "defect", "spectrum", "dualpair"):
        flags = re.findall(r"^  (-[-\w]+)", run_cli(name, "--help").stdout, re.MULTILINE)
        assert flags[-3:] == ["--format", "--output", "--config"], name


def test_output_file_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli("region", "--resolution", "11", "--output", str(out1)).returncode == 0
    assert run_cli("region", "--resolution", "11", "--output", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_region_csv_long_format():
    cp = run_cli("region", "--resolution", "3", "--format", "csv")
    lines = cp.stdout.strip().split("\n")
    assert lines[0] == "xi,zeta,region,boundaries"
    assert "-1/2,0,vR,lower" in lines
    assert all("," in line for line in lines[1:])


def test_assemble_json_envelope(tmp_path):
    out = tmp_path / "op.json"
    cp = run_cli(
        "assemble", "--name", "ZK", "--profile", "lorentzian:m0=1,lam=1",
        "--n", "8", "--xmin", "-1", "--xmax", "1", "--output", str(out),
    )
    assert cp.returncode == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"grid", "hbar", "provenance", "matrix"}
    assert doc["grid"]["n"] == 8
    assert len(doc["matrix"]) == 8
    assert doc["provenance"]["pathway"] == "terms"
    assert doc["provenance"]["scheme"] == "staggered"


def test_assemble_linear_pathway_csv():
    cp = run_cli(
        "assemble", "--name", "BDD", "--profile", "constant:m0=1",
        "--n", "4", "--xmin", "0", "--xmax", "5", "--pathway", "linear", "--format", "csv",
    )
    rows = [line.split(",") for line in cp.stdout.strip().split("\n")]
    assert len(rows) == 4 and len(rows[0]) == 4
    # tridiagonal: -1/(2 m h^2) next to the diagonal, nothing beyond
    assert rows[0][1:] == ["-0.5", "0.0", "0.0"]


@pytest.mark.parametrize("command", ["assemble", "spectrum"])
def test_scheme_is_not_an_option(command):
    cp = run_cli(command, "--name", "BDD", "--profile", "constant", "--scheme", "central")
    assert cp.returncode == 2
    assert "unrecognized arguments: --scheme" in cp.stderr


def test_assemble_builds_only_the_requested_format(monkeypatch, capsys):
    from pdmkeo import cli, discretize

    def unused(op):
        raise AssertionError("built an output format that was not requested")

    argv = ["assemble", "--name", "YY", "--profile", "lorentzian:m0=1,lam=1", "--n", "6"]
    for fmt, skipped in (("csv", "to_json_dict"), ("json", "to_csv")):
        with monkeypatch.context() as m:
            m.setattr(discretize, skipped, unused)
            assert cli.main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out


def test_out_of_memory_is_a_domain_error(monkeypatch, capsys):
    from pdmkeo import cli, discretize

    def exhausted(op):
        raise MemoryError

    monkeypatch.setattr(discretize, "to_json_dict", exhausted)
    argv = ["assemble", "--name", "YY", "--profile", "lorentzian", "--n", "6"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_defect_reports_ratio():
    cp = run_cli(
        "defect", "--name", "YY", "--profile", "cosine_bump:m0=1,lam=1",
        "--n", "100", "--xmin", "-1", "--xmax", "1",
    )
    doc = json.loads(cp.stdout)
    assert doc["n"] == 100 and doc["n_refined"] == 201
    assert 3.0 <= doc["ratio"] <= 4.5
    # the refined grid halves h, so log2(ratio) is the observed order
    assert doc["observed_order"] == math.log2(doc["ratio"])
    assert 1.9 <= doc["observed_order"] <= 2.1
    # both defects vanish for a constant mass: no ratio, no order
    cp = run_cli("defect", "--name", "W", "--profile", "constant", "--n", "20")
    doc = json.loads(cp.stdout)
    assert doc["defect_refined"] == 0.0
    assert doc["ratio"] is None and doc["observed_order"] is None


def test_spectrum_solves_operators_with_entries_near_the_float_limit():
    # the entries are ~4e154, and bisection squares the off-diagonals
    n, x_max = 20, 1e-76
    cp = run_cli("spectrum", "--name", "BDD", "--profile", "constant", f"--n={n}",
                 "--xmin=0", f"--xmax={x_max}", "--k=2")
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    h = x_max / (n + 1)
    # the staggered box: 2 sin^2(j pi / (2 (n + 1))) / h^2 for m = hbar = 1
    for j, level in enumerate(json.loads(cp.stdout)["eigenvalues"], start=1):
        exact = 2 * math.sin(j * math.pi / (2 * (n + 1))) ** 2 / h**2
        assert abs(level - exact) <= 1e-12 * exact


def test_gaussian_bump_derivatives_vanish_where_the_bump_does():
    # x^2 overflows beyond |x| ~ 1e154, where the bump and its derivatives are 0
    cp = run_cli("assemble", "--name", "BDD", "--profile", "gaussian_bump", "--pathway", "linear",
                 "--n=4", "--xmin=0", "--xmax=1e200", "--format", "csv")
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    assert all(v == 0.0 for row in cp.stdout.split() for v in map(float, row.split(",")))


def test_defect_never_prints_non_finite_values():
    # the bump test function stays of order one on so narrow an interval
    cp = run_cli("defect", "--name", "YY", "--profile", "lorentzian", "--n", "20",
                 "--xmin=0", "--xmax=1e-100")
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert math.isfinite(doc["defect_n"]) and math.isfinite(doc["defect_refined"])
    # a defect whose norm overflows is refused, not printed
    cp = run_cli("defect", "--name", "YY", "--profile", "lorentzian", "--n", "20",
                 "--xmin=0", "--xmax=1", "--hbar", "1e150")
    assert cp.returncode == 1
    assert cp.stdout == ""
    [line] = cp.stderr.splitlines()
    assert line.startswith("error: defect is not finite")


# grid and hbar pass their own checks, but hbar^2/h^2 overflows
OVERFLOWING = ["--profile", "lorentzian", "--n", "4", "--xmin=0", "--xmax=1e-60", "--hbar", "1e100"]


@pytest.mark.parametrize("argv", [
    ["assemble", "--name", "YY", *OVERFLOWING],
    ["assemble", "--name", "YY", *OVERFLOWING, "--format", "csv"],
    ["spectrum", "--name", "YY", *OVERFLOWING, "--k", "2"],
    ["dualpair", "--xi", "-1/4", "--theta", "1/16", *OVERFLOWING, "--k", "2"],
])
def test_overflowing_operator_entries_are_domain_errors(argv):
    cp = run_cli(*argv)
    assert cp.returncode == 1
    assert cp.stdout == ""
    [line] = cp.stderr.splitlines()
    assert line.startswith("error: operator entries are not finite")


def test_warnings_are_one_line_each(monkeypatch, capsys):
    import warnings

    from pdmkeo import cli

    def warns(args, fails=False):
        cli._resolve_spec(args)  # prints the validate warnings of DA(1)
        warnings.warn("overflow encountered in multiply", RuntimeWarning)
        if fails:
            raise ValueError("not finite")
        return {}, None

    validate = ("warning: term 2: exponent(s) outside [-1, 0]: alpha=1, beta=-2\n"
                "warning: term 3: exponent(s) outside [-1, 0]: beta=-2, gamma=1\n")
    monkeypatch.setattr(cli, "cmd_params", warns)
    assert cli.main(["params", "--name", "DA(1)"]) == 0
    assert capsys.readouterr().err == validate + "warning: overflow encountered in multiply\n"
    # a domain error prints its one error line after the validate warnings
    monkeypatch.setattr(cli, "cmd_params", lambda args: warns(args, fails=True))
    assert cli.main(["params", "--name", "DA(1)"]) == 1
    assert capsys.readouterr().err == validate + "error: not finite\n"


def test_spectrum_command_json_and_csv():
    args = (
        "spectrum", "--name", "BDD", "--profile", "constant:m0=1",
        "--potential", "zero", "--n", "300", "--k", "3",
        "--xmin", "0", "--xmax", "3.141592653589793",
    )
    doc = json.loads(run_cli(*args).stdout)
    assert doc["params"]["xi"] == "0"
    assert len(doc["eigenvalues"]) == 3
    assert abs(doc["eigenvalues"][0] - 0.5) < 0.01
    csv = run_cli(*args, "--format", "csv").stdout.strip().split("\n")
    assert csv[0] == "index,eigenvalue"
    assert len(csv) == 4


def test_dualpair_command():
    cp = run_cli(
        "dualpair", "--xi", "-1/4", "--theta", "1/16",
        "--profile", "lorentzian:m0=1,lam=1", "--n", "150", "--k", "2",
    )
    doc = json.loads(cp.stdout)
    assert doc["parameter_identity"] is True
    assert doc["vr"]["alpha_gamma"] == ["-1/2", "0"]
    assert doc["class_i"]["alpha_gamma"] == ["-1/2", "0"]
    assert len(doc["vr"]["eigenvalues"]) == 2


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi": "-1/3", "zeta": "1/6"}))
    doc = json.loads(run_cli("classify", "--config", str(cfg)).stdout)
    assert doc["xi"] == "-1/3" and doc["zeta"] == "1/6"
    doc = json.loads(run_cli("classify", "--config", str(cfg), "--zeta", "1/9").stdout)
    assert doc["zeta"] == "1/9"
    # a flag beats the config value of the other member of its group
    cfg.write_text(json.dumps({"name": "YY"}))
    cp = run_cli("params", "--config", str(cfg), "--expr", "1/2 * p m^(-1) p")
    assert json.loads(cp.stdout) == {"xi": "0", "zeta": "0", "eta": "0"}
    assert json.loads(run_cli("params", "--config", str(cfg)).stdout)["xi"] == "-1/3"
    # config values pass the flag's own type and choices
    for bad in ({"format": "xml"}, {"xi": "-0.5", "zeta": "0"}, {"xi": -0.5, "zeta": 0}):
        cfg.write_text(json.dumps(bad))
        cp = run_cli("classify", "--config", str(cfg), "--xi", "-1/3", "--zeta", "1/6")
        assert cp.returncode == 1 and cp.stdout == ""
        assert cp.stderr.startswith("error:") and "Traceback" not in cp.stderr
    # a key that names no option of any subcommand is refused, not dropped
    cfg.write_text(json.dumps({"nn": 5, "kk": 2}))
    cp = run_cli("spectrum", "--config", str(cfg), "--name", "BDD", "--profile", "constant",
                 "--n", "30")
    assert cp.returncode == 1 and cp.stdout == ""
    assert cp.stderr == "error: config: unknown key 'nn'\n"
    # a key of another subcommand is accepted: one file serves them all
    cfg.write_text(json.dumps({"xi": "-1/3", "zeta": "1/6", "resolution": 3, "n": 30}))
    doc = json.loads(run_cli("classify", "--config", str(cfg)).stdout)
    assert doc["xi"] == "-1/3" and doc["zeta"] == "1/6"


@pytest.mark.parametrize("argv", [
    ["assemble", "--name", "BDD", "--profile", "lorentzian:foo=1", "--n", "8"],
    ["assemble", "--name", "BDD", "--profile", "lorentzian:m0=1/0", "--n", "8"],
    ["assemble", "--name", "BDD", "--profile", "lorentzian:m0=1e400", "--n", "8"],
    ["assemble", "--name", "BDD", "--profile", "constant:m0=0", "--n", "8"],
    ["spectrum", "--name", "BDD", "--profile", "constant", "--potential", "harmonic:q=1", "--n", "8"],
    ["spectrum", "--name", "BDD", "--profile", "constant", "--potential", "harmonic:k=1/0", "--n", "8"],
    ["params", "--name", "MB(1/0)"],
    ["spectrum", "--name", "MB(1e400)", "--profile", "constant", "--n", "20"],
    ["assemble", "--name", "MB(1e400)", "--profile", "constant", "--n", "20"],
    ["defect", "--name", "MB(1e400)", "--profile", "constant", "--n", "20"],
])
def test_malformed_specs_give_one_line_errors(argv):
    cp = run_cli(*argv)
    assert cp.returncode == 1
    # one error line, after any warnings about the ordering itself (an
    # exponent too large for a float is outside [-1, 0] and warns)
    *warnings, error = cp.stderr.splitlines()
    assert error.startswith("error:")
    assert all(line.startswith("warning:") for line in warnings)
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("argv, error", [
    (["assemble", "--name", "BDD", "--profile", "lorentzian:lam=1/3,lam=3", "--n", "8"],
     "error: profile lorentzian parameter 'lam' is given twice"),
    (["spectrum", "--name", "BDD", "--profile", "constant", "--potential", "harmonic:k=1,k=100",
      "--n", "8"],
     "error: potential harmonic parameter 'k' is given twice"),
])
def test_a_spec_parameter_given_twice_is_one_error_line(argv, error):
    cp = run_cli(*argv)
    assert cp.returncode == 1 and cp.stdout == ""
    assert cp.stderr == error + "\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--name", "BDD", "--profile", "constant", "--xmax", "inf", "--k", "2"],
    ["defect", "--name", "BDD", "--profile", "lorentzian", "--hbar", "nan"],
    ["assemble", "--name", "BDD", "--profile", "constant", "--n", "3", "--xmin=-inf",
     "--format", "csv"],
    # finite ends whose spacing overflows
    ["assemble", "--name", "BDD", "--profile", "constant", "--n", "3", "--xmin=-1e308",
     "--xmax=1e308"],
    # a finite hbar whose square overflows
    ["defect", "--name", "BDD", "--profile", "lorentzian", "--hbar", "1e200"],
    # spacings so small that h*h underflows to zero or 1/h^2 overflows
    ["assemble", "--name", "BDD", "--profile", "constant", "--n", "3", "--xmin=0",
     "--xmax=1e-300"],
    ["assemble", "--name", "BDD", "--profile", "constant", "--n", "3", "--xmin=0",
     "--xmax=1e-160"],
    ["defect", "--name", "BDD", "--profile", "constant", "--n", "3", "--xmin=0",
     "--xmax=1e-160"],
])
def test_non_finite_grid_and_hbar_are_domain_errors(argv):
    cp = run_cli(*argv)
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert len(cp.stderr.splitlines()) == 1 and cp.stderr.startswith("error:")


def test_defect_names_the_refined_grid_it_refuses():
    # h = 1e-154 has a finite 1/h^2, but the refined grid's h/2 does not
    cp = run_cli("defect", "--name", "YY", "--profile", "constant:m0=4", "--xmin=0",
                 "--xmax=4e-154", "--n", "3")
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert cp.stderr == ("error: the refined grid of 2n + 1 = 7 points is refused: "
                         "need a spacing with a finite 1/h^2, got h = 5e-155\n")


def test_spectrum_refuses_first_order_orderings():
    cp = run_cli("spectrum", "--expr", "1/2 * m^(-1) p p", "--profile", "lorentzian")
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert cp.stderr == "error: matrix is not symmetric (max |A - A^T| = 2.490e+02)\n"


def test_parse_error_diagnostic_includes_position():
    cp = run_cli("params", "--expr", "1/2 * p m^(-1 p")
    assert cp.returncode == 1
    assert "position" in cp.stderr


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg is most of the package's import time and only the
    # eigensolve needs it; every other subcommand should not pay for it
    cp = subprocess.run(
        [sys.executable, "-c", "import sys, pdmkeo; print('scipy.linalg' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "False"
    # numpy is most of what is left: the exact-algebra subcommands, like the
    # package and the CLI module themselves, never load it
    exact_algebra = (
        ["table1"],
        ["params", "--name", "YY"],
        ["classify", "--xi", "-1/3", "--zeta", "1/6"],
        ["invert", "--xi", "-1/4", "--zeta", "1/32", "--class", "vR"],
        ["dual", "--xi", "-1/4", "--zeta", "0"],
        ["region", "--resolution", "11"],
    )
    scripts = ["import pdmkeo", "import pdmkeo.cli"] + [
        "import contextlib, io\n"
        "from pdmkeo import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0"
        for argv in exact_algebra
    ]
    report = "\nimport sys; print(sorted({'numpy', 'scipy'} & sys.modules.keys()))"
    for script in scripts:
        cp = subprocess.run([sys.executable, "-c", script + report], capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "[]", script


def test_exact_layer_never_imports_the_numerical_layer():
    # the package's lazy names are the one way to numpy: an exact-layer
    # module that imported a numerical one, even inside a function, would
    # be a second
    import ast

    src = Path(__file__).parent.parent / "src" / "pdmkeo"
    numerical = {"discretize", "profiles", "spectra"}
    for module in ("cli", "classify", "ordering", "parser", "surds", "errors"):
        tree = ast.parse((src / f"{module}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            imported |= {part for name in names for part in name.split(".")}
        assert not imported & numerical, module


def test_benchmark_only_names_live_in_discretize_alone():
    import pdmkeo
    from pdmkeo import discretize

    for name in ("SCHEMES", "derivative_matrix"):
        with pytest.raises(AttributeError):
            getattr(pdmkeo, name)
        assert name not in pdmkeo.__all__
        assert hasattr(discretize, name)


def test_numerical_names_follow_their_home_modules(monkeypatch):
    import pdmkeo
    from pdmkeo import _HOME

    assert _HOME.keys() <= set(pdmkeo.__all__)
    for name in pdmkeo.__all__:
        value = getattr(pdmkeo, name)
        if name in _HOME:
            home = importlib.import_module(f"pdmkeo.{_HOME[name]}")
            assert value is getattr(home, name), name
    # the package reads the home binding on every lookup, so a rebinding
    # there is seen through the package, and so is its undo
    solve = pdmkeo.spectra.solve
    with monkeypatch.context() as m:
        m.setattr(pdmkeo.spectra, "solve", len)
        assert pdmkeo.solve is len
    assert pdmkeo.solve is solve
    with pytest.raises(AttributeError):
        pdmkeo.nonexistent
