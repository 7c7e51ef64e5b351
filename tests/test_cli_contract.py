"""The CLI contract as a property: for any argv of the numerical subcommands,
with built-in profiles whose parameters and interval ends are extreme floats
or rationals, `cli.main` lets no exception escape and exits 0 (stdout of
finite numbers), 1 (one `error:` line after any `warning:` lines) or 2
(usage)."""

import contextlib
import io
import json
import math
from fractions import Fraction as F

import pytest

# a hypothesis that is absent or fails to import skips the module
hypothesis = pytest.importorskip("hypothesis", exc_type=ImportError)

from hypothesis import example, given, settings, strategies as st

from pdmkeo import cli
from pdmkeo.profiles import PROFILES, _parameter_names

# the ends of the float range and the edges where powers of a value
# under- or overflow (x^2 near 1e+-154, x^4 near 1e+-77)
EXTREMES = (
    0.0, 5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-155, 1e-154,
    1e-78, 1e-77, 1e-20, 1.0, 1e20, 1e77, 1e78, 1e154, 1e155, 1e200, 1e300, 1e308,
    1.7976931348623157e308,
)

signed_extremes = st.sampled_from(EXTREMES).flatmap(lambda v: st.sampled_from((v, -v)))
extreme_floats = st.one_of(
    signed_extremes,
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-4, max_value=4),
)
# parameter text: mostly positive, as most parameters must be, and at
# times negative, an exact rational or beyond any float
values = st.one_of(
    st.sampled_from(EXTREMES).map(repr),
    st.floats(min_value=0, exclude_min=True, allow_infinity=False).map(repr),
    st.fractions(min_value=0, max_value=1000, max_denominator=1000).map(str),
    st.one_of(signed_extremes.map(repr), st.fractions().map(str),
              st.sampled_from(("1e400", "-1e400", "1e-400", "1/0"))),
)


@st.composite
def profile_specs(draw):
    name = draw(st.sampled_from(sorted(PROFILES)))
    keys = draw(st.lists(st.sampled_from(_parameter_names(PROFILES[name])), unique=True))
    if not keys:
        return name
    return name + ":" + ",".join(f"{key}={draw(values)}" for key in keys)


@st.composite
def interval(draw):
    """--xmin and --xmax flags, each at times left at its default; the ends
    are mostly ordered, and at times not finite."""
    ends = draw(st.lists(st.one_of(extreme_floats, st.sampled_from((math.inf, math.nan))),
                         min_size=2, max_size=2))
    if draw(st.integers(0, 9)):
        ends.sort()
    return [f"--{flag}={end!r}" for flag, end in zip(("xmin", "xmax"), ends) if draw(st.booleans())]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("assemble", "spectrum", "defect", "dualpair")))
    if command == "dualpair":
        xi = draw(st.fractions(min_value=F(-1, 2), max_value=0, max_denominator=64))
        theta = draw(st.fractions(min_value=F(-1, 16), max_value=F(1, 16), max_denominator=256))
        argv = [command, f"--xi={xi}", f"--theta={theta}"]
    else:
        name = draw(st.sampled_from(("BDD", "ZK", "MM", "W", "YY", "MB(-1/2)", "DA(-1/2)", "vR(-1/4,-1/2)")))
        argv = [command, "--name", name]
    argv += ["--profile", draw(profile_specs()), f"--n={draw(st.integers(3, 64))}", *draw(interval())]
    if draw(st.booleans()):
        argv.append(f"--hbar={draw(extreme_floats)!r}")
    if command == "assemble":
        argv += ["--pathway", draw(st.sampled_from(("terms", "linear")))]
    if command in ("spectrum", "dualpair"):
        argv.append(f"--k={draw(st.integers(1, 8))}")
    if command == "defect":  # it has no CSV form
        return argv + ["--format", "json"]
    return argv + ["--format", draw(st.sampled_from(("json", "csv")))]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _refuse_constant(text):
    raise AssertionError(f"non-finite number {text} in stdout")


def _assert_finite_numbers(stdout, fmt):
    if fmt == "json":
        json.loads(stdout, parse_constant=_refuse_constant)
        return
    for cell in stdout.replace("\n", ",").split(","):
        try:
            number = float(cell)
        except ValueError:
            continue
        assert math.isfinite(number), cell


# each ended in a traceback at one time, or was refused for a NaN it led to
REFUSED_PARAMETERS = [
    (["assemble", "--name", "W", "--profile", "gaussian_bump:sigma=1e-300", "--n=5",
      "--xmin=1e-320", "--xmax=1e300", "--pathway", "linear"], "sigma"),
    (["defect", "--name", "W", "--profile", "gaussian_bump:sigma=1e200", "--n=5"], "sigma"),
    (["assemble", "--name", "W", "--profile", "cosine_bump:half_width=1e-300", "--n=5",
      "--pathway", "linear"], "half_width"),
    (["spectrum", "--name", "W", "--profile", "gaussian_bump:sigma=1e-300", "--n=5"], "sigma"),
]
LONG_DEFECT = ["defect", "--name", "MB(-1/2)", "--profile", "lorentzian", "--n=20", "--xmax=1e308"]
# sums and squares of samples of 1/m overflow there, the entries do not
NEAR_1E154 = ["assemble", "--name", "YY", "--profile", "lorentzian", "--pathway", "linear",
              "--n", "45", "--xmin=0", "--xmax=1e154"]


@pytest.mark.parametrize("argv, parameter", REFUSED_PARAMETERS,
                         ids=[" ".join(argv[:5]) for argv, _ in REFUSED_PARAMETERS])
def test_a_parameter_no_float_carries_is_refused_by_name(argv, parameter):
    status, stdout, stderr = _run(argv)
    assert (status, stdout) == (1, "")
    assert stderr.startswith(f"error: {parameter} = ") and stderr.count("\n") == 1, stderr


def test_defect_on_a_longest_interval_has_no_traceback():
    status, _, stderr = _run(LONG_DEFECT)
    assert status in (0, 1), stderr


@pytest.mark.parametrize("name", ["YY", "BDD", "W"])
@pytest.mark.parametrize("pathway", ["linear", "terms"])
def test_an_operator_whose_intermediates_would_overflow_assembles_without_warnings(name, pathway):
    # the last --name and --pathway win
    status, stdout, stderr = _run([*NEAR_1E154, "--name", name, "--pathway", pathway,
                                   "--format", "csv"])
    assert (status, stderr) == (0, "")
    _assert_finite_numbers(stdout, "csv")


@example([*REFUSED_PARAMETERS[0][0], "--format", "json"])
@example([*REFUSED_PARAMETERS[1][0], "--format", "json"])
@example([*REFUSED_PARAMETERS[2][0], "--format", "json"])
@example([*REFUSED_PARAMETERS[3][0], "--format", "json"])
@example([*LONG_DEFECT, "--format", "json"])
@example([*NEAR_1E154, "--format", "json"])
# DA(1)'s m^-2 = (1/m)^2 ~ x^4 itself overflows there: refused in one line
@example([*NEAR_1E154, "--name", "DA(1)", "--pathway", "terms", "--format", "json"])
@settings(max_examples=300, deadline=None)
@given(argvs())
def test_every_argv_exits_0_1_or_2_without_a_traceback(argv):
    status, stdout, stderr = _run(argv)
    assert status in (0, 1, 2), (status, stderr)
    if status == 1:
        *warnings, error = stderr.splitlines()
        assert error.startswith("error:"), stderr
        assert all(line.startswith("warning:") for line in warnings), stderr
    if status == 0:
        assert stdout
        _assert_finite_numbers(stdout, argv[-1])
