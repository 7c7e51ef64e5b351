"""The benchmark's tracer wraps pdmkeo functions by name: each must exist.
The benchmark's profiles pass the derivative probe on its grids, and a few
fixed operations of its workloads pass their own checks."""

import ast
import importlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(module: str, name: str):
    """The literal value assigned to `name` at the top level of perfbench/<module>.py."""
    tree = ast.parse((PERFBENCH / f"{module}.py").read_text())
    [value] = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign) and any(
                   isinstance(t, ast.Name) and t.id == name for t in node.targets)]
    return value


def test_every_traced_name_exists():
    traced = _literal("tracer", "TRACED")
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(f"pdmkeo.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"pdmkeo.{module_name}.{name}"


def test_benchmark_profiles_pass_the_derivative_probe():
    # every grid on which the defect workload and the CLI's defect read the
    # profile derivatives: n and 2n
    from pdmkeo import Grid, assemble_linear, catalog, linear_params, make_profile

    sizes = {*_literal("workloads", "DEFECT_SIZES"), int(_literal("workloads", "CLI_N")["defect"])}
    grid = _literal("workloads", "GRID")
    yy = linear_params(catalog("YY"))
    for texts in _literal("workloads", "PROFILE_CHOICES").values():
        for text in texts:
            for n in sorted(sizes | {2 * n for n in sizes}):
                assemble_linear(yy, make_profile(text), Grid(*grid, n))


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_fixed_benchmark_operations_pass_their_checks(workloads):
    # the central scheme is assembled only here; a constant mass with no
    # potential takes the checker's discrete box levels
    import pdmkeo

    w = workloads
    ops = [
        w.spectra_op("catalog", "YY", "lorentzian:m0=1,lam=1", "harmonic:k=4", 400, "staggered", 1),
        w.spectra_op("parsed", w.mirrored_text(random.Random(2)), "gaussian_bump:lam=1,sigma=1/4",
                     "zero", 400, "central", 2),
        w.spectra_op("catalog", "BDD", "constant:m0=2", "zero", 400, "central", 3),
        w.spectra_op("catalog", "ZK", "constant:m0=1/2", "zero", 400, "staggered", 4),
        w.defect_op("DA(-1/2)", "cosine_bump:lam=1", 1000, "4-term"),
        w.defect_op(w.random_non_hermitian(random.Random(5)), "smoothed_step:lam=1/2,sigma=1/4",
                    1000, "eta"),
    ]
    for op in ops:
        assert op.check(op.run(pdmkeo)) is None, op.tags
