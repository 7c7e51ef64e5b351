"""The benchmark's tracer wraps pdmkeo functions by name: each must exist.
And the benchmark's profiles pass the derivative probe on its grids."""

import ast
import importlib
from pathlib import Path

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
