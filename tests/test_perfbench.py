"""The benchmark's tracer wraps pdmkeo functions by name: each must exist."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    tree = ast.parse(TRACER.read_text())
    [traced] = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)]
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(f"pdmkeo.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"pdmkeo.{module_name}.{name}"
