"""Every library name that perfbench/tracer.py wraps must exist, so that a
rename fails here and not only in the benchmark's own tests."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tuples(name: str) -> tuple:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER.name}")


def test_traced_functions_resolve():
    functions = _tuples("FUNCTIONS")
    assert functions
    for layer, module, function in functions:
        assert callable(getattr(importlib.import_module(module), function,
                                None)), (layer, module, function)


def test_traced_methods_resolve():
    methods = _tuples("METHODS")
    assert methods
    for layer, module, cls, method in methods:
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, method, None)), (layer, module, cls,
                                                         method)
