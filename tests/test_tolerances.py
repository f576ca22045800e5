"""The tolerance table is the one place a threshold is defined."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import axiscone
from axiscone import tolerances

MODULES = [importlib.import_module(f"axiscone.{info.name}")
           for info in pkgutil.iter_modules(axiscone.__path__)]


def _functions(module):
    """Module-level functions of a module and the methods of its classes."""
    for _, obj in inspect.getmembers(module):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield from (f for _, f in inspect.getmembers(obj, inspect.isfunction))


def test_no_function_takes_a_tolerance_parameter():
    functions = [f for module in MODULES for f in _functions(module)]
    assert {"top_eigen", "_classify", "commutation_residual", "restrict_to_real"} <= {
        f.__name__ for f in functions}
    offenders = sorted(f"{f.__module__}.{f.__qualname__}({name})" for f in functions
                       for name in inspect.signature(f).parameters
                       if name in ("tau", "tol", "tau_gap"))
    assert offenders == []


def test_every_tolerance_is_used_by_another_module():
    used = set()
    for path in Path(tolerances.__file__).parent.glob("*.py"):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "tolerances"):
                used.add(node.attr)
    names = {name for name in vars(tolerances) if name.isupper()}
    assert len(names) > 7
    assert sorted(names - used) == []
