"""The benchmark imports preproj modules by name (perfbench/run.py's MODULES,
perfbench/tracer.py's LAYERS) and reads attributes off them (cli.main, the
reference routes of validate.py, PLFunc.at); every one of them must stay
there, or every benchmark run fails at set-up or on every op.  The names are
read with ast, so the harness itself is not imported."""

import ast
import importlib
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def assigned(path: Path, name: str) -> tuple[str, ...]:
    """The literal a module-level assignment gives name in the file."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


@pytest.mark.parametrize("path,name", [("run.py", "MODULES"), ("tracer.py", "LAYERS")])
def test_every_module_the_benchmark_names_imports(path, name):
    modules = assigned(BENCH / path, name)
    assert "finite" in modules
    for module in modules:
        importlib.import_module(f"preproj.{module}")


def attribute_paths(path: Path, roots: tuple[str, ...]) -> set[str]:
    """The dotted preproj paths the file reads: module.attr for every
    root.module.attr chain and every modules["module"].attr, and the names
    it gives self._wrap as literals."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                    and owner.value.id in roots):
                found.add(f"{owner.attr}.{node.attr}")
            elif (isinstance(owner, ast.Subscript) and isinstance(owner.value, ast.Name)
                  and owner.value.id == "modules" and isinstance(owner.slice, ast.Constant)):
                found.add(f"{owner.slice.value}.{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "_wrap" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            found.add(node.args[1].value)
    return found


@pytest.mark.parametrize("path,roots,expected", [
    ("validate.py", ("lib",), {"finite.ideal_via_word", "symgroup.Perm", "symgroup.bruhat_leq"}),
    ("run.py", ("program",), {"cli.main"}),
    ("tracer.py", (), {"plfunc.PLFunc", "plfunc.PLFunc.at"}),
])
def test_every_attribute_the_benchmark_reads_exists(path, roots, expected):
    paths = attribute_paths(BENCH / path, roots)
    assert expected <= paths
    for dotted in paths:
        module, *attrs = dotted.split(".")
        reduce(getattr, attrs, importlib.import_module(f"preproj.{module}"))


def test_the_reference_ideal_has_curve_values():
    # validate.py reads m.curve.values off each summand of ideal_via_word
    finite = importlib.import_module("preproj.finite")
    [summand] = finite.ideal_via_word((1,), 2)  # s_1 strips all of P_1
    assert [*summand.curve.values] == [Fraction(1, 2), 1, Fraction(1, 2)]
