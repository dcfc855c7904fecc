"""The benchmark imports preproj modules by name (perfbench/run.py's MODULES,
perfbench/tracer.py's LAYERS); every one of them must stay importable, or
every benchmark run fails at set-up.  The names are read with ast, so the
harness itself is not imported."""

import ast
import importlib
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
