"""Every name preproj exports (preproj.__all__, less its modules) has a reader
outside the tests: the library itself, a demo or the benchmark.  A reader is
an import of the name from preproj, a module.name read whose owner names a
preproj module (finite.hom_dims, lib.finite.ideal_via_word,
modules["plfunc"].PLFunc), or the bare name used in the module that defines
it.  src/preproj less __init__, demos/ and perfbench/ are read with ast;
tests/ are not, so a name that only tests call shows up here as unread."""

import ast
import sys
import types
from pathlib import Path

import preproj

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(preproj.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def scanned() -> dict[Path, ast.Module]:
    """The parsed files that count as readers."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").rglob("*.py")),
             *sorted((ROOT / "perfbench").rglob("*.py"))]
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in paths if path.name != "__init__.py" or path.parent != PACKAGE}


def owner_module(node: ast.expr) -> str | None:
    """The preproj module an attribute is read off, when its owner names one."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        name = node.slice.value
    else:
        return None
    return name if name in MODULES else None


def reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(the names the file imports from preproj or reads as module.name, the
    bare names it reads)."""
    named, bare = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "preproj"):
            named.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and owner_module(node.value)):
            named.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
    return named, bare


def home(value) -> Path | None:
    """The source file of the module that defines value."""
    module = sys.modules.get(getattr(value, "__module__", None) or "")
    path = getattr(module, "__file__", None)
    return Path(path).resolve() if path else None


def unread_exports() -> list[str]:
    """The exported names, less modules, that no scanned file reads."""
    found = {path.resolve(): reads(tree) for path, tree in scanned().items()}
    named = set().union(*(names for names, _ in found.values()))
    unread = []
    for name in preproj.__all__:
        value = getattr(preproj, name)
        if isinstance(value, types.ModuleType) or name in named:
            continue
        if name not in found.get(home(value), (set(), set()))[1]:
            unread.append(name)
    return sorted(unread)


def test_the_scan_sees_each_kind_of_reader():
    found = {path.relative_to(ROOT).as_posix(): reads(tree) for path, tree in scanned().items()}
    assert "CurveModule" in found["src/preproj/sheets.py"][0]  # from .finite import
    assert "ideal_leq" in found["src/preproj/cli.py"][0]  # continuous.ideal_leq
    assert "ideal_via_word" in found["perfbench/validate.py"][0]  # lib.finite.<name>
    assert "PLFunc" in found["perfbench/tracer.py"][0]  # modules["plfunc"].PLFunc
    assert "is_lipschitz1" in found["src/preproj/plfunc.py"][1]  # bare, in its own module
    assert "src/preproj/__init__.py" not in found and not any(
        path.startswith("tests/") for path in found)


def test_every_export_has_a_reader():
    assert unread_exports() == []


def test_a_planted_export_is_unread(monkeypatch):
    def planted():
        return None

    planted.__module__ = "preproj.finite"
    monkeypatch.setattr(preproj, "planted", planted, raising=False)
    monkeypatch.setattr(preproj, "__all__", [*preproj.__all__, "planted"])
    assert unread_exports() == ["planted"]
