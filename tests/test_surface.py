"""Every name preproj exports (preproj.__all__, less its modules) has a reader
outside the tests: the library itself, a demo or the benchmark.  A reader is
an import of the name from preproj, a module.name read whose owner names a
preproj module (finite.hom_dims, lib.finite.ideal_via_word,
modules["plfunc"].PLFunc), or the bare name used in the module that defines
it.  So has every public method and property of an exported class (dataclass
fields, Enum members and dunders aside): its reader is an attribute read of
that name.  So has every module-level function, class and assigned name of
src/preproj (dunders aside), exported or not: its reader is a load of the
bare name, an attribute read of it, or an import of it.  src/preproj less
__init__, demos/ and perfbench/ are read with ast; tests/ are not, so a name
that only tests call shows up here as unread."""

import ast
import dataclasses
import sys
import types
from functools import cached_property
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


def members(cls: type) -> list[str]:
    """The public methods and properties cls defines itself, less its
    dataclass fields; an Enum member is no function, so it is not one."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    kinds = (types.FunctionType, staticmethod, classmethod, property, cached_property)
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and name not in fields and isinstance(value, kinds)]


def unread_members() -> list[str]:
    """Class.member for each member of an exported class that no scanned
    file reads as an attribute."""
    read = {node.attr for tree in scanned().values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name}.{member}" for name in preproj.__all__
                  if isinstance(cls := getattr(preproj, name), type)
                  for member in members(cls) if member not in read)


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


def test_members_are_methods_and_properties():
    assert {"n", "tableau", "label"} <= set(members(preproj.Perm))  # property, cached
    assert "from_lattice" in members(preproj.PLFunc)  # classmethod
    assert "one_line" not in members(preproj.Perm)  # a dataclass field
    assert "support" not in members(preproj.Sheet)  # a field set after init
    assert members(preproj.MonotoneClass) == []  # Enum members only


def test_every_public_member_has_a_reader():
    assert unread_members() == []


def test_a_planted_method_is_unread(monkeypatch):
    monkeypatch.setattr(preproj.Perm, "planted", lambda self: None, raising=False)
    assert unread_members() == ["Perm.planted"]


# module-level names with no reader outside the tests: linalg leaves the
# library with ROADMAP item 1, as the benchmark still imports preproj.linalg
UNREAD = ["linalg.rank_of_links"]


def defined(tree: ast.Module) -> set[str]:
    """The functions, classes and assigned names of a module's top level,
    dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def unread_module_names(trees: dict[Path, ast.Module]) -> list[str]:
    """module.name for each name that the package's modules among trees
    define and no tree reads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{path.stem}.{name}" for path, tree in trees.items()
                  if path.parent == PACKAGE for name in defined(tree) if name not in read)


def test_every_module_level_name_has_a_reader():
    assert unread_module_names(scanned()) == UNREAD


def test_a_planted_module_level_name_is_unread():
    trees = scanned()
    path = PACKAGE / "cli.py"
    trees[path] = ast.parse(path.read_text(encoding="utf-8") + "\n_HOMS: dict = {}\n")
    assert unread_module_names(trees) == sorted([*UNREAD, "cli._HOMS"])
