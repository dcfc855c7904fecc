"""preproj.errors has one class for each thing a caller can do about an
error: fix the text (ParseError), fix the argument (DomainError), raise
PREPROJ_MAX_N (TooLarge) or report a library bug (CertificateFailure).  The
message names the condition that failed; the library raises nothing else
but builtins."""

import ast
import builtins
from pathlib import Path

import pytest

from preproj import continuous, errors, finite, symgroup
from preproj.errors import DomainError
from preproj.symgroup import Perm

PACKAGE = Path(errors.__file__).resolve().parent
KINDS = {"PreprojError", "ParseError", "DomainError", "TooLarge", "CertificateFailure"}


def error_classes() -> set[str]:
    """The exception classes preproj.errors defines."""
    return {name for name, value in vars(errors).items()
            if isinstance(value, type) and value.__module__ == errors.__name__}


def raised(tree: ast.Module) -> set[str]:
    """The names of what the file's raise statements raise; a bare raise
    re-raises and names nothing."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def foreign_raises(trees: dict[Path, ast.Module]) -> list[str]:
    """file: name for each raise of neither one of the five nor a builtin
    exception."""
    builtin = {name for name, value in vars(builtins).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    return sorted(f"{path.name}: {name}" for path, tree in trees.items()
                  for name in raised(tree) if name not in KINDS | builtin)


def library() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_errors_defines_the_five_classes():
    assert error_classes() == KINDS


def test_a_planted_sixth_class_fails(monkeypatch):
    planted = type("Planted", (DomainError,), {"__module__": errors.__name__})
    monkeypatch.setattr(errors, "Planted", planted, raising=False)
    assert error_classes() == KINDS | {"Planted"}


def test_the_library_raises_only_the_five_or_builtins():
    assert {"DomainError", "ParseError", "TooLarge", "CertificateFailure"} <= set().union(
        *map(raised, library().values()))
    assert foreign_raises(library()) == []


def test_a_planted_raise_fails():
    trees = {**library(), Path("planted.py"): ast.parse(
        "def f():\n    raise NotLipschitz('boundary curve must be 1-Lipschitz')\n")}
    assert foreign_raises(trees) == ["planted.py: NotLipschitz"]


@pytest.mark.parametrize("entry", [
    lambda i: continuous.bridge_mismatch(Perm((2, 5, 3, 4, 1)), i),
    lambda i: finite.DiamondCurve(i, 5, (0,) * 6),
    lambda i: finite.summand_via_word((), 5, i),
    lambda i: symgroup.canonical_reduced_word_of_rep(Perm((1, 2, 3, 4, 5)), i),
], ids=["bridge_mismatch", "DiamondCurve", "summand_via_word", "canonical_reduced_word_of_rep"])
@pytest.mark.parametrize("i", [0, 5])
def test_one_error_for_a_vertex_out_of_range(entry, i):
    with pytest.raises(DomainError) as info:
        entry(i)
    assert type(info.value) is DomainError
    assert str(info.value) == f"vertex {i} outside 1..4"
