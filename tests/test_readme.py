"""README.md names library attributes in backticks as `module.attr`; every
such name must still exist, so a deletion cannot leave the README behind."""

import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import preproj

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(preproj.__path__)}


def named_attributes() -> set[str]:
    """Every backticked dotted name whose first part is a preproj module."""
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text(encoding="utf-8"))
    return {span for span in spans if span.split(".")[0] in MODULES}


def test_the_readme_names_module_attributes():
    names = named_attributes()
    assert {"permuton.boundary_row", "finite._diamond", "errors.ParseError",
            "errors.DomainError", "errors.TooLarge", "errors.CertificateFailure"} <= names


def test_every_attribute_the_readme_names_exists():
    for dotted in sorted(named_attributes()):
        module, *attrs = dotted.split(".")
        reduce(getattr, attrs, importlib.import_module(f"preproj.{module}"))
