"""The names the documentation cites exist.

Each ``:func:``, ``:meth:``, ``:class:`` and ``:mod:`` reference in the
source of ``dlplab`` names a module or an attribute, and each
```module.name``` in README.md an attribute of that ``dlplab`` module, so
a rename or a deletion that leaves a stale reference fails here.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

import pytest

import dlplab

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dlplab").glob("*.py"))

ROLE = re.compile(r":(func|meth|class|mod):`~?([\w.]+)`")
README_MODULES = "ht|forks|compare|checks|justify|di|ssm|syntax|parser|gen|cli"
README_NAME = re.compile(rf"`({README_MODULES})\.([A-Za-z_][\w.]*)`")


def attribute(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            return False
    return True


def resolves(module, role: str, name: str) -> bool:
    """A module reference must import.  Any other name is looked up in its
    module, then in that module's own classes, then in the package, then
    in a standard-library module."""
    if role == "mod":
        try:
            importlib.import_module(name)
        except ImportError:
            return False
        return True
    classes = [v for v in vars(module).values()
               if isinstance(v, type) and v.__module__ == module.__name__]
    if any(attribute(scope, name) for scope in [module, *classes, dlplab]):
        return True
    top, _, rest = name.partition(".")
    return (top in sys.stdlib_module_names and bool(rest)
            and attribute(importlib.import_module(top), rest))


def source_references() -> list[tuple[str, str, str]]:
    out = []
    for path in SOURCES:
        out += [(path.stem, role, name) for role, name in ROLE.findall(path.read_text())]
    return out


def test_every_source_reference_resolves():
    refs = source_references()
    assert len(refs) > 100
    stale = []
    for stem, role, name in refs:
        module = dlplab if stem == "__init__" else importlib.import_module(f"dlplab.{stem}")
        if not resolves(module, role, name):
            stale.append(f"{stem}: :{role}:`{name}`")
    assert not stale


def test_every_readme_name_exists():
    refs = README_NAME.findall((ROOT / "README.md").read_text())
    assert len(refs) > 20
    stale = [f"{mod}.{name}" for mod, name in refs
             if not attribute(importlib.import_module(f"dlplab.{mod}"), name)]
    assert not stale


@pytest.mark.parametrize("role, name, found", [
    ("func", "set_bits", True), ("meth", "at", True), ("func", "ht.subsets", True),
    ("func", "itertools.product", True), ("mod", "dlplab.ht", True),
    ("func", "no_such_name", False), ("func", "itertools.nothing", False),
    ("mod", "dlplab.nothing", False)])
def test_the_lookup_finds_only_what_exists(role, name, found):
    """In forks: its own name, a method of its class, a module it imports,
    the standard library, a module; and three names that do not exist."""
    assert resolves(importlib.import_module("dlplab.forks"), role, name) is found
