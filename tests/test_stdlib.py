"""Import rules: the package stays standard-library only, and no test
module imports another; code they share lives in ``tests/families.py``
and ``tests/reference.py``."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(path):
    """The modules a file imports by absolute name, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_imports_only_the_standard_library():
    modules = sorted((ROOT / "src" / "dlplab").rglob("*.py"))
    assert modules
    for path in modules:
        for name in imported_modules(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "__future__", \
                (path.name, name)


def test_no_test_module_imports_another():
    tests = sorted((ROOT / "tests").glob("test_*.py"))
    assert "families" in imported_modules(ROOT / "tests" / "test_golden.py")
    for path in tests:
        for name in imported_modules(path):
            assert name.split(".")[0] not in {t.stem for t in tests}, (path.name, name)


def test_the_project_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies") == []
