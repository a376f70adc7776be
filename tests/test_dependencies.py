"""The core library depends on numpy and the standard library only."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"ddmod", "numpy", *sys.stdlib_module_names}


def imported_modules(path):
    """Top-level names of the absolute imports anywhere in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_core_imports_numpy_and_the_standard_library_only():
    sources = sorted((ROOT / "src" / "ddmod").glob("*.py"))
    assert sources
    foreign = {
        (path.name, name)
        for path in sources
        for name in imported_modules(path)
        if name not in ALLOWED
    }
    assert not foreign


def test_package_requires_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
