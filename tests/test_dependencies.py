"""The core library depends on numpy and the standard library only, and
reads no environment variable."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ddmod"
ALLOWED = {"ddmod", "numpy", *sys.stdlib_module_names}
# the modules a sweep runs through; zak, properties and cli stay off this path
SWEEP_PATH = {"harness", "modem", "channel", "detect", "numerics"}
SOURCES = sorted(SRC.glob("*.py"))


def imported_modules(path):
    """Dotted names of the imports anywhere in one source file.

    ``from m import n`` gives ``m.n``, and a relative import is read as one
    inside ``ddmod``.
    """
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["ddmod" if node.level else "", node.module]))
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_the_source_files_are_found():
    assert {path.name for path in SOURCES} >= {f"{name}.py" for name in SWEEP_PATH}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_core_imports_numpy_and_the_standard_library_only(path):
    foreign = {name for name in imported_modules(path) if name.partition(".")[0] not in ALLOWED}
    assert not foreign


def test_sweep_path_imports_no_other_ddmod_module():
    # what a sweep runs cannot reach zak, properties or cli, so a change there
    # moves no result and no benchmark figure
    imports = {name: set(imported_modules(SRC / f"{name}.py")) for name in SWEEP_PATH}
    assert "ddmod.detect" in imports["harness"]
    outside = {
        (name, module)
        for name, modules in imports.items()
        for module in modules
        if module.startswith("ddmod.") and module.split(".")[1] not in SWEEP_PATH
    }
    assert not outside


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_core_reads_no_environment_variable(path):
    # every setting comes from a config, a CLI flag or an argument, so no
    # hidden knob can change a sweep
    names = {"environ", "environb", "getenv", "getenvb"}
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = {
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
        and isinstance(node.value, ast.Name) and node.value.id == "os"
    }
    reads |= {(0, name) for name in imported_modules(path)
              if name.startswith("os.") and name[3:] in names}
    assert not reads


def test_package_requires_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
