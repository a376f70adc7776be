"""The root ``conftest.py`` puts ``src`` after ``PYTHONPATH``, never ahead."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WHERE = """
import os

import ddmod


def test_where():
    assert os.path.dirname(ddmod.__file__) == os.environ["EXPECT_DDMOD"]
"""


def test_pytest_imports_pythonpath_tree_before_the_checkout(tmp_path):
    checkout, other = tmp_path / "checkout", tmp_path / "other"
    for tree in (checkout, other):
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "conftest.py", checkout)
    shutil.copy(ROOT / "pyproject.toml", checkout)
    (checkout / "tests").mkdir()
    (checkout / "tests" / "test_where.py").write_text(WHERE)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for pythonpath, tree in ((str(other / "src"), other), (None, checkout)):
        run_env = dict(env, EXPECT_DDMOD=str(tree / "src" / "ddmod"))
        if pythonpath is not None:
            run_env["PYTHONPATH"] = pythonpath
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/test_where.py"],
            cwd=checkout, env=run_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
