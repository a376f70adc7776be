"""The checkout's pytest set-up: the root ``conftest.py`` puts ``src`` after
``PYTHONPATH``, never ahead, and ``pyproject.toml``'s warning filters let
pytest report a failing hypothesis test."""

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

TWO_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def run_pytest(checkout, env, *args):
    # each plugin left out saves its import, up to a second
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:benchmark",
         *args],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout + proc.stderr


def test_pythonpath_tree_comes_first_and_a_failing_hypothesis_test_is_reported(tmp_path):
    checkout, other = tmp_path / "checkout", tmp_path / "other"
    for tree in (checkout, other):
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "conftest.py", checkout)
    shutil.copy(ROOT / "pyproject.toml", checkout)
    (checkout / "tests").mkdir()
    (checkout / "tests" / "test_where.py").write_text(WHERE)
    (checkout / "tests" / "test_two.py").write_text(TWO_TESTS)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # reporting a failure makes hypothesis import modules that raise a
    # DeprecationWarning, which the error filter would turn into an
    # INTERNALERROR that ends the session before the tests after it
    status, out = run_pytest(
        checkout, dict(env, PYTHONPATH=str(other / "src"),
                       EXPECT_DDMOD=str(other / "src" / "ddmod")),
        "tests/test_two.py", "tests/test_where.py",
    )
    assert status == 1 and "INTERNALERROR" not in out, out
    assert "FAILED tests/test_two.py::test_fails" in out and "1 failed, 2 passed" in out, out
    status, out = run_pytest(checkout, dict(env, EXPECT_DDMOD=str(checkout / "src" / "ddmod")),
                             "-p", "no:hypothesispytest", "tests/test_where.py")
    assert status == 0, out
