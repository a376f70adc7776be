"""Puts this checkout's ``src`` on the import path for the tests.

``src`` goes after the ``PYTHONPATH`` entries, so ``PYTHONPATH=<tree>/src
pytest`` tests that tree's ddmod, and a plain ``pytest`` tests this one's.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")

if SRC not in map(os.path.abspath, sys.path):
    env = {os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
    after = [i + 1 for i, p in enumerate(sys.path) if p and os.path.abspath(p) in env]
    sys.path.insert(max(after, default=0), SRC)
