"""Test against this checkout's ``src/`` whether or not the package is installed.

``src/`` goes first on ``sys.path`` for the test process and first on
``PYTHONPATH`` for the subprocesses it starts (``python -m bounded_laplace``).
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
