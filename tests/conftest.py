"""Test-session set-up shared by every test module.

pyproject.toml puts src/ on this interpreter's path; the tests that start a
child interpreter (python -m permcensus ...) need it on PYTHONPATH as well,
so that a bare `pytest` in a checkout tests the checkout's package.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, inherited]))
