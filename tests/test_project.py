"""Project files outside the package: packaging metadata and the benchmark's traced names."""

import importlib
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_distribution_is_named_after_its_console_script():
    with open(ROOT / "pyproject.toml", "rb") as file:
        project = tomllib.load(file)["project"]
    assert project["name"] == "permcensus"
    assert project["scripts"] == {"permcensus": "permcensus.cli:main"}


@pytest.fixture
def perfbench_layers(monkeypatch):
    """perfbench/layers.py, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    yield importlib.import_module("layers")
    for name in ("layers", "workloads"):
        sys.modules.pop(name, None)


def test_every_traced_name_resolves(perfbench_layers):
    """The traced pass skips a name it cannot find, so its metric would read 0."""
    missing = [f"{home}.{name}"
               for home, names in perfbench_layers.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"permcensus.{home}"), name, None))]
    assert perfbench_layers.TRACED and missing == []
