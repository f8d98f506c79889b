"""Start-up: what `census` imports, and the package's lazily loaded modules."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import permcensus

PACKAGE = Path(permcensus.__file__).parent

# Modules that census rows never use; loading one would slow every run.
NOT_ON_CENSUS_PATH = (
    "permcensus.characters",
    "permcensus.groups",
    "permcensus.oracle",
    "permcensus.origami",
    "permcensus.perm",
    "permcensus.verify",
    "dataclasses",
    "json",
)
# Imported each on its own, so the import trace times each one separately.
ON_CENSUS_PATH = ("permcensus.arith", "permcensus.census", "permcensus.partitions")


def run_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


def imported_modules(importtime_stderr: str) -> set[str]:
    """The module names of the `python -X importtime` lines of stderr."""
    return {line.rpartition("|")[2].strip() for line in importtime_stderr.splitlines()
            if line.startswith("import time:")}


def test_census_imports_only_the_census_path():
    result = run_python("-X", "importtime", "-m", "permcensus", "census", "--to", "3")
    assert result.returncode == 0
    assert result.stdout == "3 3 3 1.00000\n"
    imported = imported_modules(result.stderr)
    assert sorted(imported & set(NOT_ON_CENSUS_PATH)) == []
    assert set(ON_CENSUS_PATH) <= imported


def test_verify_does_not_import_dataclasses():
    result = run_python("-X", "importtime", "-m", "permcensus", "verify", "--suites",
                        "characters", "--max-n", "3")
    assert result.returncode == 0, result.stderr
    imported = imported_modules(result.stderr)
    assert "permcensus.verify" in imported
    assert "dataclasses" not in imported


@pytest.mark.parametrize("argv", [("--suites", "nope"), ("--max-n", "9"), ("--max-n", "8")])
def test_verify_usage_errors_come_before_the_suite_imports(argv):
    result = run_python("-X", "importtime", "-m", "permcensus", "verify", *argv)
    assert result.returncode == 2
    assert result.stdout == ""
    prefix = ("verify: --max-n 8 needs" if argv == ("--max-n", "8")
              else "permcensus verify: error: ")
    assert [line for line in result.stderr.splitlines()
            if not line.startswith("import time:")][0].startswith(prefix)
    imported = imported_modules(result.stderr)
    assert "permcensus.oracle" not in imported
    assert "permcensus.verify" not in imported


def test_star_import_binds_every_module():
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))
    assert sorted(permcensus.__all__) == names
    script = ("import types, permcensus\n"
              "from permcensus import *\n"
              "assert all(isinstance(globals()[name], types.ModuleType)\n"
              "           for name in permcensus.__all__)\n")
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr


def test_verify_runs_through_the_lazy_import():
    result = run_python("-m", "permcensus", "verify", "--suites", "characters",
                        "--max-n", "4", "--json")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "characters": {"passed": True, "failures": []}
    }


def test_every_suite_name_has_a_suite():
    from permcensus import cli, verify

    assert tuple(verify._SUITES) == cli.SUITE_NAMES


def test_largest_max_n_choice_is_the_oracle_cap():
    from permcensus import cli, oracle

    verify_parser = cli.build_parser()._subparsers._group_actions[0].choices["verify"]
    max_n = next(a for a in verify_parser._actions if a.dest == "max_n")
    assert max(max_n.choices) == oracle._MAX_DEGREE
