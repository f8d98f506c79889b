"""Workloads of the permcensus benchmark, their reference checks, and child runs.

Each workload is one fixed CLI command.  Its output is checked against a
reference that does not depend on the code under test:

- ``census-default`` must print ``tests/data/census_main.golden`` exactly;
- ``census-wide`` and ``census-threads`` must start with the golden lines and
  hash to the sha256 of the single-thread ``census --to 5000`` output of the
  first benchmarked revision, kept in ``perfbench/reference.json``;
- ``verify-deep`` must exit 0 with every suite ``passed`` in its ``--json``
  verdict.

Why these four: ``census-default`` is dominated by interpreter start-up and
import; ``census-wide`` by ``count_b`` (about 90% of its time), so a
whole-range ``count_b`` shows there and not on ``census-default``;
``census-threads`` runs the same layers while the shared module caches grow
from two threads, so the known cache race shows as failures; ``verify-deep``
runs no census code, only the ``arith`` convolutions, the brute-force oracle
and the group routines.

``census-threads`` is left out of the workloads listed in ``BENCHMARK.json``,
whose runs must not fail while the race still breaks most of its
invocations; ``run.py --workload census-threads`` and ``report.py`` run it,
and the traced pass measures the race in every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "census_main.golden"
REFERENCE = Path(__file__).resolve().with_name("reference.json")

SUITES = ("formulas", "identities", "origami", "characters", "bounds")
VERIFY_MAX_N = "7"

# A child that runs longer than this is killed and counted as failed, so that
# one run of the benchmark always ends within its time limit.
INVOCATION_TIMEOUT_S = 90.0

_EXCEPTION_LINE = re.compile(r"^([A-Za-z_][\w.]*(?:Error|Exception|Interrupt|Exit))\b")


@dataclass(frozen=True)
class References:
    golden: bytes
    wide_sha256: str


def load_references() -> References:
    """The golden file and the recorded digest; fails if the checkout lacks them."""
    digests = json.loads(REFERENCE.read_text())
    return References(GOLDEN.read_bytes(), digests["census_to_5000_sha256"])


def _is_golden(refs: References, stdout: bytes) -> bool:
    return stdout == refs.golden


def _is_wide(refs: References, stdout: bytes) -> bool:
    golden_lines = refs.golden.splitlines(keepends=True)
    prefix = stdout.splitlines(keepends=True)[: len(golden_lines)]
    return prefix == golden_lines and hashlib.sha256(stdout).hexdigest() == refs.wide_sha256


def _verify_passed(suites: tuple[str, ...], refs: References, stdout: bytes) -> bool:
    lines = stdout.splitlines()
    if not lines:
        return False
    try:
        verdict = json.loads(lines[-1])
    except ValueError:
        return False
    return (
        isinstance(verdict, dict)
        and set(suites) <= set(verdict)
        and all(isinstance(v, dict) and v.get("passed") is True for v in verdict.values())
    )


@dataclass(frozen=True)
class Step:
    """One call of the CLI: its arguments and the check on its stdout."""

    argv: tuple[str, ...]
    check: Callable[[References, bytes], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    command: Step
    # The same work as `command`, as the traced in-process run calls it.
    in_process: tuple[Step, ...]


def _census(name: str, argv: tuple[str, ...], check) -> Workload:
    step = Step(argv, check)
    return Workload(name, step, (step,))


WORKLOADS = {
    w.name: w
    for w in (
        _census("census-default", ("census",), _is_golden),
        _census("census-wide", ("census", "--to", "5000"), _is_wide),
        _census("census-threads", ("census", "--to", "5000", "--threads", "2"), _is_wide),
        Workload(
            "verify-deep",
            Step(("verify", "--max-n", VERIFY_MAX_N, "--json"), partial(_verify_passed, SUITES)),
            tuple(
                Step(("verify", "--suites", suite, "--max-n", VERIFY_MAX_N, "--json"),
                     partial(_verify_passed, (suite,)))
                for suite in SUITES
            ),
        ),
    )
}


def child_env() -> dict[str, str]:
    """The environment of every child: the package from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PERMCENSUS_THREADS", None)
    return env


@dataclass(frozen=True)
class Completed:
    """A finished child process, timed from launch."""

    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    first_byte_s: float  # first stdout byte on the pipe; wall_s if none came
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool


def spawn(args: list[str], timeout: float = INVOCATION_TIMEOUT_S) -> Completed:
    """Run `python <args>` from the checkout root and wait for it to end.

    Both pipes are drained as data arrives, so the time of the first stdout
    byte is what a reader such as `head` would see.  Peak memory and CPU time
    come from the child's own rusage.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    first_byte = None
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fileobj)
                        continue
                    if first_byte is None and key.fileobj is proc.stdout:
                        first_byte = time.perf_counter()
                    chunks[key.fd].append(data)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = b"".join(chunks[proc.stdout.fileno()])
        stderr = b"".join(chunks[proc.stderr.fileno()])
        proc.stdout.close()
        proc.stderr.close()
    return Completed(
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        wall_s=end - start,
        first_byte_s=(first_byte if first_byte is not None else end) - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        timed_out=timed_out,
    )


def failure_kind(returncode: int, stderr: bytes, matches: bool, timed_out: bool = False) -> str | None:
    """None for a correct run; else the exception type, exit code or 'wrong output'."""
    if timed_out:
        return "timeout"
    if returncode != 0:
        for line in reversed(stderr.decode(errors="replace").splitlines()):
            found = _EXCEPTION_LINE.match(line)
            if found:
                return found.group(1)
        return f"exit {returncode}"
    return None if matches else "wrong output"


def run_command(workload: Workload, refs: References) -> tuple[Completed, str | None]:
    """One CLI invocation of the workload in a fresh interpreter, checked."""
    done = spawn(["-m", "permcensus", *workload.command.argv])
    ok = done.returncode == 0 and workload.command.check(refs, done.stdout)
    return done, failure_kind(done.returncode, done.stderr, ok, done.timed_out)


def time_setup() -> float:
    """Wall time of a fresh interpreter that imports permcensus.cli and exits.

    This is what every CLI run pays before its first row.
    """
    done = spawn(["-c", "import permcensus.cli"])
    if done.returncode != 0:
        raise RuntimeError("import permcensus.cli failed:\n" + done.stderr.decode(errors="replace"))
    return done.wall_s


def check_checkout() -> None:
    """Stop before measuring when the checkout lacks the package or references."""
    missing = [p for p in (SRC / "permcensus" / "__init__.py", GOLDEN, REFERENCE) if not p.is_file()]
    if missing:
        raise SystemExit("perfbench: missing " + ", ".join(str(p) for p in missing))
