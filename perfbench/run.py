"""Benchmark of the permcensus command line, one workload per run.

    python3 perfbench/run.py --workload census-wide --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.

With ``--trace 0`` the run starts the real CLI (``python -m permcensus ...``)
in a fresh interpreter again and again for ``--seconds`` seconds, in rounds:
one invocation of the workload, ``SETUP_PER_ROUND`` set-up probes (a fresh
interpreter that imports ``permcensus.cli`` and exits) and
``CALIBRATION_PER_ROUND`` timings of ``calibrate.work()``, in an order drawn from
``--seed``.  Every output is checked (see ``workloads.py``).  It reports
medians over the run:

- ``setup_s``: one set-up probe, the cost every CLI run pays before work;
- ``wall_s``: one invocation, launch to exit;
- ``first_row_s``: launch to the first stdout byte, what ``census | head``
  waits for;
- ``peak_rss_mb``: the child's peak resident memory, from its own rusage.

The three times are in seconds at the host's reference speed: each is
divided by the host's slowness in its round (see ``Measurement``).  The raw
times are in the records.

A failed invocation (non-zero exit, wrong output, timeout) counts its times
plus the whole run length, so it reads slower than any bound allows, and a
fix that turns failures into completed runs reads as a gain.

With ``--trace 1`` the run repeats the traced in-process pass of
``layers.py`` for ``--seconds`` seconds and reports the per-layer medians.

The lines before the last one are JSON records: the host (Python version,
CPU count, revision, load average at start and end), every invocation with
its raw wall and CPU time and the host's slowness, and the spread of each
sample.  The last line is the result.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median, quantiles

import calibrate
import layers
import workloads

SETUP_PER_ROUND = 3
CALIBRATION_PER_ROUND = 3
SLOWNESS_WINDOW = 2  # rounds on each side whose calibrations also count
# The time of calibrate.work() on a 2-core x86-64 host with CPython 3.11.7
# at its usual speed; times are reported as if the host ran at that speed.
CALIBRATION_REFERENCE_S = 0.062


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def revision() -> dict[str, str | None]:
    """The git revision when the checkout is a repository, and a digest of src/."""
    git = None
    if (workloads.ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True, timeout=30)
        git = done.stdout.strip() if done.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(workloads.SRC)).encode() + b"\0" + path.read_bytes())
    return {"git": git, "src_sha256": digest.hexdigest()}


def host_record() -> dict:
    return {
        "record": "host",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "revision": revision(),
    }


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def spread(values: list[float]) -> dict:
    """Count, median, quartiles, extremes and the highest percentile with ten samples above it."""
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    summary = {"n": len(values), "median": median(values), "q1": q1, "q3": q3,
               "min": min(values), "max": max(values)}
    if len(values) > 10:
        pct = int(100 * (len(values) - 10) / len(values))
        if pct >= 1:
            summary[f"p{pct}"] = quantiles(values, n=100)[pct - 1]
    return summary


@dataclass
class Round:
    """One invocation with the set-up probes and calibrations timed around it."""

    done: workloads.Completed
    failure: str | None
    setup: list[float]
    calibration: list[float]  # seconds of calibrate.work()


class Measurement:
    """The rounds of one workload: checked invocations, set-up probes, calibrations.

    Every round also times ``calibrate.work()`` CALIBRATION_PER_ROUND times
    in this process.  The median of those times over this round and
    SLOWNESS_WINDOW rounds on each side, against CALIBRATION_REFERENCE_S, is
    the host's slowness during the round, and every time of the round is
    divided by it.  A shared host can run half as fast for minutes at a time;
    the division removes that change but not one in the program, since the
    calibration never runs permcensus code.  The window matches the few
    calibrations to the longer span of an invocation.  The raw times stay in
    the records.
    """

    def __init__(self, workload: workloads.Workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.rounds: list[Round] = []
        self.busy = 0.0

    def round(self, refs, rng) -> None:
        """One invocation, set-up probes and calibrations, in an order drawn from rng."""
        start = time.perf_counter()
        order = ["invoke"] + ["setup"] * SETUP_PER_ROUND + ["calibrate"] * CALIBRATION_PER_ROUND
        rng.shuffle(order)
        setups, calibrations = [], []
        for step in order:
            if step == "setup":
                setups.append(workloads.time_setup())
            elif step == "calibrate":
                calibrations.append(calibrate.seconds())
            else:
                done, failure = workloads.run_command(self.workload, refs)
        self.rounds.append(Round(done, failure, setups, calibrations))
        self.busy += time.perf_counter() - start

    def has_time(self) -> bool:
        """Whether another round, as long as the mean so far, fits in the run."""
        return not self.rounds or self.busy * (len(self.rounds) + 1) / len(self.rounds) <= self.seconds

    def failed(self) -> int:
        return sum(r.failure is not None for r in self.rounds)

    def slowness(self) -> list[float]:
        """The host's slowness in each round, from the calibrations near it."""
        slowness = []
        for i in range(len(self.rounds)):
            near = self.rounds[max(0, i - SLOWNESS_WINDOW): i + SLOWNESS_WINDOW + 1]
            slowness.append(median(c for r in near for c in r.calibration) / CALIBRATION_REFERENCE_S)
        return slowness

    def metrics(self) -> dict[str, float]:
        def charged(value: float, failure: str | None, slow: float) -> float:
            return value / slow + (0.0 if failure is None else self.seconds)

        rounds = list(zip(self.rounds, self.slowness()))
        return {
            "setup_s": median(raw / slow for r, slow in rounds for raw in r.setup),
            "wall_s": median(charged(r.done.wall_s, r.failure, slow) for r, slow in rounds),
            "first_row_s": median(charged(r.done.first_byte_s, r.failure, slow)
                                  for r, slow in rounds),
            "peak_rss_mb": median(r.done.peak_rss_mb for r in self.rounds),
        }

    def records(self) -> list[dict]:
        return [{"record": "invocation", "workload": self.workload.name,
                 "wall_s": r.done.wall_s, "cpu_s": r.done.cpu_s,
                 "first_row_s": r.done.first_byte_s, "peak_rss_mb": r.done.peak_rss_mb,
                 "exit": r.done.returncode, "failure": r.failure, "setup_s": r.setup,
                 "calibration_s": r.calibration, "host_slowness": slow}
                for r, slow in zip(self.rounds, self.slowness())]

    def summary(self) -> dict:
        return {
            "record": "summary",
            "workload": self.workload.name,
            "attempted": len(self.rounds),
            "failed": self.failed(),
            "failed_frac": self.failed() / len(self.rounds),
            "failure_kinds": dict(collections.Counter(r.failure for r in self.rounds if r.failure)),
            "raw_wall_s": spread([r.done.wall_s for r in self.rounds]),
            "raw_cpu_s": spread([r.done.cpu_s for r in self.rounds]),
            "raw_setup_s": spread([raw for r in self.rounds for raw in r.setup]),
            "calibration_s": spread([c for r in self.rounds for c in r.calibration]),
        }


UNITS = {"setup_s": "s", "wall_s": "s", "first_row_s": "s", "peak_rss_mb": "MB"}


def result(correct: bool, attempted: int, failed: int, metrics: dict, units) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units(name)}
                        for name, value in metrics.items()}}


def warm_up() -> None:
    """Byte-compile the package once, untimed, as an installed package would be."""
    workloads.time_setup()


def measure_end_to_end(workload, refs, rng, seconds) -> dict:
    warm_up()
    measurement = Measurement(workload, seconds)
    while measurement.has_time():
        measurement.round(refs, rng)
    for record in measurement.records() + [measurement.summary()]:
        emit(record)
    failed = measurement.failed()
    return result(failed == 0, len(measurement.rounds), failed, measurement.metrics(), UNITS.get)


def measure_layers(workload, refs, rng, seconds) -> dict:
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        calibrations = [calibrate.seconds() for _ in range(CALIBRATION_PER_ROUND)]
        run = layers.layer_pass(workload, refs, rng)
        passes.append(run)
        emit({"record": "pass", "workload": workload.name, "checks": run.checks,
              "threads_failure": run.threads_failure,
              "host_slowness": median(calibrations) / CALIBRATION_REFERENCE_S,
              "metrics": run.metrics})
    metrics = {name: median(p.metrics[name] for p in passes) for name in passes[0].metrics}
    checks = [failure for p in passes for _, failure in p.checks]
    failed = sum(f is not None for f in checks)
    return result(failed == 0, len(checks), failed, dict(sorted(metrics.items())), layers.unit_of)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workloads.check_checkout()
    refs = workloads.load_references()
    sys.path.insert(0, str(workloads.SRC))
    workload = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    emit(host_record() | {"loadavg_start": loadavg()})
    measure = measure_layers if args.trace else measure_end_to_end
    outcome = measure(workload, refs, rng, args.seconds)
    emit({"record": "host_end", "loadavg_end": loadavg()})
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
