"""The traced pass: per-module numbers for the permcensus layers.

The package is imported in-process from ``src/``.  Before each measured call
every ``permcensus`` module is dropped from ``sys.modules`` and imported
again, so module caches start cold, as in one CLI invocation.  Calls into the
public functions listed in ``TRACED`` become spans: the function object is
replaced, in every ``permcensus`` module that binds it, by a wrapper that
records name, parent span, start and end, and the originals are put back
after the call.  Spans are recorded from these files, not from inside the
package.

Which workload each number belongs to:

- ``import.*``: the start-up of every CLI run (``setup_s`` everywhere);
- ``partitions.partition_table_s``/``entries`` and ``arith.sigma_table_s``:
  the tables of ``census-wide``, built cold up to 5000;
- ``census.*`` (but ``bound_report_s``) and ``cli.census_self_s``/
  ``cli.output_bytes``: the traced ``census --to 5000`` of ``census-wide``;
- ``arith.dirichlet*``, ``census.bound_report_s``, ``cli.verify.*``,
  ``oracle.*`` and ``groups.*``: the traced suites of ``verify-deep``;
- ``partitions.table_mismatches`` and ``cli.threads.failed_frac``: an
  untraced in-process ``census --to 5000 --threads 2``, the race of
  ``census-threads``;
- ``trace.overhead_s``: traced minus untraced time of the workload named on
  the command line.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from math import factorial
from statistics import median
from types import ModuleType

import workloads

# (module, public function) pairs whose calls are recorded as spans.
TRACED = {
    "census": ("count_b", "count_a", "count_b1", "count_a1", "count_b2", "count_a2",
               "significant_digits", "bound_report"),
    "arith": ("dirichlet_convolve", "dirichlet_inverse"),
    "cli": ("main",),
    "oracle": ("brute_count",),
    "groups": ("generates_alt_or_sym", "order_route"),
}
OTHER_COUNTS = ("count_a", "count_b1", "count_a1", "count_b2", "count_a2")
IMPORT_MODULES = ("arith", "census", "characters", "cli", "groups", "oracle",
                  "origami", "partitions", "perm")
ORACLE_DEGREES = (6, 7)
FAMILIES = ("B", "A", "B1", "A1", "B2", "A2")
IMPORT_SAMPLES = 5
TABLE_BOUND = 5000

UNITS = {"calls": "count", "entries": "count", "mismatches": "count",
         "t_candidates": "count", "output_bytes": "bytes", "ratio": "ratio",
         "failed_frac": "ratio"}


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    return next(unit for suffix, unit in UNITS.items() if name.endswith(suffix))


@dataclass(eq=False)
class Span:
    name: str
    parent: Span | None
    args: tuple
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, args)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        return sum(s.seconds for s in self.spans if s.name in names)


def fresh_package() -> dict[str, ModuleType]:
    """Import every permcensus module anew from src/, with empty module caches."""
    for name in [n for n in sys.modules if n == "permcensus" or n.startswith("permcensus.")]:
        del sys.modules[name]
    importlib.import_module("permcensus.cli")
    package = sys.modules["permcensus"]
    if not package.__file__.startswith(str(workloads.SRC)):
        raise RuntimeError(f"permcensus imported from {package.__file__}, not {workloads.SRC}")
    return {name.partition(".")[2]: module for name, module in sys.modules.items()
            if name.startswith("permcensus.")}


@contextlib.contextmanager
def traced(modules: dict[str, ModuleType], tracer: Tracer):
    """Wrap the TRACED functions for the duration of the block, then restore them."""
    replaced = []
    wrappers = set()
    try:
        for home, names in TRACED.items():
            for name in names:
                original = getattr(modules.get(home), name, None)
                if original is None:
                    continue
                wrapper = tracer.wrap(f"{home}.{name}", original)
                wrappers.add(id(wrapper))
                bindings = [(module, attr) for module in modules.values()
                            for attr, value in vars(module).items() if value is original]
                for module, attr in bindings:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)
        left = [f"{m.__name__}.{a}" for m in modules.values()
                for a, v in vars(m).items() if id(v) in wrappers]
        if left:
            raise RuntimeError(f"traced attributes not restored: {left}")


def call_cli(modules, step: workloads.Step, refs) -> tuple[float, bytes, str | None]:
    """Run cli.main(step.argv) in-process: (seconds, stdout, failure kind or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = modules["cli"].main(list(step.argv))
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    except Exception as exc:  # the program under test failed; record its kind
        return time.perf_counter() - start, out.getvalue().encode(), type(exc).__name__
    seconds = time.perf_counter() - start
    stdout = out.getvalue().encode()
    ok = code == 0 and step.check(refs, stdout)
    return seconds, stdout, workloads.failure_kind(code or 0, err.getvalue().encode(), ok)


@dataclass
class Pass:
    """The numbers and the checked calls of one traced pass."""

    metrics: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, str | None]] = field(default_factory=list)
    threads_failure: str | None = None

    def run_steps(self, modules, steps, refs, tracer: Tracer | None = None) -> tuple[float, bytes]:
        """Run the steps in order, optionally traced: (total seconds, last stdout)."""
        total, stdout = 0.0, b""
        with traced(modules, tracer) if tracer else contextlib.nullcontext():
            for step in steps:
                seconds, stdout, failure = call_cli(modules, step, refs)
                total += seconds
                self.checks.append((" ".join(step.argv), failure))
        return total, stdout


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import seconds per permcensus module from `python -X importtime` output.

    A module's number is its cumulative time minus that of the permcensus
    modules nested inside it: its own body plus the standard-library modules
    it was first to import.  ``permcensus`` is the whole package import.
    """
    own = dict.fromkeys(IMPORT_MODULES, 0.0)
    pending: list[tuple[int, float]] = []  # (depth, cumulative us) not yet claimed
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2][1:]
        name = label.strip()
        if name != "permcensus" and not name.startswith("permcensus."):
            continue
        depth = (len(label) - len(label.lstrip(" "))) // 2
        cumulative = float(parts[1])
        nested = sum(c for d, c in pending if d > depth)
        pending = [(d, c) for d, c in pending if d <= depth] + [(depth, cumulative)]
        short = name.partition(".")[2]
        if short in own:
            own[short] += (cumulative - nested) / 1e6
    times = {f"import.{short}_s": seconds for short, seconds in own.items()}
    times["import.permcensus_s"] = sum(c for _, c in pending) / 1e6
    return times


def measure_imports(run: Pass, rng) -> None:
    probes = ["interpreter"] * IMPORT_SAMPLES + ["importtime"] * IMPORT_SAMPLES
    rng.shuffle(probes)
    bare, parsed = [], []
    for probe in probes:
        if probe == "interpreter":
            bare.append(workloads.spawn(["-c", "pass"]).wall_s)
            continue
        done = workloads.spawn(["-X", "importtime", "-c", "import permcensus.cli"])
        if done.returncode != 0:
            raise RuntimeError("import permcensus.cli failed:\n" + done.stderr.decode())
        parsed.append(parse_importtime(done.stderr.decode()))
    run.metrics.update({name: median(p[name] for p in parsed) for name in parsed[0]})
    run.metrics["import.interpreter_s"] = median(bare)


def measure_tables(run: Pass) -> None:
    modules = fresh_package()
    start = time.perf_counter()
    table = modules["partitions"].partition_table(TABLE_BOUND)
    run.metrics["partitions.partition_table_s"] = time.perf_counter() - start
    run.metrics["partitions.entries"] = len(table)
    modules = fresh_package()
    start = time.perf_counter()
    modules["arith"].sigma_table(TABLE_BOUND, 1)
    modules["arith"].sigma_table(TABLE_BOUND, 3)
    run.metrics["arith.sigma_table_s"] = time.perf_counter() - start


def measure_census(run: Pass, refs) -> None:
    workload = workloads.WORKLOADS["census-wide"]
    tracer = Tracer()
    _, stdout = run.run_steps(fresh_package(), workload.in_process, refs, tracer)
    main = tracer.named("cli.main")
    children = sum(s.seconds for s in tracer.spans if s.parent in main)
    run.metrics.update({
        "census.count_b_s": tracer.total("census.count_b"),
        "census.count_b.calls": len(tracer.named("census.count_b")),
        "census.other_counts_s": tracer.total(*(f"census.{n}" for n in OTHER_COUNTS)),
        "census.significant_digits_s": tracer.total("census.significant_digits"),
        "census.significant_digits.calls": len(tracer.named("census.significant_digits")),
        "cli.census_self_s": sum(s.seconds for s in main) - children,
        "cli.output_bytes": len(stdout),
    })


def _candidates_per_call(n: int, family: str, partitions) -> int:
    """Pairs (s, t) the oracle tests: one s per admitted cycle type, times n! t's."""
    def admitted(cycle_type) -> bool:
        if family in ("B1", "A1"):
            return list(cycle_type) == [n]
        if family in ("B2", "A2"):
            return sum(length > 1 for length in cycle_type) == 1
        return True
    return sum(map(admitted, partitions.enumerate_partitions(n))) * factorial(n)


def measure_verify(run: Pass, refs) -> None:
    workload = workloads.WORKLOADS["verify-deep"]
    tracer = Tracer()
    modules = fresh_package()
    run.run_steps(modules, workload.in_process, refs, tracer)
    for step, span in zip(workload.in_process, tracer.named("cli.main")):
        run.metrics[f"cli.verify.suite_s.{step.argv[2]}"] = span.seconds
    brute = tracer.named("oracle.brute_count")
    for n in ORACLE_DEGREES:
        for family in FAMILIES:
            run.metrics[f"oracle.brute_count_s.n{n}.{family}"] = sum(
                s.seconds for s in brute if s.args[:2] == (n, family))
    generates = len(tracer.named("groups.generates_alt_or_sym"))
    order = len(tracer.named("groups.order_route"))
    run.metrics.update({
        "arith.dirichlet_convolve_s": tracer.total("arith.dirichlet_convolve"),
        "arith.dirichlet_inverse_s": tracer.total("arith.dirichlet_inverse"),
        "arith.dirichlet.calls": len(tracer.named("arith.dirichlet_convolve"))
        + len(tracer.named("arith.dirichlet_inverse")),
        "census.bound_report_s": tracer.total("census.bound_report"),
        "oracle.t_candidates": sum(
            _candidates_per_call(*s.args[:2], modules["partitions"]) for s in brute),
        "groups.generates_alt_or_sym_s": tracer.total("groups.generates_alt_or_sym"),
        "groups.generates_alt_or_sym.calls": generates,
        "groups.order_route.calls": order,
        "groups.jordan_route_hit_ratio": (generates - order) / generates if generates else 0.0,
    })


def measure_race(run: Pass, refs) -> None:
    """An untraced threaded census, then its shared partition table against a sequential one.

    The outcome goes to the two race metrics, not to the pass's checks: the
    race is a known defect, measured here rather than counted as a failed pass.
    """
    modules = fresh_package()
    _, _, run.threads_failure = call_cli(modules, workloads.WORKLOADS["census-threads"].command, refs)
    shared = list(modules["partitions"].partition_table(0))
    sequential = fresh_package()["partitions"].partition_table(len(shared) - 1)
    run.metrics["partitions.table_mismatches"] = sum(a != b for a, b in zip(shared, sequential))
    run.metrics["cli.threads.failed_frac"] = float(run.threads_failure is not None)


def layer_pass(workload: workloads.Workload, refs, rng) -> Pass:
    """One traced pass over every layer, plus the tracing overhead of `workload`."""
    run = Pass()
    steps = [partial(measure_imports, run, rng), partial(measure_tables, run),
             partial(measure_census, run, refs), partial(measure_verify, run, refs),
             partial(measure_race, run, refs)]
    rng.shuffle(steps)
    for step in steps:
        step()
    run.metrics["trace.overhead_s"] = measure_overhead(run, workload, refs)
    return run


def measure_overhead(run: Pass, workload: workloads.Workload, refs) -> float:
    """Traced minus untraced in-process time of the workload's calls, run back to back."""
    untraced, _ = run.run_steps(fresh_package(), workload.in_process, refs)
    traced_seconds, _ = run.run_steps(fresh_package(), workload.in_process, refs, Tracer())
    return traced_seconds - untraced
