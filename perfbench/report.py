"""Every metric of every workload, by name and unit, with the output checks.

    python3 perfbench/report.py --seed 1 [--seconds 10]

Run it from the root of a checkout.  The four workloads are measured as in
``run.py --trace 0``, but interleaved: each round runs one round of every
workload that still has time, in an order drawn from the seed, so a change in
host speed during the report touches every workload alike.  One traced pass
then gives the per-layer metrics and the tracing overhead of each workload.
Exits 1 when any output check failed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import random
import sys

import layers
import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per workload (default 10)")
    args = parser.parse_args(argv)
    workloads.check_checkout()
    refs = workloads.load_references()
    sys.path.insert(0, str(workloads.SRC))
    rng = random.Random(args.seed)
    host = run.host_record() | {"loadavg_start": run.loadavg()}

    run.warm_up()
    measurements = [run.Measurement(w, args.seconds) for w in workloads.WORKLOADS.values()]
    active = list(measurements)
    while active:
        rng.shuffle(active)
        for measurement in active:
            measurement.round(refs, rng)
        active = [m for m in active if m.has_time()]

    names = list(workloads.WORKLOADS)
    traced = layers.layer_pass(workloads.WORKLOADS[names[0]], refs, rng)
    overheads = {names[0]: traced.metrics.pop("trace.overhead_s")}
    for name in names[1:]:
        overheads[name] = layers.measure_overhead(traced, workloads.WORKLOADS[name], refs)
    host["loadavg_end"] = run.loadavg()

    print(f"host: {host}")
    failed = 0
    for m in measurements:
        summary = m.summary()
        failed += summary["failed"]
        kinds = summary["failure_kinds"] or ""
        print(f"\n{m.workload.name}: {summary['attempted']} invocations, "
              f"{summary['failed']} failed {kinds}")
        for name, value in m.metrics().items():
            print(f"  {name:<34} {value:>14.6g} {run.UNITS[name]}")
        print(f"  {'failed_frac':<34} {summary['failed_frac']:>14.6g} ratio")
        print(f"  {'trace.overhead_s':<34} {overheads[m.workload.name]:>14.6g} s")

    bad_checks = [(call, failure) for call, failure in traced.checks if failure]
    failed += len(bad_checks)
    print(f"\ntraced pass: {len(traced.checks)} checked calls, {len(bad_checks)} failed "
          f"{bad_checks or ''}; threaded census: {traced.threads_failure or 'ok'}")
    for name, value in sorted(traced.metrics.items()):
        print(f"  {name:<34} {value:>14.6g} {layers.unit_of(name)}")
    failed += traced.threads_failure is not None
    print(f"\n{'FAIL' if failed else 'OK'}: {failed} failed check(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
