"""Build a BENCH_*.json from paired runs of perfbench/run.py on two checkouts.

    python3 tools/bench_pairs.py --out BENCH_<label>.json [--claim verify-deep:wall_s] LOGDIR/*.jsonl

Each log is the stdout of one ``perfbench/run.py --trace 0`` run, saved as
``<workload>.<seed>.<side>.jsonl`` with side ``parent`` or ``change``.  A
pair is the two sides' runs of one workload with one seed; run them one
after the other, alternating which side goes first, for example:

    for seed in 101 102; do
      for side in parent change; do   # swap the order on every other seed
        (cd $side && python3 perfbench/run.py --workload verify-deep \
            --seed $seed --seconds 40) > logs/verify-deep.$seed.$side.jsonl
      done
    done

The script reads each log's first line (the host record, with the checkout's
revision) and last line (the metrics, each a median over the run's rounds).
It writes, per workload and metric, the value of each pair, each side's median
and quartiles, the ratio of the medians (change over parent) and the number of
pairs the change reads lower.  For the claimed workload and metric it records
whether the gain holds: the change lower in at least nine tenths of the pairs,
and the medians apart by more than the distance between the parent's
quartiles.  Without --claim the report's "claim" is null.

It also checks every end-to-end metric of the repo's BENCHMARK.json on every
workload against the metric's bound, a relative change: a metric got worse
beyond its bound when the change's median is worse than the parent's by more
than the bound times the parent's median.  A metric is unresolved when the
parent's quartile distance is wider than that margin and the change's runs do
not all read better than all of the parent's, and a workload fails when the
change fails a larger share of its invocations.  The script prints one line
for each metric that is worse or unresolved and each workload that fails more,
and exits 1 when any metric got worse or any workload fails more.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

SIDES = ("parent", "change")
# The end-to-end metrics of the repo's benchmark: name, better ("lower" or
# "higher") and bound, the largest relative worsening allowed.
END_TO_END = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["end_to_end"]


def read_log(path: Path) -> tuple[dict, dict]:
    """The host record and the result of one run.py log."""
    lines = path.read_text().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median(values), "q1": q1, "q3": q3}


def check_bounds(workloads: dict) -> list[dict]:
    """Each end-to-end metric of each workload against its bound, and each failure share."""
    checks = []
    for workload, data in sorted(workloads.items()):
        for spec in END_TO_END:
            name, bound = spec["name"], spec["bound"]
            sign = 1 if spec["better"] == "lower" else -1
            got = data["metrics"][name]
            parent, change = got["parent"]["median"], got["change"]["median"]
            worse_by = sign * (change - parent) / parent
            all_better = all(sign * (c["change"][name] - p["parent"][name]) < 0
                             for p in data["pairs"] for c in data["pairs"])
            if worse_by > bound:
                status = "worse"
            elif got["parent"]["q3"] - got["parent"]["q1"] > bound * parent and not all_better:
                status = "unresolved"
            else:
                status = "within"
            checks.append({"workload": workload, "metric": name, "bound": bound,
                           "worse_by": worse_by, "status": status})
        share = {side: sum(p[side]["failed"] for p in data["pairs"])
                 / max(1, sum(p[side]["attempted"] for p in data["pairs"])) for side in SIDES}
        checks.append({"workload": workload, "metric": "failed_share", **share,
                       "status": "worse" if share["change"] > share["parent"] else "within"})
    return checks


def build(paths: list[Path], claim: tuple[str, str] | None = None) -> dict:
    runs: dict[str, dict[int, dict[str, tuple[dict, dict, float]]]] = {}
    for path in paths:
        workload, seed, side = path.name.removesuffix(".jsonl").rsplit(".", 2)
        if side not in SIDES:
            raise ValueError(f"{path}: side must be parent or change, got {side!r}")
        host, result = read_log(path)
        runs.setdefault(workload, {}).setdefault(int(seed), {})[side] = (
            host, result, path.stat().st_mtime)
    revisions, hosts, workloads = {}, set(), {}
    for workload, by_seed in sorted(runs.items()):
        pairs = []
        for seed, sides in sorted(by_seed.items()):
            if set(sides) != set(SIDES):
                raise ValueError(f"{workload} seed {seed}: need one parent and one change log")
            for side, (host, _, _) in sides.items():
                revisions.setdefault(side, host["revision"])
                if revisions[side] != host["revision"]:
                    raise ValueError(f"{workload} seed {seed}: {side} revision differs")
                hosts.add(json.dumps({k: host[k] for k in ("python", "cpu_count", "usable_cpus")}))
            pair = {"seed": seed, "first": min(SIDES, key=lambda side: sides[side][2])}
            for side in SIDES:
                result = sides[side][1]
                pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
                pair[side]["attempted"], pair[side]["failed"] = result["attempted"], result["failed"]
            pairs.append(pair)
        metrics = {}
        for name in pairs[0]["parent"]:
            if name in ("attempted", "failed"):
                continue
            metrics[name] = {side: spread([p[side][name] for p in pairs]) for side in SIDES}
            metrics[name]["change_lower_in"] = sum(p["change"][name] < p["parent"][name]
                                                   for p in pairs)
            metrics[name]["pairs"] = len(pairs)
            metrics[name]["change_over_parent"] = (metrics[name]["change"]["median"]
                                                   / metrics[name]["parent"]["median"])
        workloads[workload] = {"seeds": sorted(by_seed), "pairs": pairs, "metrics": metrics}
    return {
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds 40",
        "host": [json.loads(h) for h in sorted(hosts)],
        "revisions": revisions,
        "claim": claim and check_claim(workloads, *claim),
        "bounds": check_bounds(workloads),
        "workloads": workloads,
    }


def check_claim(workloads: dict, workload: str, name: str) -> dict:
    """Whether the change's gain on one workload and metric holds."""
    got = workloads[workload]["metrics"][name]
    gap = got["parent"]["median"] - got["change"]["median"]
    parent_iqr = got["parent"]["q3"] - got["parent"]["q1"]
    return {"workload": workload, "metric": name, "median_gap": gap,
            "parent_quartile_distance": parent_iqr,
            "change_lower_in": got["change_lower_in"], "pairs": got["pairs"],
            "holds": 10 * got["change_lower_in"] >= 9 * got["pairs"] and gap > parent_iqr}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("logs", nargs="+", type=Path)
    args = parser.parse_args(argv)
    report = build(args.logs, args.claim and tuple(args.claim.split(":", 1)))
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    claim = report["claim"]
    if claim:
        print(f"{claim['workload']} {claim['metric']}: change lower in "
              f"{claim['change_lower_in']} of {claim['pairs']} pairs, median gap "
              f"{claim['median_gap']:.4f} against parent quartile distance "
              f"{claim['parent_quartile_distance']:.4f}: "
              f"{'holds' if claim['holds'] else 'does not hold'}")
    flagged = [check for check in report["bounds"] if check["status"] != "within"]
    for check in flagged:
        if check["metric"] == "failed_share":
            print(f"{check['workload']}: the change fails {check['change']:.3f} of its "
                  f"invocations, the parent {check['parent']:.3f}")
        else:
            print(f"{check['workload']} {check['metric']}: {check['status']}, "
                  f"{check['worse_by']:+.3f} against a bound of {check['bound']}")
    return 1 if any(check["status"] == "worse" for check in flagged) else 0


if __name__ == "__main__":
    sys.exit(main())
