"""tools/bench_pairs.py on synthetic perfbench logs: the claim and the bound checks."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_logs(tmp_path, workload, sides, failed=None):
    """One log per seed and side; sides maps a side to one metrics dict per seed."""
    paths = []
    for seed, (parent, change) in enumerate(zip(sides["parent"], sides["change"]), 1):
        for side, metrics in (("parent", parent), ("change", change)):
            host = {"record": "host", "python": "3.11.7", "cpu_count": 2, "usable_cpus": 2,
                    "revision": {"git": side, "src_sha256": None}}
            result = {"correct": True, "attempted": 20,
                      "failed": (failed or {}).get(side, 0),
                      "metrics": {name: {"value": value} for name, value in metrics.items()}}
            path = tmp_path / f"{workload}.{seed}.{side}.jsonl"
            path.write_text(json.dumps(host) + "\n" + json.dumps(result) + "\n")
            paths.append(path)
    return paths


def runs(walls, rss=20.0):
    """One run per wall time, carrying every end-to-end metric of BENCHMARK.json.

    The checks below use the repo's bounds: setup_s 0.25, wall_s 0.24,
    first_row_s 0.24 and peak_rss_mb 0.1.
    """
    return [{"setup_s": 0.07, "wall_s": wall, "first_row_s": 0.1, "peak_rss_mb": rss}
            for wall in walls]


def statuses(report):
    return {(check["workload"], check["metric"]): check["status"] for check in report["bounds"]}


def test_a_faster_change_holds_its_claim_and_stays_within_every_bound(bench_pairs, tmp_path):
    paths = write_logs(tmp_path, "deep", {"parent": runs([1.00, 1.01, 0.99, 1.02]),
                                          "change": runs([0.90, 0.91, 0.89, 0.92])})
    report = bench_pairs.build(paths, ("deep", "wall_s"))
    assert report["claim"]["holds"]
    assert statuses(report) == {("deep", metric): "within" for metric in
                                ("setup_s", "wall_s", "first_row_s", "peak_rss_mb",
                                 "failed_share")}


def test_a_metric_worse_beyond_its_bound_is_flagged_on_its_own_workload(bench_pairs, tmp_path):
    paths = write_logs(tmp_path, "deep", {"parent": runs([1.0] * 4),
                                          "change": runs([0.9] * 4)})
    paths += write_logs(tmp_path, "wide", {"parent": runs([1.0] * 4, rss=20.0),
                                           "change": runs([1.1] * 4, rss=23.0)})
    report = bench_pairs.build(paths, ("deep", "wall_s"))
    got = statuses(report)
    assert got[("wide", "peak_rss_mb")] == "worse"  # +15% against a bound of 10%
    assert got[("wide", "wall_s")] == "within"  # +10% against a bound of 24%
    assert got[("deep", "wall_s")] == got[("deep", "peak_rss_mb")] == "within"
    [worse] = [check for check in report["bounds"] if check["status"] == "worse"]
    assert worse["worse_by"] == pytest.approx(0.15)


def test_a_spread_wider_than_the_bound_is_unresolved(bench_pairs, tmp_path):
    paths = write_logs(tmp_path, "deep", {"parent": runs([0.7, 1.0, 1.3, 1.0]),
                                          "change": runs([0.8, 1.0, 1.2, 1.05])})
    report = bench_pairs.build(paths, ("deep", "wall_s"))
    assert statuses(report)[("deep", "wall_s")] == "unresolved"
    # Every change run better than every parent run resolves it.
    paths = write_logs(tmp_path, "deep", {"parent": runs([0.7, 1.0, 1.3, 1.0]),
                                          "change": runs([0.5, 0.6, 0.55, 0.6])})
    report = bench_pairs.build(paths, ("deep", "wall_s"))
    assert statuses(report)[("deep", "wall_s")] == "within"


def test_a_larger_failure_share_is_flagged(bench_pairs, tmp_path):
    paths = write_logs(tmp_path, "deep", {"parent": runs([1.0] * 2), "change": runs([0.9] * 2)},
                       failed={"change": 1})
    report = bench_pairs.build(paths, ("deep", "wall_s"))
    assert statuses(report)[("deep", "failed_share")] == "worse"


def test_the_command_exits_1_on_a_metric_worse_beyond_its_bound(bench_pairs, tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    paths = write_logs(logs, "deep", {"parent": runs([1.0] * 3), "change": runs([1.3] * 3)})
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--out", str(out), "--claim", "deep:wall_s", *map(str, paths)])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "deep wall_s: worse, +0.300 against a bound of 0.24"]
    assert statuses(json.loads(out.read_text()))[("deep", "wall_s")] == "worse"


def test_the_command_exits_0_when_every_metric_stays_within_its_bound(bench_pairs, tmp_path,
                                                                     capsys):
    paths = write_logs(tmp_path, "deep", {"parent": runs([1.0] * 3), "change": runs([1.2] * 3)})
    code = bench_pairs.main(["--out", str(tmp_path / "BENCH.json"), "--claim", "deep:wall_s",
                             *map(str, paths)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1:] == []


def test_without_a_claim_the_bounds_still_set_the_exit_code(bench_pairs, tmp_path, capsys):
    paths = write_logs(tmp_path, "deep", {"parent": runs([1.0] * 3), "change": runs([1.3] * 3)})
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--out", str(out), *map(str, paths)])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "deep wall_s: worse, +0.300 against a bound of 0.24"]
    report = json.loads(out.read_text())
    assert report["claim"] is None
    assert statuses(report)[("deep", "wall_s")] == "worse"
    paths = write_logs(tmp_path, "deep", {"parent": runs([1.0] * 3), "change": runs([1.0] * 3)})
    assert bench_pairs.main(["--out", str(out), *map(str, paths)]) == 0
    assert capsys.readouterr().out == ""
