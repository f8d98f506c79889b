"""Command-line interface: output formats, argument handling, verify suites."""

import hashlib
import importlib
import json
import os
import pkgutil
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import permcensus
from permcensus.cli import SUITE_NAMES, build_parser, main

GOLDEN = Path(__file__).parent / "data" / "census_main.golden"
REFERENCE = Path(__file__).parent.parent / "perfbench" / "reference.json"

EXPECTED_SMALL = """\
3 3 3 1.00000
4 9 12 0.937500
5 27 42 0.900000
6 36 99 0.666667
7 90 231 0.834879
8 108 462 0.642857
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_plain_small(capsys):
    code, out, err = run_cli(capsys, "census", "--from", "3", "--to", "8")
    assert code == 0
    assert out == EXPECTED_SMALL
    assert err == ""


def test_census_cycles_plain(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--family", "cycles", "--from", "5", "--to", "5"
    )
    assert code == 0
    assert out == "5 10 10 1.00000 19 31 3.06452\n"


def test_census_csv(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--format", "csv", "--from", "3", "--to", "4"
    )
    assert code == 0
    assert out.splitlines() == ["n,a,b,proba", "3,3,3,1.00000", "4,9,12,0.937500"]


def test_census_cycles_csv_header(capsys):
    code, out, _ = run_cli(
        capsys,
        "census", "--family", "cycles", "--format", "csv", "--from", "3", "--to", "3",
    )
    assert code == 0
    assert out.splitlines()[0] == "n,a1,b1,proba1,a2,b2,proba2"


def test_census_jsonl(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--format", "jsonl", "--from", "5", "--to", "6"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0] == {"n": 5, "a": 27, "b": 42, "proba": "0.900000"}
    assert records[1]["n"] == 6 and records[1]["b"] == 99


def test_family_choices_are_the_census_layouts():
    from permcensus import census

    census_parser = build_parser()._subparsers._group_actions[0].choices["census"]
    family = next(a for a in census_parser._actions if a.dest == "family")
    assert family.choices == tuple(census.COLUMNS)


def test_census_range_validation(capsys):
    code, _, err = run_cli(capsys, "census", "--from", "2", "--to", "5")
    assert code == 2
    assert "need 3 <=" in err
    code, _, err = run_cli(capsys, "census", "--from", "10", "--to", "5")
    assert code == 2


def test_census_threads_deterministic(capsys):
    _, single, _ = run_cli(capsys, "census", "--from", "3", "--to", "80")
    _, pooled, _ = run_cli(
        capsys, "census", "--from", "3", "--to", "80", "--threads", "4"
    )
    assert single == pooled


def test_census_golden_file(capsys):
    code, out, _ = run_cli(capsys, "census")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_verify_formulas_ok(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suites", "formulas", "--max-n", "4"
    )
    assert code == 0
    assert "suite formulas: ok" in out
    assert "FAIL" not in out
    assert "running suite formulas" in err


def test_verify_identities_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suites", "identities", "--json")
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {"identities": {"passed": True, "failures": []}}


def test_verify_counts_a_non_integer_closed_form_as_a_failure(capsys, monkeypatch):
    from permcensus import arith

    def not_an_integer(n, order, sig1, sig3, sig5):
        raise ArithmeticError(f"ramanujan_rhs({n}, {order!r}) is not an integer")

    monkeypatch.setattr(arith, "_ramanujan_from_sigmas", not_an_integer)
    code, out, _ = run_cli(capsys, "verify", "--suites", "identities")
    assert code == 1
    assert "FAIL sigma convolution closed form deg1 (n <= 5000)" in out
    assert "FAIL sigma convolution closed form deg3 (n <= 5000)" in out


@pytest.mark.parametrize("fault", ["off by one at 360", "not an integer at 360"])
def test_verify_ties_t_to_the_generating_counts(capsys, monkeypatch, fault):
    """The identities suite fails t = sigma1*A when one count_a is wrong or raises."""
    from permcensus import census

    real = census.count_a

    def wrong_at_360(n):
        if n == 360 and fault.startswith("not"):
            raise ArithmeticError("count_a(360) is not an integer (this is a bug)")
        return real(n) + (n == 360)

    monkeypatch.setattr(census, "count_a", wrong_at_360)
    code, out, _ = run_cli(capsys, "verify", "--suites", "identities")
    assert code == 1
    assert out.splitlines() == ["suite identities: 1 failure(s)",
                                "  FAIL t = sigma1*A (n <= 5000)"]


def test_verify_catches_a_moebius_sum_off_by_one_term(capsys, monkeypatch):
    from permcensus import arith

    real = arith.moebius_scaled_divisor_sum

    def off_at_360(n, k):
        return real(n, k) + Fraction(n == 360, n**k)

    monkeypatch.setattr(arith, "moebius_scaled_divisor_sum", off_at_360)
    code, out, _ = run_cli(capsys, "verify", "--suites", "identities")
    assert code == 1
    assert out.splitlines() == [
        "suite identities: 1 failure(s)",
        "  FAIL moebius scaled divisor sums match Euler products (k <= 2, n <= 500)",
    ]


def test_verify_characters_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suites", "characters", "--max-n", "3", "--json"
    )
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary == {"characters": {"passed": True, "failures": []}}


def test_verify_characters_reaches_degree_8(capsys, monkeypatch):
    from permcensus import census

    real_count_b = census.count_b
    monkeypatch.setattr(census, "count_b", lambda n: real_count_b(n) + (n == 8))
    code, out, _ = run_cli(
        capsys, "verify", "--suites", "characters", "--max-n", "8", "--allow-n8"
    )
    assert code == 1
    assert out.splitlines()[1:] == ["  FAIL character sum counts all pairs at n = 8"]


def test_verify_opt_in_degree_eight_all_suites_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "8", "--allow-n8", "--json")
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {
        name: {"passed": True, "failures": []} for name in SUITE_NAMES
    }


def test_verify_runs_a_repeated_suite_once(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suites", "characters", "formulas", "characters",
        "--max-n", "4", "--json",
    )
    assert code == 0
    assert out.count("suite characters: ok") == 1
    assert err.count("running suite characters") == 1
    assert err.index("running suite characters") < err.index("running suite formulas")
    assert list(json.loads(out.splitlines()[-1])) == ["characters", "formulas"]


def test_verify_deep_all_suites_pass(capsys):
    """verify --max-n 7 --json, every suite, as the verify-deep benchmark runs it."""
    code, out, _ = run_cli(capsys, "verify", "--max-n", "7", "--json")
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {
        name: {"passed": True, "failures": []} for name in SUITE_NAMES
    }


def test_verify_reports_each_suite_time_on_stderr(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suites", "characters", "bounds", "characters", "--max-n", "4"
    )
    assert code == 0
    assert "took" not in out
    timed = [line for line in err.splitlines() if " took " in line]
    assert [line.split()[1] for line in timed] == ["characters", "bounds"]
    for line in timed:
        prefix, seconds, unit = line.rsplit(" ", 2)
        assert prefix in ("suite characters took", "suite bounds took")
        assert float(seconds) >= 0 and unit == "s"


def test_verify_bounds_reports_where_the_large_n_bounds_take_hold(capsys):
    code, out, err = run_cli(capsys, "verify", "--suites", "bounds", "--json")
    assert code == 0
    assert out.splitlines() == ["suite bounds: ok", '{"bounds":{"passed":true,"failures":[]}}']
    [line] = [line for line in err.splitlines() if line.startswith("bounds: ")]
    assert line == ("bounds: last degree n <= 500 failing each for-large-n bound at "
                    "eps = 0.5: commutator_lower 87, generating_lower 18")


def test_the_identities_suite_checks_the_census_sigma_sieve(monkeypatch):
    """A wrong sigma(360) in the sieve that census.rows reads fails the sigma1 chain."""
    from permcensus import arith, verify

    sieve = arith.sigma_table

    def sieve_with_a_wrong_sigma_360(bound, k=1):
        table = sieve(bound, k)
        if k == 1:
            table[360] += 1
        return table

    monkeypatch.setattr(arith, "sigma_table", sieve_with_a_wrong_sigma_360)
    failures = [label for label, passed in verify._suite_identities(5) if not passed]
    assert "one*id1 = sigma1" in failures


def test_the_euler_product_check_reads_the_suite_phi_sieve(monkeypatch):
    """A wrong phi(360) in the totient sieve fails the Euler-product check and both phi chains."""
    from permcensus import arith, verify

    sieve = arith.totient_table

    def sieve_with_a_wrong_phi_360(bound):
        table = sieve(bound)
        if bound >= 360:
            table[360] += 1
        return table

    monkeypatch.setattr(arith, "totient_table", sieve_with_a_wrong_phi_360)
    failures = [label for label, passed in verify._suite_identities(5) if not passed]
    for label in ("moebius scaled divisor sums match Euler products (k <= 2, n <= 500)",
                  "one*phi = id1", "tau*phi = sigma1"):
        assert label in failures


def test_verify_argument_validation(capsys):
    for argv in (("--suites", "nope"), ("--max-n", "9")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    code, _, err = run_cli(capsys, "verify", "--max-n", "8")
    assert code == 2
    assert "--allow-n8" in err


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "permcensus", "census", "--from", "3", "--to", "5"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == EXPECTED_SMALL.split("6 36", 1)[0]


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def run_module(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "permcensus", *argv],
        capture_output=True, text=True, env=env,
    )


def test_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "permcensus", "census", "--to", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # like `census --to 3000 | head -1`
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert first == b"3 3 3 1.00000\n"
    assert err == b""


@pytest.mark.parametrize("argv, started", [
    (("census", "--to", "100000"), "stdout"),  # mid-census
    (("verify", "--max-n", "8", "--allow-n8"), "stderr"),  # mid-suite
])
def test_ctrl_c_exits_quietly_with_status_130(argv, started):
    proc = subprocess.Popen([sys.executable, "-m", "permcensus", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert getattr(proc, started).readline()  # the run is under way
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert b"Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [("census", "--to", "3"),
                                  ("verify", "--suites", "characters", "--max-n", "3")])
def test_failed_write_is_one_line_and_exit_1(argv):
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "permcensus", *argv],
                                stdout=full, stderr=subprocess.PIPE, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1] == (
        "permcensus: cannot write output: [Errno 28] No space left on device")


def limit_address_space():
    """Cap the child's address space at 1 GiB, so an infeasible range fails fast."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(sys.platform == "win32", reason="no RLIMIT_AS on this system")
@pytest.mark.parametrize("argv", [("census", "--from", "1000000000000", "--to", "1000000000000"),
                                  ("census", "--to", "1000000000000"),
                                  ("census", "--from", "9223372036854775807",
                                   "--to", "9223372036854775807")])
def test_out_of_memory_is_one_line_and_exit_1(argv):
    result = subprocess.run([sys.executable, "-m", "permcensus", *argv], capture_output=True,
                            text=True, preexec_fn=limit_address_space)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "permcensus: out of memory: census needs more than this process may use\n")


@pytest.mark.parametrize("argv", [("census", "--to", "5"),
                                  ("verify", "--suites", "characters", "--max-n", "3")])
def test_closed_stdout_is_one_line_and_exit_1(argv):
    result = subprocess.run(["sh", "-c", '"$@" >&-', "sh", sys.executable, "-m", "permcensus",
                             *argv], capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr == "permcensus: cannot write output: stdout is closed\n"


def run_in_shell(redirect, *argv):
    return subprocess.run(["sh", "-c", f'"$@" {redirect}', "sh",
                           sys.executable, "-m", "permcensus", *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("redirect", [
    "2>&-",
    pytest.param("2>/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                         reason="no /dev/full on this system")),
])
def test_lost_stderr_changes_neither_stdout_nor_exit_code(redirect):
    verify = ("verify", "--suites", "characters", "--max-n", "3", "--json")
    normal = run_in_shell("", *verify)
    assert normal.returncode == 0 and "suite characters: ok" in normal.stdout
    lost = run_in_shell(redirect, *verify)
    assert (lost.returncode, lost.stdout) == (0, normal.stdout)
    for argv in (("census", "--to", "2"), ("verify", "--max-n", "8")):
        result = run_in_shell(redirect, *argv)
        assert (result.returncode, result.stdout) == (2, "")


def test_thread_count_in_the_environment_is_not_read():
    plain = run_module("census", "--to", "5")
    result = run_module("census", "--to", "5", env=os.environ | {"PERMCENSUS_THREADS": "abc"})
    assert (result.returncode, result.stdout) == (0, plain.stdout)
    assert plain.returncode == 0 and plain.stdout


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_thread_count_below_one_is_a_usage_error(threads):
    result = run_module("census", "--to", "5", "--threads", threads)
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert "--threads" in result.stderr and repr(threads) in result.stderr


def test_a_cycles_degree_above_the_cap_is_a_usage_error():
    """A cycles row past 10**12 would trial-divide for hours; it is refused at once."""
    huge = "99999999999999999999999"
    argv = [sys.executable, "-m", "permcensus", "census", "--family", "cycles"]
    result = subprocess.run([*argv, "--from", huge, "--to", huge],
                            capture_output=True, text=True, timeout=10)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"census: --family cycles needs --to <= 1000000000000, got {huge}\n"
    capped = subprocess.run([*argv, "--from", "1000000000000", "--to", "1000000000000"],
                            capture_output=True, text=True, timeout=10)
    assert capped.returncode == 0
    assert capped.stdout.startswith("1000000000000 ")


# Census runs far past the golden file's 255, each pinned by the sha256 of its
# stdout.  None stands for the census --to 5000 digest in perfbench/reference.json;
# the others cover layouts and formats that no other digest covers, recorded
# from the output of commit 1b7f895, which computed every row before writing any.
CENSUS_DIGESTS = [
    pytest.param(("--to", "5000"), None, id="main-plain-to-5000"),
    pytest.param(("--family", "cycles", "--to", "2000"),
                 "f2e7d9f8f5937d27aeaa90ea2ba7eea676c02e0d1d2a6f1250d072b438434e9f",
                 id="cycles-plain-to-2000"),
    pytest.param(("--format", "csv", "--to", "2000"),
                 "811a50fef8087c928839fb00a3b891f620bd1dcec29b6491df73299f4f3d052f",
                 id="main-csv-to-2000"),
    pytest.param(("--format", "jsonl", "--to", "2000"),
                 "b7378f87f170e0157b8ad24556bce39f114da22c0183a841c2f82df7f5ee5648",
                 id="main-jsonl-to-2000"),
    pytest.param(("--family", "cycles", "--format", "jsonl", "--to", "2000"),
                 "7c506076e11b728f5b928e881ec174c01276261e11e8f09b8c18a4d1f971ebcc",
                 id="cycles-jsonl-to-2000"),
    pytest.param(("--family", "cycles", "--format", "csv", "--from", "100", "--to", "2000"),
                 "9245c1b925594f6b8000f34ac5d270e2773a6d899ce3fb72bc5fa39d5f959f1d",
                 id="cycles-csv-from-100-to-2000"),
]


@pytest.mark.parametrize("argv, want", CENSUS_DIGESTS)
def test_wide_census_matches_recorded_digest(argv, want):
    result = subprocess.run(
        [sys.executable, "-m", "permcensus", "census", *argv], capture_output=True
    )
    assert result.returncode == 0
    if want is None:
        want = json.loads(REFERENCE.read_text())["census_to_5000_sha256"]
    assert hashlib.sha256(result.stdout).hexdigest() == want


def test_census_writes_each_row_before_computing_the_next(capsys, monkeypatch):
    from permcensus import census

    real_count_b = census.count_b

    def fails_at_10(n, tables=None):
        if n == 10:
            raise ArithmeticError("count_b(10) is not an integer (this is a bug)")
        return real_count_b(n, tables)

    monkeypatch.setattr(census, "count_b", fails_at_10)
    with pytest.raises(ArithmeticError):
        main(["census", "--to", "20"])
    written = capsys.readouterr().out
    assert written.splitlines(keepends=True) == GOLDEN.read_text().splitlines(keepends=True)[:7]


def test_census_writes_the_golden_rows_and_row_256_before_drawing_p_257(capsys, monkeypatch):
    from permcensus import census

    _, row_256, _ = run_cli(capsys, "census", "--from", "256", "--to", "256")
    real_partition_numbers = census.partition_numbers

    def up_to_256():
        for n, value in enumerate(real_partition_numbers()):
            if n > 256:
                raise RuntimeError(f"P({n}) drawn")
            yield value

    monkeypatch.setattr(census, "partition_numbers", up_to_256)
    with pytest.raises(RuntimeError, match=r"P\(257\) drawn"):
        main(["census", "--to", "5000"])
    written = capsys.readouterr().out
    assert written == GOLDEN.read_text() + row_256


def test_census_cycles_layout_reads_no_count_b(capsys, monkeypatch):
    from permcensus import census

    argv = ("census", "--family", "cycles", "--to", "50")
    _, want, _ = run_cli(capsys, *argv)

    def not_read(*args):
        raise AssertionError("the cycles layout prints no count_b column")

    monkeypatch.setattr(census, "count_b", not_read)
    monkeypatch.setattr(census, "partition_numbers", not_read)
    monkeypatch.setattr(census, "sigma_table", not_read)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == want
    assert err == ""


# Imports every module of the package, records the length of each module-level
# list, dict and set, runs a main and a cycles census and two verify suites in
# this one interpreter, and prints the names whose length changed.
GROWTH_PROBE = """
import contextlib, importlib, io, json, pkgutil, sys
import permcensus
from permcensus.cli import main

for info in pkgutil.iter_modules(permcensus.__path__):
    if info.name != "__main__":
        importlib.import_module("permcensus." + info.name)

def sizes():
    return {module.__name__ + "." + name: len(value)
            for module in list(sys.modules.values())
            if module.__name__.startswith("permcensus.")
            for name, value in vars(module).items()
            if not name.startswith("__") and isinstance(value, (list, dict, set))}

before = sizes()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["census", "--to", "300"]),
             main(["census", "--family", "cycles", "--to", "300"]),
             main(["verify", "--suites", "identities", "bounds", "--max-n", "5"])]
after = sizes()
print(json.dumps({"codes": codes, "sizes": len(before),
                  "grown": sorted(name for name in after if after[name] != before.get(name))}))
"""


def test_no_module_state_grows_during_a_run():
    """Tables are built per run; no module-level list, dict or set keeps them.

    The probe measures only plain lists, dicts and sets bound at module level;
    the test below looks for functools caches.
    """
    result = subprocess.run([sys.executable, "-c", GROWTH_PROBE], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0, 0, 0]
    assert report["sizes"] > 0
    assert report["grown"] == []


def test_the_package_has_no_module_cache():
    """No module-level object of the package has cache_info, and so no maxsize."""
    modules = [importlib.import_module("permcensus." + info.name)
               for info in pkgutil.iter_modules(permcensus.__path__) if info.name != "__main__"]
    caches = {f"{value.__module__}.{value.__qualname__}": value.cache_info().maxsize
              for module in modules for value in vars(module).values()
              if hasattr(value, "cache_info")}
    assert caches == {}
