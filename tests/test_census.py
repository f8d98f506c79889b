"""Closed-form family counts, probability diagnostics and the bound sweep."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permcensus import census
from permcensus.arith import (
    ArithSeq,
    dirichlet_convolve,
    jordan_totient,
    primes_up_to,
    series_product,
    sigma_k,
    sigma_table,
)
from permcensus.census import (
    CensusRow,
    _t_table,
    bound_report,
    census_row,
    count_a,
    count_a1,
    count_a2,
    count_b,
    count_b1,
    count_b2,
    psi,
    rows,
    significant_digits,
)
from permcensus.partitions import partition_count, partition_numbers, partition_table, times_p

# (n, b, a, b1, a1, b2, a2) for the first few degrees
KNOWN_ROWS = [
    (3, 3, 3, 1, 1, 3, 3),
    (4, 12, 9, 4, 4, 12, 9),
    (5, 42, 27, 10, 10, 31, 19),
    (6, 99, 36, 20, 18, 65, 32),
    (7, 231, 90, 35, 35, 120, 55),
    (8, 462, 108, 56, 48, 203, 75),
]


def test_known_small_values():
    for n, b, a, b1, a1, b2, a2 in KNOWN_ROWS:
        assert count_b(n) == b
        assert count_a(n) == a
        assert count_b1(n) == b1
        assert count_a1(n) == a1
        assert count_b2(n) == b2
        assert count_a2(n) == a2


def test_degree_validation():
    for func in (count_b, count_a, count_b1, count_a1, count_b2, count_a2):
        with pytest.raises(ValueError):
            func(2)


def test_single_cycle_closed_forms():
    """b1 is the binomial C(n,3); a1 is (n/6)(J2(n) - 3 J1(n))."""
    for n in range(3, 300):
        assert count_b1(n) == n * (n - 1) * (n - 2) // 6
        assert 6 * count_a1(n) == n * (jordan_totient(n, 2) - 3 * jordan_totient(n, 1))


def test_one_cycle_closed_forms():
    for n in range(3, 300):
        assert 24 * count_b2(n) == (n - 1) * (n - 2) * (n * n + 5 * n + 12)
        assert count_a2(n) == count_a1(n) + (n + 1) * (n - 2) // 2


def test_total_closed_forms():
    for n in range(3, 300):
        assert 8 * count_a(n) == 3 * (n - 2) * jordan_totient(n, 2)
        lhs = 8 * count_b(n)
        rhs = 3 * (
            psi_by_hand(3, n) - 2 * psi_by_hand_weighted(n) + n * partition_count(n)
        )
        assert lhs == rhs


def psi_by_hand(exponent, n):
    """sum of sigma_3(k) P(n-k); exponent fixed to 3 for the b-count check."""
    table = partition_table(n)
    return sum(sigma_k(k, 3) * table[n - k] for k in range(1, n + 1))


def psi_by_hand_weighted(n):
    """sum of k sigma(k) P(n-k)."""
    table = partition_table(n)
    return sum(k * sigma_k(k, 1) * table[n - k] for k in range(1, n + 1))


def test_a_count_decomposition():
    """a = a1 + (5/24) n J2 + (1/2) n J1 - (3/4) J2, the two-cylinder balance."""
    for n in range(3, 200):
        j1 = jordan_totient(n, 1)
        j2 = jordan_totient(n, 2)
        assert 24 * (count_a(n) - count_a1(n)) == 5 * n * j2 + 12 * n * j1 - 18 * j2


@pytest.mark.parametrize("a", [0, 1, 2, 3, 1.5, Fraction(3, 2), -0.5],
                         ids=["int0", "int1", "int2", "int3", "float", "fraction", "negative-float"])
def test_psi_definition(a):
    """psi equals the written-out sum, value and type, bit for bit.

    k**a is a float for a non-integer a; the negative exponent fails if slot
    0 of the weights is ever raised to a power (0 ** -0.5 raises).
    """
    sig = [sigma_k(k, 1) if k else 0 for k in range(150)]
    for n in range(1, 150):
        table = partition_table(n)
        direct = sum(k**a * sig[k] * table[n - k] for k in range(1, n + 1))
        got = psi(a, n)
        assert (type(got), got) == (type(direct), direct)
    assert psi(0, 40) == 40 * partition_count(40)


def test_psi_float_path():
    for n in (10, 50, 120):
        value = psi(1.5, n)
        assert isinstance(value, float)
        assert psi(1, n) < value < psi(2, n)
    with pytest.raises(ValueError):
        psi(2, 0)


def test_psi_rejects_negative_integer_exponent():
    with pytest.raises(ValueError, match="a = -1"):
        psi(-1, 10)


def test_psi_sweeps_of_bound_report_match_psi():
    """The times_p streams of psi that bound_report reads equal psi at every degree.

    series_product, the packed-integer product, is a second route to the
    same values.  The psi_(2-eps) < count_b failures of bound_report are the
    degrees where psi and count_b, called one degree at a time, fail it;
    87 is the last.
    """
    bound = 400
    sig, table = sigma_table(bound), partition_table(bound)
    for a in (0, 1, 2):
        weights = census._weights(a, sig)
        psis = list(times_p(weights))
        assert psis == series_product(weights, table)
        assert psis[1:] == [psi(a, n) for n in range(1, bound + 1)]
    failing = [n for n in range(3, 201) if not psi(2 - census.EPSILON, n) < count_b(n)]
    assert census.bound_report(200).epsilon_failures["commutator_lower"] == failing
    assert failing[-1] == 87


def test_census_row_and_probabilities():
    row = census_row(5)
    assert (row.b, row.a, row.b1, row.a1, row.b2, row.a2) == (42, 27, 10, 10, 31, 19)
    assert row.p1 == 1
    assert row.p2 == Fraction(19, 31)
    assert row.pa == Fraction(27, 42)


def test_census_row_reads_the_rows_that_match_the_count_functions():
    for n in [*range(3, 301), 2310]:
        want = CensusRow(n, count_b(n), count_a(n), count_b1(n), count_a1(n), count_b2(n),
                         count_a2(n))
        assert census_row(n) == want


def test_census_row_rejects_a_degree_below_three():
    with pytest.raises(ValueError, match="family counts need n >= 3, got 2"):
        census_row(2)


def test_prime_case_probability_is_one():
    for p in primes_up_to(1000):
        if p >= 3:
            assert count_a1(p) == count_b1(p)


@given(st.integers(3, 500))
def test_p1_never_exceeds_one(n):
    row = census_row(n)
    assert 0 < row.p1 <= 1
    assert 0 < row.p2
    assert 0 < row.pa <= 1


def column(layout, name, degrees):
    """The values of the named rows column at each degree."""
    i = census.COLUMNS[layout].index(name)
    return [row[i] for row in rows(layout, degrees)]


def test_proba1_is_one_at_primes_and_falls_along_primorials_above_six_over_pi_squared():
    values = column("cycles", "proba1", [5, 7, 30, 210, 2310])
    assert values[0] == 1
    assert values[1] == 1
    six_over_pi2 = 6 / math.pi**2
    primorials = [float(value) for value in values[2:]]
    assert primorials[0] > primorials[1] > primorials[2]
    assert all(value > six_over_pi2 for value in primorials)


def test_proba2_falls_along_primorials_above_twenty_four_over_pi_squared():
    values = [float(value) for value in column("cycles", "proba2", [30, 210, 2310])]
    assert values[0] > values[1] > values[2]
    assert all(value > 24 / math.pi**2 for value in values)


def test_main_proba_lies_strictly_between_zero_and_one():
    for value in column("main", "proba", [50, 100, 150, 200, 255]):
        assert 0 < float(value) < 1


COMPOSITE_DEGREES = [4, 6, 12, 30, 60, 210, 2310]


def test_main_rows_hold_the_counts_and_the_generating_ratio():
    got = list(rows("main", COMPOSITE_DEGREES))
    assert [row[0] for row in got] == COMPOSITE_DEGREES
    for n, a, b, proba in got:
        assert (a, b) == (count_a(n), count_b(n))
        assert type(proba) is Fraction
        assert proba == Fraction(partition_count(n) * a, n * b)


def test_cycles_rows_hold_the_counts_and_both_ratios():
    got = list(rows("cycles", COMPOSITE_DEGREES))
    assert [row[0] for row in got] == COMPOSITE_DEGREES
    for n, a1, b1, proba1, a2, b2, proba2 in got:
        assert (a1, b1, a2, b2) == (count_a1(n), count_b1(n), count_a2(n), count_b2(n))
        assert type(proba1) is Fraction and type(proba2) is Fraction
        assert proba1 == Fraction(a1, b1) == census_row(n).p1
        assert proba2 == Fraction(n * a2, b2) == n * census_row(n).p2


def test_rows_match_their_column_names():
    for layout, header in census.COLUMNS.items():
        assert all(len(row) == len(header) for row in rows(layout, range(3, 20)))
    assert list(rows("main", [])) == list(rows("cycles", [])) == []


@pytest.mark.parametrize("degrees", [[], [3]])
def test_rows_reject_an_unknown_layout(degrees):
    with pytest.raises(ValueError, match="unknown layout"):
        next(rows("orbits", degrees))


def record_partition_numbers_drawn(monkeypatch) -> list[int]:
    """Patch census.partition_numbers to append each value it yields to the returned list."""
    drawn = []

    def recording():
        for value in partition_numbers():
            drawn.append(value)
            yield value

    monkeypatch.setattr(census, "partition_numbers", recording)
    return drawn


def main_rows_one_degree_at_a_time(degrees):
    """The main rows from per-degree counts, each count_b(n) with its own tables."""
    counts = [(n, count_a(n), count_b(n)) for n in degrees]
    return [(n, a, b, Fraction(partition_count(n) * a, n * b)) for n, a, b in counts]


def test_the_first_row_of_a_wide_main_run_draws_no_partition_number_past_its_degree(monkeypatch):
    drawn = record_partition_numbers_drawn(monkeypatch)
    got = rows("main", range(3, 5001))
    assert next(got)[0] == 3
    assert drawn == [1, 1, 2, 3]
    assert sum(1 for _ in got) == 4997
    assert drawn == partition_table(5000)


def test_a_main_run_draws_partition_numbers_up_to_its_largest_degree(monkeypatch):
    drawn = record_partition_numbers_drawn(monkeypatch)
    assert len(list(rows("main", range(3, 256)))) == 253
    assert drawn == partition_table(255)


def test_main_rows_in_any_order_match_the_per_degree_counts(monkeypatch):
    drawn = record_partition_numbers_drawn(monkeypatch)
    got = list(rows("main", [300, 4, 257]))
    assert drawn == partition_table(300)
    assert got == main_rows_one_degree_at_a_time([300, 4, 257])


def record_table_bounds(monkeypatch) -> dict[str, list[int]]:
    """Patch census.sigma_table and census.jordan_table to record the bound of each build."""
    bounds = {"sigma_table": [], "jordan_table": []}
    for name, recorded in bounds.items():
        def recording(bound, *k, real=getattr(census, name), recorded=recorded):
            recorded.append(bound)
            return real(bound, *k)

        monkeypatch.setattr(census, name, recording)
    return bounds


def test_the_first_row_of_a_wide_main_run_sieves_no_table_past_twice_its_degree(monkeypatch):
    bounds = record_table_bounds(monkeypatch)
    assert next(rows("main", range(3, 5001)))[0] == 3
    # sigma and sigma_3 for t, and J_2, each once and each up to 3.
    assert bounds == {"sigma_table": [3, 3], "jordan_table": [3]}


@pytest.mark.parametrize("n", [3, 4, 255, 2310])
def test_a_one_degree_census_row_sieves_no_table_past_its_degree(monkeypatch, n):
    bounds = record_table_bounds(monkeypatch)
    census_row(n)
    assert bounds == {"sigma_table": [n, n], "jordan_table": [n]}


def test_a_main_run_doubles_its_tables_and_factorizes_no_degree(monkeypatch):
    bounds = record_table_bounds(monkeypatch)

    def not_called(*args):
        raise AssertionError("a main row factorized its degree")

    monkeypatch.setattr(census, "jordan_totient", not_called)
    monkeypatch.setattr(census, "factorize", not_called)
    assert len(list(rows("main", range(3, 5001)))) == 4998
    builds = [3 * 2**k for k in range(12)]  # 3, 6, 12, ..., 6144
    assert bounds == {"sigma_table": [b for b in builds for _ in (1, 3)], "jordan_table": builds}
    assert sum(builds) <= 4 * 5000


def test_a_cycles_row_factorizes_its_degree_once(monkeypatch):
    from permcensus import arith

    calls, real = [], arith.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "factorize", counting)
    monkeypatch.setattr(census, "factorize", counting)
    assert len(list(rows("cycles", range(3, 1003)))) == 1000
    assert calls == list(range(3, 1003))


@pytest.mark.parametrize("layout", ["main", "cycles"])
def test_rows_read_a_generator_of_degrees_as_they_read_a_list(layout):
    degrees = [300, 4, 257, 12]
    assert list(rows(layout, (n for n in degrees))) == list(rows(layout, degrees))


def test_main_rows_across_the_head_match_the_per_degree_counts():
    assert list(rows("main", range(250, 600))) == main_rows_one_degree_at_a_time(range(250, 600))


def test_raw_generating_ratio_decreases_on_grid():
    ratios = [census_row(n).pa for n in (50, 100, 150, 200, 255)]
    assert all(x > y for x, y in zip(ratios, ratios[1:]))


def bound_report_one_degree_at_a_time(n_max):
    """bound_report(n_max) rebuilt from psi, count_b and count_a called at each degree."""
    strict = {name: [] for name in ("commutator_upper", "generating_upper",
                                    "sandwich_a0", "sandwich_a1", "sandwich_a2")}
    eps_fail = {"commutator_lower": [], "generating_lower": []}
    for n in range(3, n_max + 1):
        p_n, b_n, a_n = partition_count(n), count_b(n), count_a(n)
        if not 8 * b_n < 3 * psi(2, n):
            strict["commutator_upper"].append(n)
        if not 8 * a_n < 3 * n**3:
            strict["generating_upper"].append(n)
        for a in (0, 1, 2):
            if not n * p_n <= psi(a, n) <= n ** (a + 1) * p_n:
                strict[f"sandwich_a{a}"].append(n)
        if not psi(2 - census.EPSILON, n) < b_n:
            eps_fail["commutator_lower"].append(n)
        if not n ** (3 - census.EPSILON) < a_n:
            eps_fail["generating_lower"].append(n)
    return census.BoundReport(n_max, census.EPSILON, strict, eps_fail)


def test_bound_report():
    report = bound_report(400)
    assert report.n_max == 400 and report.epsilon == 0.5
    assert report.all_strict_hold()
    assert all(not fails for fails in report.strict_failures.values())
    # the for-large-n lower bounds at epsilon = 1/2 settle early and stay settled
    assert max(report.epsilon_failures["commutator_lower"]) == 87
    assert max(report.epsilon_failures["generating_lower"]) == 18
    # Below 8 the weight lists end before the pentagonal offsets 5 and 7.
    for n_max in (3, 4, 5, 6, 7, 100):
        assert bound_report(n_max) == bound_report_one_degree_at_a_time(n_max), n_max
    with pytest.raises(ValueError):
        bound_report(2)


def test_times_p_matches_series_product_on_the_census_weights():
    """times_p and series_product agree on k^a sigma(k) for a = 0, 1, 2 and on t."""
    bound = 500
    sig, table = sigma_table(bound), partition_table(bound)
    for weights in (*(census._weights(a, sig) for a in (0, 1, 2)), list(_t_table(sig))):
        assert list(times_p(weights)) == series_product(weights, table)


def test_count_b_matches_the_three_sum_formula():
    """count_b is the paper's 3 (sum sigma_3 P - 2 sum k sigma P + n P(n)) / 8 up to 2000."""
    bound = 2000
    sig3, table = sigma_table(bound, 3), partition_table(bound)
    ksig = [k * s for k, s in enumerate(sigma_table(bound))]
    tables = table, _t_table(sigma_table(bound))
    series = series_product(tables[1], table)
    for n in range(3, bound + 1):
        rev = table[n - 1 :: -1]
        s3 = sum(map(operator.mul, sig3[1 : n + 1], rev))
        s1 = sum(map(operator.mul, ksig[1 : n + 1], rev))
        formula = Fraction(3 * (s3 - 2 * s1 + n * table[n]), 8)
        assert formula == count_b(n, tables) == count_b(n) == series[n], n


def test_build_tables_are_tuples_of_bound_plus_one_entries():
    """The (P, t) pair that count_b takes has bound + 1 entries in each table.

    t is a tuple whose every t(k) equals 3 (sigma_3(k) - (2k - 1) sigma(k)) / 8.
    """
    p, t = partition_table(300), _t_table(sigma_table(300))
    assert len(p) == 301 and p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert type(t) is tuple and len(t) == 301
    assert t == (0, *(Fraction(3 * (sigma_k(k, 3) - (2 * k - 1) * sigma_k(k, 1)), 8)
                      for k in range(1, 301)))


def test_t_is_a_non_negative_integer_table():
    """Every t(k) up to 20000 is a non-negative int, so series_product takes t."""
    t = _t_table(sigma_table(20000))
    assert type(t) is tuple and len(t) == 20001
    assert t[:7] == (0, 0, 0, 3, 9, 27, 45)
    assert all(type(value) is int and value >= 0 for value in t)


def test_t_is_sigma_convolved_with_the_generating_counts():
    """t = sigma * A, a Dirichlet convolution, at every degree up to 3000.

    A(n) = count_a(n) for n >= 3 and A(1) = A(2) = 0; for example
    t(8) = sigma(1) A(8) + sigma(2) A(4) = 108 + 27 = 135.
    """
    bound = 3000
    sig = sigma_table(bound)
    a = ArithSeq((0, 0, 0, *map(count_a, range(3, bound + 1))))
    t = _t_table(sig)
    assert t[8] == 135
    assert dirichlet_convolve(ArithSeq(tuple(sig)), a).values == t


def test_t_table_refuses_a_t_entry_that_is_not_an_integer():
    sig = sigma_table(10)
    sig[5] += 1
    with pytest.raises(ArithmeticError, match=r"t\(5\) is not an integer"):
        _t_table(sig)


def test_count_b_refuses_tables_that_end_before_n():
    short = partition_table(9), _t_table(sigma_table(9))
    with pytest.raises(ArithmeticError, match="before 10"):
        count_b(10, short)
    with pytest.raises(ArithmeticError, match="before 10"):
        count_b(10, (partition_table(10), short[1]))
    assert count_b(9, short) == count_b(9)


def test_significant_digits():
    assert significant_digits(Fraction(1)) == "1.00000"
    assert significant_digits(Fraction(9, 10)) == "0.900000"
    assert significant_digits(Fraction(1, 3)) == "0.333333"
    assert significant_digits(Fraction(2, 3)) == "0.666667"
    assert significant_digits(Fraction(19, 31)) == "0.612903"
    assert significant_digits(Fraction(1234567)) == "1234570"
    assert significant_digits(Fraction(2000001, 2)) == "1000000"
    assert significant_digits(Fraction(2000003, 2)) == "1000000"
    assert significant_digits(Fraction(1, 1024)) == "0.000976562"  # ...5625: half-even
