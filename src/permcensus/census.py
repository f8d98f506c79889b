"""Closed-form family counts, their census rows, and inequality sweeps.

Six families of ordered pairs (s, t) in S_n x S_n are counted, each
normalized by n! (the raw counts are all divisible by n!):

  count_b   pairs whose commutator [s, t] is a 3-cycle;
  count_a   those pairs that also generate the alternating or symmetric group;
  count_b1  pairs in count_b with s an n-cycle;
  count_a1  generating pairs with s an n-cycle;
  count_b2  pairs in count_b with s a cycle of any length >= 2;
  count_a2  generating pairs with s a cycle of any length >= 2.

count_b is the convolution t * P of the partition function P with the
non-negative integers t(k) = 3 (sigma_3(k) - (2k - 1) sigma(k)) / 8; the
paper's (3/8) [sigma_3 * P - 2 (k sigma) * P + n P(n)] reduces to it by
n P(n) = sum_k sigma(k) P(n - k).  The golden census file, the digest of
`census --to 5000` and the brute-force oracle check it.

rows(layout, degrees) yields the census rows of one layout, with the
columns COLUMNS[layout]; counts are integers and ratios exact Fractions:

  main    n  a  b  proba                   proba = P(n) a / (n b)
  cycles  n  a1 b1 proba1 a2 b2 proba2     proba1 = a1/b1, proba2 = n a2/b2

Each row computes only the counts its layout prints.  A main run grows
its t and J_2 tables by doubling as its rows reach past them, and draws P
from partitions.partition_numbers() only as far as each row needs.
census_row reads its six counts off these rows.

All formulas are exact integer arithmetic with explicit divisibility
checks; a non-integer intermediate would indicate a programming error,
never rounding.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import comb

from permcensus.arith import factorize, jordan_table, jordan_totient, sigma_table
from permcensus.partitions import partition_numbers, partition_table, times_p


def _check_degree(n: int) -> None:
    if n < 3:
        raise ValueError(f"family counts need n >= 3, got {n}")


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den:
        raise ArithmeticError(f"{what} is not an integer (this is a bug)")
    return num // den


def count_b1(n: int) -> int:
    """Pairs with 3-cycle commutator and s an n-cycle, over n!: C(n, 3)."""
    _check_degree(n)
    return comb(n, 3)


def count_a1(n: int) -> int:
    """Generating pairs with s an n-cycle, over n!: (n/6)(J_2(n) - 3 J_1(n))."""
    _check_degree(n)
    factors = factorize(n)
    num = n * (jordan_totient(n, 2, factors) - 3 * jordan_totient(n, 1, factors))
    return _exact_div(num, 6, f"count_a1({n})")


def count_b2(n: int) -> int:
    """Pairs with 3-cycle commutator and s any cycle, over n!.

    Closed form (n-1)(n-2)(n^2 + 5n + 12)/24.
    """
    _check_degree(n)
    num = (n - 1) * (n - 2) * (n * n + 5 * n + 12)
    return _exact_div(num, 24, f"count_b2({n})")


def count_a2(n: int, a1: int | None = None) -> int:
    """Generating pairs with s any cycle, over n!: count_a1(n) + (n+1)(n-2)/2.

    a1, when given, is count_a1(n), so that a cycles row factorizes n once.
    """
    _check_degree(n)
    return (count_a1(n) if a1 is None else a1) + (n + 1) * (n - 2) // 2


def _t_table(sig: list[int]) -> tuple[int, ...]:
    """t(k) = 3 (sigma_3(k) - (2k - 1) sigma(k)) / 8 for every k of sig = sigma_table(bound).

    Each entry goes through _exact_div, which names t(k) if 8 does not divide it.
    """
    return tuple([_exact_div(3 * (cube_sum - (2 * k - 1) * s), 8, f"t({k})")
                  for k, (s, cube_sum) in enumerate(zip(sig, sigma_table(len(sig) - 1, 3)))])


def _weights(a: int | float, sig: list[int]) -> list:
    """k^a sigma(k) for each k of the sigma table sig, with a an int >= 0 or a float."""
    # Slot 0 holds 0 and is not raised to a power: 0 ** -0.5 would raise.
    return [0, *(k**a * s for k, s in enumerate(sig[1:], 1))]


def _p_sum(weights, p, n: int):
    """sum over 1 <= k <= n of weights[k] P(n-k), with p[j] = P(j): one degree of weights * P."""
    # map() would stop short without a word on a table that ends before n.
    if min(len(weights), len(p)) <= n:
        raise ArithmeticError(f"a table ends before {n} (this is a bug)")
    return sum(map(operator.mul, weights[1 : n + 1], p[n - 1 :: -1]))


def count_b(n: int, tables: tuple | None = None) -> int:
    """All pairs with 3-cycle commutator, over n!: (t * P)(n) = sum_k t(k) P(n-k).

    The sum runs over 1 <= k <= n.  It equals the paper's
    (3/8) [ sum_k sigma_3(k) P(n-k) - 2 sum_k k sigma(k) P(n-k) + n P(n) ]
    because n P(n) = sum_k sigma(k) P(n-k).  tables is the pair (P, t) of
    sequences that reach degree n; without it count_b builds both up to n.
    """
    _check_degree(n)
    p, t = tables or (partition_table(n), _t_table(sigma_table(n)))
    return _p_sum(t, p, n)


def count_a(n: int, j2: list | None = None) -> int:
    """All generating pairs with 3-cycle commutator, over n!: (3/8)(n-2) J_2(n).

    j2 is a table of J_2 that reaches degree n (arith.jordan_table); without
    it count_a factorizes n.
    """
    _check_degree(n)
    j2_n = jordan_totient(n, 2) if j2 is None else j2[n]
    return _exact_div(3 * (n - 2) * j2_n, 8, f"count_a({n})")


def psi(a, n: int):
    """psi_a(n) = sum over 1 <= k <= n of k^a sigma(k) P(n-k).

    Exact (an int) for an integer a >= 0.  Any other a is taken as float(a):
    the powers k^a are floats and so is the approximate result.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(a, int) and a < 0:
        raise ValueError(f"psi needs a >= 0 when a is an integer, got a = {a}")
    weights = _weights(a if isinstance(a, int) else float(a), sigma_table(n))
    return _p_sum(weights, partition_table(n), n)


class CensusRow(namedtuple("CensusRow", "n b a b1 a1 b2 a2")):
    """All six normalized family counts at one degree; p1, p2 and pa are a1/b1, a2/b2 and a/b."""

    __slots__ = ()

    @property
    def p1(self) -> Fraction:
        """Probability that an n-cycle pair with 3-cycle commutator generates."""
        return Fraction(self.a1, self.b1)

    @property
    def p2(self) -> Fraction:
        """Probability that a cycle pair with 3-cycle commutator generates."""
        return Fraction(self.a2, self.b2)

    @property
    def pa(self) -> Fraction:
        """Probability that a pair with 3-cycle commutator generates."""
        return Fraction(self.a, self.b)


def census_row(n: int) -> CensusRow:
    """All six normalized counts at degree n, read off its main and cycles rows."""
    _, a, b, _ = next(rows("main", (n,)))
    _, a1, b1, _, a2, b2, _ = next(rows("cycles", (n,)))
    return CensusRow(n, b, a, b1, a1, b2, a2)


# The census layouts and their column names.
COLUMNS = {
    "main": ("n", "a", "b", "proba"),
    "cycles": ("n", "a1", "b1", "proba1", "a2", "b2", "proba2"),
}


def rows(layout: str, degrees):
    """Yield the row of layout at each degree of degrees (any iterable), in order.

    Each row is computed when it is asked for.  A main row past the end of
    the t and J_2 tables rebuilds both up to its degree or twice their last
    bound, whichever is larger, so the first row waits only for tables to
    its own degree, no build passes twice the degree that triggers it, and
    the builds of a range, each at least twice the last, span less than
    four times its largest degree.  Each main row draws P only as far as
    its degree.  A cycles row factorizes its degree once and builds no
    table.  An unknown layout raises ValueError when iteration starts.
    """
    if layout == "main":
        t = j2 = ()
        stream, p = partition_numbers(), []
        for n in degrees:
            if n >= len(t):
                bound = max(2 * (len(t) - 1), n)
                t, j2 = _t_table(sigma_table(bound)), jordan_table(bound, 2)
            while len(p) <= n:
                p.append(next(stream))
            a, b = count_a(n, j2), count_b(n, (p, t))
            yield n, a, b, Fraction(p[n] * a, n * b)
    elif layout == "cycles":
        for n in degrees:
            a1, b1 = count_a1(n), count_b1(n)
            a2, b2 = count_a2(n, a1), count_b2(n)
            yield n, a1, b1, Fraction(a1, b1), a2, b2, Fraction(n * a2, b2)
    else:
        raise ValueError(f"unknown layout {layout!r}; expected one of {', '.join(COLUMNS)}")


class BoundReport(namedtuple("BoundReport", "n_max epsilon strict_failures epsilon_failures")):
    """Outcome of the inequality sweep over 3..n_max.

    strict_failures lists degrees violating inequalities that must hold
    at every n (empty means all good); epsilon_failures lists degrees
    where the for-large-n lower bounds (sampled at one epsilon) have not
    kicked in yet -- informational only.  Both map a bound's name to a
    list of degrees.
    """

    __slots__ = ()

    def all_strict_hold(self) -> bool:
        return not any(self.strict_failures.values())


# The epsilon at which bound_report samples the for-large-n lower bounds.
EPSILON = 0.5


def bound_report(n_max: int) -> BoundReport:
    """Check the psi sandwich and the count bounds for every 3 <= n <= n_max.

    Asserted (strict) inequalities:
      (8/3) count_b(n) < psi_2(n);  count_a(n) < (3/8) n^3;
      n P(n) <= psi_a(n) <= n^(a+1) P(n) for a in {0, 1, 2}.
    Reported only: psi_(2-eps)(n) < count_b(n) and n^(3-eps) < count_a(n)
    at eps = EPSILON, which hold for large n.  psi_0, psi_1, psi_2 and
    count_b are times_p streams; psi_(2-eps) is a float _p_sum per degree.
    """
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    strict: dict[str, list[int]] = {
        "commutator_upper": [],
        "generating_upper": [],
        "sandwich_a0": [],
        "sandwich_a1": [],
        "sandwich_a2": [],
    }
    eps_fail: dict[str, list[int]] = {
        "commutator_lower": [],
        "generating_lower": [],
    }
    table = partition_table(n_max)
    sig, j2 = sigma_table(n_max), jordan_table(n_max, 2)
    # Slot 0 of the weights k^a sigma(k) and of t is 0, so entry n of their
    # times_p stream is the sum over 1 <= k <= n: psi_a(n) and count_b(n).
    psis = {a_exp: list(times_p(_weights(a_exp, sig))) for a_exp in (0, 1, 2)}
    counts_b = list(times_p(_t_table(sig)))
    weights_eps = _weights(2 - EPSILON, sig)
    # float * int converts the int as float() does, so converting P once
    # leaves every psi_(2-eps) sum bit-identical and saves it per degree.
    floats = list(map(float, table))
    for n in range(3, n_max + 1):
        p_n = table[n]
        b_n = counts_b[n]
        a_n = count_a(n, j2)
        if not 8 * b_n < 3 * psis[2][n]:
            strict["commutator_upper"].append(n)
        if not 8 * a_n < 3 * n**3:
            strict["generating_upper"].append(n)
        upper = n * p_n  # n^(a+1) P(n), for a = 0, 1, 2 in turn
        for a_exp, values in psis.items():
            if not n * p_n <= values[n] <= upper:
                strict[f"sandwich_a{a_exp}"].append(n)
            upper *= n
        if not _p_sum(weights_eps, floats, n) < b_n:
            eps_fail["commutator_lower"].append(n)
        if not n ** (3 - EPSILON) < a_n:
            eps_fail["generating_lower"].append(n)
    return BoundReport(n_max, EPSILON, strict, eps_fail)


def significant_digits(value) -> str:
    """Render an exact ratio with exactly six significant digits.

    Rounding is half-even.  Values below 1 keep as many decimal places
    as needed; values at or above 10^6 are printed as rounded integers
    (still carrying only six significant digits).
    """
    frac = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 6
        ctx.rounding = ROUND_HALF_EVEN
        dec = Decimal(frac.numerator) / Decimal(frac.denominator)
    places = max(0, 5 - dec.adjusted())
    return f"{dec:.{places}f}"
