"""Arithmetic-function toolbox: values, multiplicativity, convolution algebra."""

import math
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from permcensus.arith import (
    ArithSeq,
    dirichlet_convolve,
    dirichlet_inverse,
    divisors,
    euler_phi,
    factorize,
    jordan_table,
    jordan_totient,
    moebius,
    moebius_scaled_divisor_sum,
    primes_up_to,
    ramanujan_rhs,
    series_product,
    sigma_k,
    sigma_table,
)

N = 500


def tab(func, bound=N):
    return ArithSeq.tabulate(func, bound)


def from_values(values):
    """The ArithSeq with f(1), f(2), ... = values."""
    return ArithSeq((0, *values))


ONE = tab(lambda n: 1)
MU = tab(moebius)
PHI = tab(euler_phi)
IDENT = tab(lambda n: n)
ID2 = tab(lambda n: n * n)
ID3 = tab(lambda n: n**3)
J2 = tab(lambda n: jordan_totient(n, 2))
J3 = tab(lambda n: jordan_totient(n, 3))
TAU = tab(lambda n: sigma_k(n, 0))
SIG1 = tab(lambda n: sigma_k(n, 1))
SIG2 = tab(lambda n: sigma_k(n, 2))
SIG3 = tab(lambda n: sigma_k(n, 3))
EPS = tab(lambda n: 1 if n == 1 else 0)


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_sigma_examples():
    assert sigma_k(6, 1) == 12
    assert sigma_k(12, 0) == 6
    assert sigma_k(4, 3) == 73
    assert sigma_k(1, 5) == 1


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(2) == -1
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1


def test_jordan_examples():
    assert jordan_totient(4, 2) == 12
    assert jordan_totient(6, 2) == 24
    assert euler_phi(1) == 1
    assert euler_phi(10) == 4
    for n in range(1, 201):
        assert jordan_totient(n, 1) == euler_phi(n)


def test_jordan_by_counting_tuples():
    # J_k(n) counts k-tuples in [1,n]^k whose gcd with n is 1.
    for n in range(1, 31):
        direct = sum(
            1
            for x in range(1, n + 1)
            for y in range(1, n + 1)
            if gcd(gcd(x, y), n) == 1
        )
        assert jordan_totient(n, 2) == direct


def test_primes():
    assert primes_up_to(1) == []
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(primes_up_to(541)) == 100
    assert primes_up_to(541)[-2:] == [523, 541]


def test_sigma_table_matches_sigma_k():
    """Every k <= 5 and n <= 3000, each table exactly bound + 1 long."""
    for k in range(6):
        for bound in (0, 1, 2, 10, 700, 3000):
            table = sigma_table(bound, k)
            assert len(table) == bound + 1
            assert table == [0] + [sigma_k(n, k) for n in range(1, bound + 1)]


@pytest.mark.parametrize("bound, k", [(5, -1), (-1, 1), (-1, -1)])
def test_sigma_table_rejects_negative_arguments(bound, k):
    with pytest.raises(ValueError):
        sigma_table(bound, k)


def test_totient_table_matches_euler_phi():
    """The totient table is jordan_table(bound, 1): phi is J_1."""
    assert jordan_table(0, 1) == [0]
    assert jordan_table(1, 1) == [0, 1]
    assert jordan_table(3000, 1) == [0] + [euler_phi(n) for n in range(1, 3001)]
    with pytest.raises(ValueError):
        jordan_table(-1, 1)


def test_jordan_table_matches_jordan_totient():
    """Every k <= 3 and n <= 3000, each table exactly bound + 1 long."""
    for k in (1, 2, 3):
        for bound in (0, 1, 2, 10, 3000):
            assert jordan_table(bound, k) == [0] + [jordan_totient(n, k)
                                                   for n in range(1, bound + 1)]


@pytest.mark.parametrize("bound, k", [(5, 0), (-1, 2)])
def test_jordan_table_rejects_k_below_one_and_a_negative_bound(bound, k):
    with pytest.raises(ValueError):
        jordan_table(bound, k)


def test_jordan_totient_reads_the_factors_it_is_given(monkeypatch):
    from permcensus import arith

    degrees = (1, 12, 360, 997, 1024)
    want = [jordan_totient(n, k) for n in degrees for k in (1, 2, 3)]
    factors = {n: factorize(n) for n in degrees}

    def not_called(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(arith, "factorize", not_called)
    assert [jordan_totient(n, k, factors[n]) for n in degrees for k in (1, 2, 3)] == want


def test_sigma_table_returns_a_new_list_each_call():
    table = sigma_table(10, 3)
    table[2] = -1
    table.append(-1)
    assert sigma_table(10, 3) == [0] + [sigma_k(n, 3) for n in range(1, 11)]


@given(st.integers(1, 200), st.integers(1, 200), st.integers(0, 3))
def test_sigma_is_multiplicative(m, n, k):
    assume(gcd(m, n) == 1)
    assert sigma_k(m * n, k) == sigma_k(m, k) * sigma_k(n, k)


@given(st.integers(1, 200), st.integers(1, 200))
def test_moebius_is_multiplicative(m, n):
    assume(gcd(m, n) == 1)
    assert moebius(m * n) == moebius(m) * moebius(n)


@given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 3))
def test_jordan_is_multiplicative(m, n, k):
    assume(gcd(m, n) == 1)
    assert jordan_totient(m * n, k) == jordan_totient(m, k) * jordan_totient(n, k)


def test_moebius_sums_to_unit():
    for n in range(1, N + 1):
        assert sum(moebius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_arithseq_is_an_immutable_value():
    f = from_values([1, 2, 3])
    assert f == ArithSeq((0, 1, 2, 3)) and hash(f) == hash(ArithSeq((0, 1, 2, 3)))
    assert f != from_values([1, 2, 4]) and f != (0, 1, 2, 3)
    with pytest.raises(AttributeError):
        f.values = (0, 1)
    with pytest.raises(AttributeError):
        del f.values
    with pytest.raises(ValueError):
        ArithSeq((0,))


@pytest.mark.parametrize("make", [
    lambda: ArithSeq((0, 0.5, 1.5)),
    lambda: ArithSeq.tabulate(lambda n: Fraction(n, 2), 3),
    lambda: from_values([1.0, 2, 3]),
], ids=["float", "fraction", "float-lead"])
def test_arithseq_rejects_a_non_integer_value(make):
    """A float lead 1.0 would pass dirichlet_inverse's f(1) = +-1 test, since 1.0 == 1."""
    with pytest.raises(TypeError):
        make()


def test_convolution_identity_chain():
    """The classical identities linking 1, mu, phi, J_k, tau and sigma_k."""
    assert dirichlet_convolve(ONE, ONE) == TAU
    assert dirichlet_convolve(ONE, IDENT) == SIG1
    assert dirichlet_convolve(ONE, ID2) == SIG2
    assert dirichlet_convolve(ONE, ID3) == SIG3
    assert dirichlet_convolve(ONE, MU) == EPS
    assert dirichlet_convolve(ONE, PHI) == IDENT
    assert dirichlet_convolve(ONE, J2) == ID2
    assert dirichlet_convolve(ONE, J3) == ID3
    assert dirichlet_convolve(IDENT, MU) == PHI
    assert dirichlet_convolve(ID2, MU) == J2
    assert dirichlet_convolve(MU, SIG1) == IDENT
    assert dirichlet_convolve(MU, SIG2) == ID2
    assert dirichlet_convolve(TAU, PHI) == SIG1
    assert dirichlet_convolve(IDENT.pointwise(MU), SIG1) == ONE
    assert dirichlet_convolve(IDENT.pointwise(MU), PHI) == MU


small_seqs = st.lists(st.integers(-9, 9), min_size=48, max_size=48).map(from_values)


@given(small_seqs, small_seqs)
def test_dirichlet_convolution_commutes(f, g):
    assert dirichlet_convolve(f, g) == dirichlet_convolve(g, f)


@given(small_seqs, small_seqs, small_seqs)
def test_dirichlet_convolution_associates(f, g, h):
    left = dirichlet_convolve(dirichlet_convolve(f, g), h)
    right = dirichlet_convolve(f, dirichlet_convolve(g, h))
    assert left == right


@given(small_seqs)
def test_unit_element(f):
    eps = ArithSeq.tabulate(lambda n: 1 if n == 1 else 0, f.bound)
    assert dirichlet_convolve(f, eps) == f


# Integer sequences with f(1) = +-1, the ones with an integral Dirichlet inverse.
invertible_values = st.tuples(
    st.sampled_from([1, -1]), st.lists(st.integers(-9, 9), min_size=47, max_size=47)
).map(lambda lead_rest: [lead_rest[0], *lead_rest[1]])


@given(invertible_values)
@example([-1, 2, -3, 0, 5] + [1] * 43)  # f(1) = -1: the inverse is integral with 1/f(1) = -1
def test_inverse_roundtrip(values):
    f = from_values(values)
    eps = ArithSeq.tabulate(lambda n: 1 if n == 1 else 0, f.bound)
    assert dirichlet_convolve(f, dirichlet_inverse(f)) == eps


@given(invertible_values)
def test_sequences_stay_integral_where_they_can(values):
    """Integer sequences convolve, multiply and invert to ints, never Fractions or floats."""
    f = from_values(values)
    for seq in (f, dirichlet_convolve(f, f), f.pointwise(f), dirichlet_inverse(f)):
        assert all(type(v) is int for v in seq.values)


def test_inverse_of_one_is_moebius():
    assert dirichlet_inverse(ONE) == MU


def test_inverse_needs_unit():
    with pytest.raises(ValueError):
        dirichlet_inverse(from_values([0, 1, 1]))
    with pytest.raises(ValueError):
        dirichlet_inverse(from_values([2, 1, 1]))


def test_moebius_scaled_divisor_sum_equals_euler_product():
    for n in range(1, N + 1):
        primes = [p for p, _ in factorize(n)]
        for k in range(3):
            product = Fraction(1)
            for p in primes:
                product *= 1 - Fraction(1, p**k)
            assert moebius_scaled_divisor_sum(n, k) == product


def test_moebius_scaled_divisor_sum_matches_all_divisor_sum():
    """The squarefree-divisor sum against the sum of mu(d) (n/d)^k over every divisor."""
    for n in range(1, 2001):
        for k in range(4):
            total = sum(moebius(d) * (n // d) ** k for d in divisors(n))
            assert moebius_scaled_divisor_sum(n, k) == Fraction(total, n**k)


def test_completely_multiplicative_distributes_over_convolution():
    """f(n) = n^2 satisfies f*(g conv h) = (f*g) conv (f*h) pointwise."""
    bound = 300
    f = ArithSeq.tabulate(lambda n: n * n, bound)
    for g, h in [(ONE, PHI), (MU, SIG1)]:
        g = ArithSeq(g.values[: bound + 1])
        h = ArithSeq(h.values[: bound + 1])
        left = f.pointwise(dirichlet_convolve(g, h))
        right = dirichlet_convolve(f.pointwise(g), f.pointwise(h))
        assert left == right


def test_discrete_convolve_small_values():
    # sigma(1)sigma(3) + sigma(2)sigma(2) + sigma(3)sigma(1) = 4 + 9 + 4
    direct = sum(sigma_k(k, 1) * sigma_k(4 - k, 1) for k in range(1, 4))
    assert direct == 17
    assert ramanujan_rhs(4, "deg1") == 17


def naive_product(f, g):
    return [sum(f[i] * g[k - i] for i in range(k + 1)) for k in range(len(f))]


# Entries are small, or at least 10^80, so that slots are both narrow and wide.
COEFFICIENTS = st.one_of(st.integers(0, 9), st.integers(10**80, 10**100))


@given(st.integers(1, 40).flatmap(
    lambda length: st.tuples(st.lists(COEFFICIENTS, min_size=length, max_size=length),
                             st.lists(COEFFICIENTS, min_size=length, max_size=length))))
@example(([7], [6]))
@example(([0] * 5, [0] * 5))
@example(([0] * 5, [3, 1, 4, 1, 5]))
@example(([9] * 3, [9] * 3))  # the top coefficient, 243, fills its slot
@example(([10**100] * 4, [10**100 - 1] * 4))
@example(((3, 1, 4, 1, 5), (2, 7, 1, 8, 2)))  # census._t_table is a tuple
@example(([10**60 + 7, 0, 10**61 - 1, 5], [10**59, 3, 10**60 + 1, 10**61]))  # 123-digit slots
def test_series_product_matches_double_loop(pair):
    f, g = pair
    assert series_product(f, g) == naive_product(f, g)


@given(st.lists(COEFFICIENTS, min_size=1, max_size=40))
@example([9] * 3)  # the top coefficient, 243, fills its slot
@example([10**100 - 1] * 4)
@example((3, 1, 4, 1, 5))  # census._t_table is a tuple
@example([10**60 + 7, 0, 10**61 - 1, 5])
def test_series_product_of_one_series_with_itself(f):
    assert series_product(f, f) == naive_product(f, f)


def test_series_product_validation():
    assert series_product([], []) == []
    with pytest.raises(ValueError):
        series_product([1, 2], [1])
    with pytest.raises(ValueError):
        series_product([1, -2], [1, 2])
    with pytest.raises(ValueError):
        series_product([1, 2], [-1, 2])


def test_ramanujan_formulas_exactly():
    bound = 5000
    sig1 = sigma_table(bound, 1)
    sig3 = sigma_table(bound, 3)
    for n in range(1, bound + 1):
        head1 = sig1[1:n]
        tail1 = sig1[n - 1 : 0 : -1]
        conv11 = sum(map(int.__mul__, head1, tail1))
        assert conv11 == ramanujan_rhs(n, "deg1")
        conv13 = sum(map(int.__mul__, head1, sig3[n - 1 : 0 : -1]))
        assert conv13 == ramanujan_rhs(n, "deg3")


def test_euler_product_toward_six_over_pi_squared():
    target = 6 / math.pi**2
    partials = []
    product = Fraction(1)
    for p in primes_up_to(541):
        product *= 1 - Fraction(1, p * p)
        partials.append(product)
    assert all(a > b for a, b in zip(partials, partials[1:]))
    assert all(float(value) > target for value in partials)
    assert abs(float(partials[-1]) - target) < 1e-3
