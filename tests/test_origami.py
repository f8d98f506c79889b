"""Cylinder builders and classifiers, primitivity criteria, twist and triple counts."""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from permcensus.groups import generated, is_primitive, is_transitive
from permcensus.oracle import brute_triple_counts, brute_twist_count
from permcensus.origami import (
    OneCylParams,
    TwoCylParams,
    build_one_cylinder,
    build_two_cylinder,
    classify_origami,
    diagrams,
    lattice_generates_z2,
    one_cylinder_primitive,
    two_cylinder_primitive,
    twist_count,
)
from permcensus.arith import jordan_totient, sigma_table
from permcensus.census import _t_table
from permcensus.perm import block_cycles, commutator, parse_cycles


def diagrams_up_to(n_max, shape):
    """The cylinder diagrams of the given shape with at most n_max squares."""
    return [params for n in range(3, n_max + 1) for params in diagrams(n)
            if isinstance(params, shape)]


def test_param_validation():
    with pytest.raises(ValueError):
        OneCylParams(0, 1, 1, 1)
    with pytest.raises(ValueError):
        TwoCylParams(1, 1, 3, 2, 0, 0)
    with pytest.raises(ValueError):
        TwoCylParams(1, 1, 2, 3, 2, 0)
    with pytest.raises(ValueError):
        TwoCylParams(1, 1, 2, 3, 0, 3)
    assert OneCylParams(2, 1, 3, 1).n == 10
    assert TwoCylParams(1, 2, 3, 4, 0, 0).n == 11


def test_smallest_one_cylinder_surface():
    s, t = build_one_cylinder(OneCylParams(1, 1, 1, 1))
    assert s == parse_cycles("(1 2 3)", 3)
    assert t == parse_cycles("(2 3)", 3)
    assert commutator(s, t) == parse_cycles("(1 3 2)", 3)
    assert is_transitive(generated(s, t))


def test_smallest_two_cylinder_surface():
    s, t = build_two_cylinder(TwoCylParams(1, 1, 1, 2, 0, 0))
    assert s == parse_cycles("(2 3)", 3)
    assert t == parse_cycles("(1 2)", 3)
    assert commutator(s, t) == parse_cycles("(1 2 3)", 3)


def test_built_s_is_the_block_cycles_of_the_row_widths():
    for params in diagrams_up_to(10, OneCylParams):
        s, _ = build_one_cylinder(params)
        assert s == block_cycles([params.a + params.b + params.c] * params.k)
    for params in diagrams_up_to(10, TwoCylParams):
        s, _ = build_two_cylinder(params)
        assert s == block_cycles([params.k] * params.a + [params.ell] * params.b)


def test_built_commutator_is_the_marked_three_cycle():
    for params in diagrams_up_to(10, OneCylParams):
        s, t = build_one_cylinder(params)
        a, b = params.a, params.b
        expected = parse_cycles(f"(1 {a + b + 1} {a + 1})", params.n)
        assert commutator(s, t) == expected
        assert is_transitive(generated(s, t))
    for params in diagrams_up_to(10, TwoCylParams):
        s, t = build_two_cylinder(params)
        z1, y1, x1 = 1, params.a * params.k + 1, params.a * params.k + params.k + 1
        c = commutator(s, t)
        assert c[z1 - 1] == y1 and c[y1 - 1] == x1 and c[x1 - 1] == z1
        assert is_transitive(generated(s, t))


def test_one_cylinder_round_trip():
    for params in diagrams_up_to(10, OneCylParams):
        recovered = classify_origami(*build_one_cylinder(params))
        assert recovered == params
        assert type(recovered) is type(params)


def test_two_cylinder_round_trip():
    for params in diagrams_up_to(10, TwoCylParams):
        recovered = classify_origami(*build_two_cylinder(params))
        assert recovered == params
        assert type(recovered) is type(params)


@pytest.mark.parametrize("n", range(3, 6))
def test_classify_is_total_on_connected_pairs_with_a_three_cycle(n):
    """Parameters exactly for the transitive pairs with a 3-cycle commutator, t(n) * n! of them.

    Every other pair raises ValueError, each result rebuilds to a pair that
    classifies back to it, and the results are exactly the diagrams(n).
    """
    perms = list(permutations(range(1, n + 1)))
    classified = 0
    shapes = set()
    for s in perms:
        for t in perms:
            c = commutator(s, t)
            moved = sum(c[p - 1] != p for p in range(1, n + 1))
            if moved != 3 or not is_transitive(generated(s, t)):
                with pytest.raises(ValueError):
                    classify_origami(s, t)
                continue
            params = classify_origami(s, t)
            build = build_one_cylinder if isinstance(params, OneCylParams) else build_two_cylinder
            assert classify_origami(*build(params)) == params
            classified += 1
            shapes.add(params)
    assert Fraction(classified, factorial(n)) == _t_table(sigma_table(n))[n]
    assert shapes == set(diagrams(n))


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_origami(tuple(range(1, 4)), tuple(range(1, 4)))
    with pytest.raises(ValueError):
        classify_origami(tuple(range(1, 4)), tuple(range(1, 5)))
    s = parse_cycles("(1 2)", 4)
    with pytest.raises(ValueError):
        classify_origami(s, s)


def test_one_cylinder_criterion_matches_group_primitivity():
    for params in diagrams_up_to(12, OneCylParams):
        s, t = build_one_cylinder(params)
        expected = is_primitive(generated(s, t))
        assert one_cylinder_primitive(params) == expected


def test_two_cylinder_criterion_matches_group_primitivity():
    for params in diagrams_up_to(11, TwoCylParams):
        s, t = build_two_cylinder(params)
        expected = is_primitive(generated(s, t))
        assert two_cylinder_primitive(params) == expected


def test_twist_count_examples():
    assert twist_count(1, 1, 2, 3) == 6
    assert twist_count(3, 2, 15, 10) == 120
    assert twist_count(1, 2, 4, 6) == 12
    with pytest.raises(ValueError):
        twist_count(2, 4, 3, 5)


def test_twist_count_matches_brute_force():
    samples = [(1, 1), (1, 2), (2, 3), (3, 4), (2, 5)]
    for k in range(1, 31):
        for ell in range(1, 31):
            expected = None
            for a, b in samples:
                count = brute_twist_count(a, b, k, ell)
                assert count == twist_count(a, b, k, ell)
                if expected is None:
                    expected = count
                assert count == expected


def test_twist_count_closed_form():
    for k in range(1, 20):
        for ell in range(1, 20):
            d = gcd(k, ell)
            assert twist_count(1, 1, k, ell) == k * ell * jordan_totient(d, 1) // d


def reference_lattice_generates_z2(vectors):
    """Hermite reduction with the extended gcd as its own function."""

    def xgcd(a, b):
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        return old_r, old_s, old_t

    a = b = c = 0
    for x, y in vectors:
        if x == 0:
            c = gcd(c, y)
            continue
        if x < 0:
            x, y = -x, -y
        if a == 0:
            a, b = x, y
            continue
        g, u, v = xgcd(a, x)
        a, b, c = g, u * b + v * y, gcd(c, (x // g) * b - (a // g) * y)
    return a == 1 and c == 1


def test_lattice_examples():
    assert lattice_generates_z2([(1, 0), (0, 1)])
    assert not lattice_generates_z2([(2, 0), (0, 1)])
    assert not lattice_generates_z2([])
    assert not lattice_generates_z2([(1, 0)])
    assert not lattice_generates_z2([(0, 1), (0, 1), (2, 0), (2, 0)])
    assert lattice_generates_z2([(1, 1), (0, 2), (2, 0), (3, 0)])
    assert lattice_generates_z2([(3, 0), (0, 1), (1, 0)])
    for vectors in ([(6, 4), (-9, 3), (4, 0)], [(-3, 1), (5, 2)], [(4, 2), (6, 3)]):
        assert lattice_generates_z2(vectors) == reference_lattice_generates_z2(vectors)


def test_lattice_spans_with_a_negative_leading_entry():
    # A vector with x < 0 after the first row once made the Hermite fold's gcd -1.
    assert lattice_generates_z2([(1, 0), (-1, 0), (0, 1)])
    assert lattice_generates_z2([(-1, 0), (0, 1)])
    assert lattice_generates_z2([(0, -1), (-1, 5)])
    assert lattice_generates_z2([(2, 1), (-3, 0), (0, 1)])
    assert not lattice_generates_z2([(2, 0), (-4, 0), (0, 1)])


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=5))
@example([(-2, 9), (-6, 1), (-9, -9), (-9, 8), (-9, 3)])
def test_lattice_matches_the_gcd_of_its_minors(vectors):
    """The span is Z^2 exactly when the 2x2 minors have gcd 1, as Hermite reduction says."""
    expected = reference_lattice_generates_z2(vectors)
    assert lattice_generates_z2(vectors) == expected
    minors = [x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in combinations(vectors, 2)]
    assert expected == (gcd(0, *minors) == 1)


def test_lattice_matches_the_hermite_reference_on_every_small_list():
    """Every list of at most 3 vectors with entries in -2..2, in every order."""
    entries = range(-2, 3)
    vectors = [(x, y) for x in entries for y in entries]
    for size in range(4):
        for chosen in product(vectors, repeat=size):
            assert lattice_generates_z2(chosen) == reference_lattice_generates_z2(chosen), chosen


@pytest.mark.parametrize("vectors", [
    [(1.5, 0), (0, 1)],
    [(1, 0.5)],
    [(0, 1), (1, 0.5)],
    [(2, 1), (3.0, 1)],
    [(0.0, 1), (1, 0)],
    [(1, 0), (0, Fraction(1, 2))],
])
def test_lattice_rejects_a_non_integer_entry(vectors):
    with pytest.raises(TypeError):
        lattice_generates_z2(vectors)


def test_lattice_four_tuple_matches_gcd_criterion():
    """Vectors (alpha,a), (beta,b), (k,0), (ell,0) span Z^2 iff the gcd test says so."""
    coprime_heights = [
        (a, b) for a in range(1, 7) for b in range(1, 7) if gcd(a, b) == 1
    ]
    for a, b in coprime_heights:
        for k in range(1, 7):
            for ell in range(1, 7):
                for alpha in range(k):
                    for beta in range(ell):
                        vectors = [(alpha, a), (beta, b), (k, 0), (ell, 0)]
                        expected = gcd(k, ell, a * beta - b * alpha) == 1
                        assert lattice_generates_z2(vectors) == expected
                        assert reference_lattice_generates_z2(vectors) == expected


def test_step_divisor_triples():
    """Triples with both gaps divisible by d number d * C(n/d, 3)."""
    for n in range(3, 61):
        for d in [d for d in range(1, n + 1) if n % d == 0]:
            m = n // d
            expected = d * m * (m - 1) * (m - 2) // 6
            assert brute_triple_counts(n, "step_divisor", d) == expected


def test_coprime_gap_triples():
    """Triples whose gaps are coprime to n number (n/6)(J_2(n) - 3 J_1(n))."""
    for n in range(3, 61):
        expected = n * (jordan_totient(n, 2) - 3 * jordan_totient(n, 1)) // 6
        assert brute_triple_counts(n, "coprime_gap") == expected
