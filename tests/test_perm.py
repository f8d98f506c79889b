"""Permutation arithmetic, cycle data, distances and commutator shapes."""

import itertools
import math
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permcensus.partitions import enumerate_partitions
from permcensus.perm import (
    CaseA,
    CaseB,
    Permutation,
    classify_commutator,
    commutator,
    compose,
    conjugacy_class_size,
    cycle_structure,
    cycles_string,
    from_cycles,
    identity,
    inverse,
    parse_cycles,
    s_distance,
    signature,
)


@st.composite
def permutations(draw, max_degree=8):
    n = draw(st.integers(1, max_degree))
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


@st.composite
def permutation_pairs(draw, max_degree=8):
    n = draw(st.integers(1, max_degree))
    s = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    t = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    return s, t


@st.composite
def permutation_triples(draw, max_degree=7):
    n = draw(st.integers(1, max_degree))
    return tuple(
        Permutation(tuple(draw(st.permutations(range(1, n + 1))))) for _ in range(3)
    )


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p.degree == 3
    assert p(1) == 2 and p(3) == 1
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        p(4)


def test_compose_example():
    s = parse_cycles("(1 2 3)", 3)
    t = parse_cycles("(1 2)", 3)
    assert compose(s, t) == parse_cycles("(1 3)", 3)


def test_compose_applies_right_factor_first():
    s = parse_cycles("(1 2)", 3)
    t = parse_cycles("(2 3)", 3)
    assert compose(s, t)[2 - 1] == s(t(2))


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_parse_and_print():
    s = parse_cycles("(1 2 3)(7 8 9)", 9)
    assert str(s) == "(1 2 3)(7 8 9)"
    assert parse_cycles("(1, 2, 3)", 4) == from_cycles([(1, 2, 3)], 4)
    assert parse_cycles("", 5) == identity(5)
    assert cycles_string(identity(2)) == "()"
    with pytest.raises(ValueError):
        parse_cycles("(1 2] oops", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 4)


@given(permutations())
def test_print_parse_roundtrip(s):
    assert parse_cycles(cycles_string(s), s.degree) == s


@given(permutation_pairs())
def test_inverse_and_composition(pair):
    s, t = pair
    n = s.degree
    assert compose(s, inverse(s)) == identity(n)
    assert compose(inverse(s), s) == identity(n)
    assert inverse(compose(s, t)) == compose(inverse(t), inverse(s))


@given(permutation_triples())
def test_composition_associates(triple):
    s, t, u = triple
    assert compose(compose(s, t), u) == compose(s, compose(t, u))


@given(permutation_pairs())
def test_commutator_definition(pair):
    s, t = pair
    expected = compose(compose(s, t), compose(inverse(s), inverse(t)))
    assert commutator(s, t) == expected
    assert commutator(s, s) == identity(s.degree)


@given(permutations())
def test_cycle_structure_partitions_the_points(s):
    struct = cycle_structure(s)
    points = [x for cycle in struct.cycles for x in cycle]
    assert sorted(points) == list(range(1, s.degree + 1))
    assert all(cycle[0] == min(cycle) for cycle in struct.cycles)
    assert sum(struct.flag) == s.degree
    assert struct.flag == tuple(sorted(struct.flag))


def test_signature_examples():
    assert signature(parse_cycles("(1 2)", 2)) == -1
    assert signature(parse_cycles("(1 2 3)", 3)) == 1
    assert signature(identity(5)) == 1


def test_signature_matches_cycle_structure_parity():
    """The parity count against the cycle decomposition, every permutation of degree <= 6."""
    for n in range(1, 7):
        for img in itertools.permutations(range(1, n + 1)):
            cycles = cycle_structure(img).cycles
            assert signature(img) == (-1 if (n - len(cycles)) % 2 else 1)


@given(permutation_pairs())
def test_signature_is_multiplicative(pair):
    s, t = pair
    assert signature(compose(s, t)) == signature(s) * signature(t)


def test_s_distance_examples():
    s = parse_cycles("(1 2 3 4)(7 8 9)", 9)
    assert s_distance(s, 1, 4) == 3
    assert s_distance(s, 1, 5) == math.inf
    assert s_distance(s, 9, 9) == 3
    assert s_distance(s, 5, 5) == 1
    with pytest.raises(ValueError):
        s_distance(s, 0, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_distance_same_cycle_criterion(n):
    """d(x,y) + d(y,x) = d(x,x) exactly when x and y share a cycle; else inf."""
    for image in itertools.permutations(range(1, n + 1)):
        s = Permutation(image)
        cycle_of = {}
        for index, cycle in enumerate(cycle_structure(s).cycles):
            for x in cycle:
                cycle_of[x] = index
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                forward = s_distance(s, x, y)
                if cycle_of[x] != cycle_of[y]:
                    assert forward == math.inf
                    continue
                assert math.isfinite(forward)
                if x != y:
                    assert forward + s_distance(s, y, x) == s_distance(s, x, x)


def test_class_size_examples():
    assert conjugacy_class_size((1, 3)) == 8
    assert conjugacy_class_size((1, 1, 1, 1)) == 1
    assert conjugacy_class_size((2, 2)) == 3
    for n in range(4, 9):
        flag = (3,) + (1,) * (n - 3)
        assert conjugacy_class_size(flag) == n * (n - 1) * (n - 2) // 3
    with pytest.raises(ValueError):
        conjugacy_class_size(())


@pytest.mark.parametrize("n", range(1, 13))
def test_class_equation(n):
    flags = [tuple(p) for p in enumerate_partitions(n)]
    assert sum(conjugacy_class_size(f) for f in flags) == factorial(n)


def test_class_sizes_match_direct_count():
    for n in range(1, 7):
        tally = {}
        for image in itertools.permutations(range(1, n + 1)):
            flag = cycle_structure(Permutation(image)).flag
            tally[flag] = tally.get(flag, 0) + 1
        for flag, count in tally.items():
            assert conjugacy_class_size(flag) == count


@given(permutation_pairs(max_degree=10))
def test_conjugation_preserves_cycle_type(pair):
    s, t = pair
    conjugate = compose(compose(t, s), inverse(t))
    assert cycle_structure(conjugate).flag == cycle_structure(s).flag


def check_classification(s, t, case):
    c = commutator(s, t)
    x, y, z = case.x, case.y, case.z
    assert sorted(p for p in range(1, len(c) + 1) if c[p - 1] != p) == sorted((x, y, z))
    assert c[z - 1] == y and c[y - 1] == x and c[x - 1] == z
    if isinstance(case, CaseA):
        a, b, cc = case.segments
        assert min(a, b, cc) >= 1
        assert x == min(x, y, z)
        length = s_distance(s, x, x)
        assert a + b + cc == length
        assert s_distance(s, x, y) == a
        assert s_distance(s, y, z) == b
        assert s_distance(s, z, x) == cc
    else:
        assert isinstance(case, CaseB)
        assert s_distance(s, z, z) == case.short_length
        assert s_distance(s, y, x) == case.short_length
        assert s_distance(s, z, x) == math.inf
        assert s_distance(s, z, y) == math.inf
        assert math.isfinite(s_distance(s, x, y))


@pytest.mark.parametrize("n", [4, 5])
def test_classifier_is_total_and_exclusive(n):
    """Every pair with a 3-cycle commutator lands in exactly one case."""
    perms = [Permutation(img) for img in itertools.permutations(range(1, n + 1))]
    classified = 0
    for s in perms:
        for t in perms:
            c = commutator(s, t)
            moved = sum(1 for p in range(1, n + 1) if c[p - 1] != p)
            if moved == 3:
                check_classification(s, t, classify_commutator(s, t))
                classified += 1
            else:
                with pytest.raises(ValueError):
                    classify_commutator(s, t)
    assert classified > 0


def test_classifier_examples():
    s = parse_cycles("(1 2 3)", 3)
    case = classify_commutator(s, parse_cycles("(1 2)", 3))
    assert isinstance(case, CaseA)
    assert case.segments == (1, 1, 1)

    s = parse_cycles("(1 2)(3 4 5)", 5)
    t = parse_cycles("(1 3)(2 4)", 5)
    case = classify_commutator(s, t)
    c = commutator(s, t)
    assert isinstance(case, (CaseA, CaseB))
    assert {case.x, case.y, case.z} == {p for p in range(1, 6) if c[p - 1] != p}
