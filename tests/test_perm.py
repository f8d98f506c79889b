"""Permutation arithmetic, cycle data, commutators and their 3-cycles."""

import itertools
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permcensus.partitions import enumerate_partitions
from permcensus.perm import (
    block_cycles,
    commutator,
    compose,
    conjugacy_class_size,
    cycle_structure,
    cycles_string,
    inverse,
    parse_cycles,
    signature,
    three_cycle,
)


@st.composite
def permutations(draw, max_degree=8):
    n = draw(st.integers(1, max_degree))
    return tuple(draw(st.permutations(range(1, n + 1))))


@st.composite
def permutation_pairs(draw, max_degree=8):
    n = draw(st.integers(1, max_degree))
    s = tuple(draw(st.permutations(range(1, n + 1))))
    t = tuple(draw(st.permutations(range(1, n + 1))))
    return s, t


@st.composite
def permutation_triples(draw, max_degree=7):
    n = draw(st.integers(1, max_degree))
    return tuple(tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(3))


def test_compose_example():
    s = parse_cycles("(1 2 3)", 3)
    t = parse_cycles("(1 2)", 3)
    assert compose(s, t) == parse_cycles("(1 3)", 3)


def test_compose_applies_right_factor_first():
    s = parse_cycles("(1 2)", 3)
    t = parse_cycles("(2 3)", 3)
    assert compose(s, t)[2 - 1] == s[t[1] - 1]


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        compose(tuple(range(1, 4)), tuple(range(1, 5)))


def test_parse_and_print():
    s = parse_cycles("(1 2 3)(7 8 9)", 9)
    assert type(s) is tuple
    assert s == (2, 3, 1, 4, 5, 6, 8, 9, 7)
    assert cycles_string(s) == "(1 2 3)(7 8 9)"
    assert parse_cycles("(1, 2, 3)", 4) == (2, 3, 1, 4)
    assert parse_cycles("", 5) == tuple(range(1, 6))
    assert cycles_string(tuple(range(1, 3))) == "()"
    with pytest.raises(ValueError):
        parse_cycles("(1 2] oops", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 5)", 4)
    with pytest.raises(ValueError):
        parse_cycles("", 0)


@given(permutations())
def test_print_parse_roundtrip(s):
    assert parse_cycles(cycles_string(s), len(s)) == s


@given(permutation_pairs())
def test_inverse_and_composition(pair):
    s, t = pair
    n = len(s)
    assert compose(s, inverse(s)) == tuple(range(1, n + 1))
    assert compose(inverse(s), s) == tuple(range(1, n + 1))
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
    assert commutator(s, s) == tuple(range(1, len(s) + 1))


@given(permutations())
def test_cycle_structure_partitions_the_points(s):
    struct = cycle_structure(s)
    points = [x for cycle in struct.cycles for x in cycle]
    assert sorted(points) == list(range(1, len(s) + 1))
    assert all(cycle[0] == min(cycle) for cycle in struct.cycles)
    assert sum(struct.flag) == len(s)
    assert struct.flag == tuple(sorted(struct.flag))


def test_signature_examples():
    assert signature(parse_cycles("(1 2)", 2)) == -1
    assert signature(parse_cycles("(1 2 3)", 3)) == 1
    assert signature(tuple(range(1, 6))) == 1


def test_signature_matches_cycle_structure_parity():
    """signature against the inversion-count parity, every permutation of degree <= 6."""
    for n in range(1, 7):
        for img in itertools.permutations(range(1, n + 1)):
            inversions = sum(img[i] > img[j] for i, j in itertools.combinations(range(n), 2))
            assert signature(img) == (-1) ** inversions


@given(permutation_pairs())
def test_signature_is_multiplicative(pair):
    s, t = pair
    assert signature(compose(s, t)) == signature(s) * signature(t)


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
            flag = cycle_structure(image).flag
            tally[flag] = tally.get(flag, 0) + 1
        for flag, count in tally.items():
            assert conjugacy_class_size(flag) == count


@pytest.mark.parametrize("n", range(1, 9))
def test_block_cycles_are_consecutive_blocks_of_the_cycle_type(n):
    for flag in enumerate_partitions(n):
        starts = itertools.accumulate(flag, initial=1)
        blocks = tuple(tuple(range(start, start + length)) for start, length in zip(starts, flag))
        assert cycle_structure(block_cycles(flag)).cycles == blocks


@given(permutation_pairs(max_degree=10))
def test_conjugation_preserves_cycle_type(pair):
    s, t = pair
    conjugate = compose(compose(t, s), inverse(t))
    assert cycle_structure(conjugate).flag == cycle_structure(s).flag


@pytest.mark.parametrize("n", range(3, 6))
def test_three_cycle_matches_the_commutator(n):
    """None exactly when [s, t] moves other than three points; else its cycle, smallest first."""
    perms = list(itertools.permutations(range(1, n + 1)))
    found = 0
    for s in perms:
        for t in perms:
            c = commutator(s, t)
            moved = [p for p in range(1, n + 1) if c[p - 1] != p]
            got = three_cycle(s, t)
            if len(moved) != 3:
                assert got is None
                continue
            x = moved[0]
            assert got == (x, c[x - 1], c[c[x - 1] - 1])
            found += 1
    assert found > 0


def test_three_cycle_examples():
    s = parse_cycles("(1 2 3)", 3)
    assert three_cycle(s, parse_cycles("(1 2)", 3)) == (1, 3, 2)
    s = parse_cycles("(1 2)(3 4 5)", 5)
    assert three_cycle(s, parse_cycles("(1 3)(2 4)", 5)) == (1, 3, 5)
    with pytest.raises(ValueError):
        three_cycle(tuple(range(1, 4)), tuple(range(1, 5)))
