"""Orbits, blocks, primitivity, group order and the two generation tests."""

import itertools
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permcensus.groups import (
    ALT,
    MAX_ORDER_DEGREE,
    NEITHER,
    SYM,
    _merge_closure,
    element_closure,
    generated,
    generates_alt_or_sym,
    group_order,
    is_primitive,
    is_transitive,
    jordan_route,
    orbit,
    order_route,
)
from permcensus.perm import block_cycles, commutator, parse_cycles


def gen(degree, *cycle_texts):
    return generated(*(parse_cycles(text, degree) for text in cycle_texts))


K4 = gen(4, "(1 2)(3 4)", "(1 3)(2 4)")
S3 = gen(3, "(1 2)", "(1 2 3)")
C4 = gen(4, "(1 2 3 4)")
C5 = gen(5, "(1 2 3 4 5)")
C6 = gen(6, "(1 2 3 4 5 6)")
D4 = gen(4, "(1 2 3 4)", "(1 3)")
A4 = gen(4, "(1 2 3)", "(2 3 4)")
SPLIT = gen(4, "(1 2)", "(3 4)")

SMALL_GROUPS = [K4, S3, C4, C5, C6, D4, A4]


def enumerate_blocks(group):
    """All blocks of a transitive group by brute force over subsets."""
    # The generators are elements too: checking them first rejects most
    # subsets before the whole group is walked.
    elements = element_closure(group)
    n = len(group[0])
    found = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            delta = frozenset(subset)
            if all(_maps_onto_or_off(img, delta) for img in group) and all(
                _maps_onto_or_off(img, delta) for img in elements
            ):
                found.append(delta)
    return found


def _maps_onto_or_off(image, delta):
    moved = frozenset(image[x - 1] for x in delta)
    return moved == delta or not (moved & delta)


def test_orbit_examples():
    assert orbit(generated(tuple(range(1, 6))), 3) == frozenset({3})
    assert orbit(C4, 1) == frozenset({1, 2, 3, 4})
    assert orbit(SPLIT, 1) == frozenset({1, 2})


def test_transitivity_examples():
    assert not is_transitive(generated(tuple(range(1, 6))))
    assert is_transitive(C4)
    assert not is_transitive(SPLIT)


def test_generated_group_validation():
    with pytest.raises(ValueError):
        generated(tuple(range(1, 5)), tuple(range(1, 4)))
    with pytest.raises(ValueError):
        generated()


def closure_class(group, x, y):
    """The class of x after _merge_closure has merged x and y in its fresh union-find."""
    _, parent = _merge_closure(group, x, y)

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    return frozenset(p for p in range(1, len(parent)) if root(p) == root(x))


@pytest.mark.parametrize("group", SMALL_GROUPS)
def test_minimal_block_against_subset_enumeration(group):
    """The closure from (x, y) is the smallest block containing x and y."""
    blocks = enumerate_blocks(group)
    n = len(group[0])
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x == y:
                continue
            containing = [b for b in blocks if x in b and y in b]
            smallest = min(containing, key=len)
            assert all(smallest <= other for other in containing)
            assert closure_class(group, x, y) == smallest


@pytest.mark.parametrize("group", SMALL_GROUPS)
def test_block_closure_properties(group):
    """Images of blocks are blocks, and block sizes divide the degree."""
    blocks = set(enumerate_blocks(group))
    n = len(group[0])
    for delta in blocks:
        assert n % len(delta) == 0
        for g in group:
            assert frozenset(g[x - 1] for x in delta) in blocks


def test_primitivity_examples():
    assert not is_primitive(K4)
    assert is_primitive(S3)
    assert not is_primitive(C6)
    assert is_primitive(C5)
    assert not is_primitive(SPLIT)
    with pytest.raises(ValueError):
        is_primitive(generated(tuple(range(1, 2))))


@pytest.mark.parametrize("group", SMALL_GROUPS)
def test_primitivity_against_block_enumeration(group):
    blocks = enumerate_blocks(group)
    trivial = all(len(b) in (1, len(group[0])) for b in blocks)
    assert is_primitive(group) == (is_transitive(group) and trivial)
    if is_primitive(group) and len(group[0]) > 2:
        assert is_transitive(group)


@st.composite
def two_generator_groups(draw):
    """A group generated by two random permutations of degree 2..8."""
    n = draw(st.integers(2, 8))
    s, t = (tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(2))
    return generated(s, t)


@st.composite
def block_preserving_groups(draw):
    """The n-cycle with a t that permutes the residue classes mod d, 1 < d < n, d | n.

    Both generators map the classes onto each other, so the group is
    transitive and imprimitive.
    """
    n = draw(st.sampled_from([4, 6, 8]))
    d = draw(st.sampled_from([d for d in range(2, n) if n % d == 0]))
    classes = draw(st.permutations(range(d)))
    within = [draw(st.permutations(range(n // d))) for _ in range(d)]
    # point x + 1 lies in class x % d, at position x // d of that class
    image = tuple(classes[x % d] + d * within[x % d][x // d] + 1 for x in range(n))
    cycle = tuple(range(2, n + 1)) + (1,)
    return generated(cycle, image)


def primitive_by_enumeration(group):
    blocks = enumerate_blocks(group)
    return is_transitive(group) and all(len(b) in (1, len(group[0])) for b in blocks)


@settings(max_examples=40, deadline=None)
@given(two_generator_groups())
def test_is_primitive_matches_block_enumeration(group):
    assert is_primitive(group) == primitive_by_enumeration(group)


@settings(max_examples=25, deadline=None)
@given(block_preserving_groups())
def test_is_primitive_on_constructed_imprimitive_groups(group):
    assert is_transitive(group)
    assert not primitive_by_enumeration(group)
    assert not is_primitive(group)


def test_group_order_examples():
    assert group_order(C5) == 5
    assert group_order(S3) == 6
    assert group_order(gen(5, "(1 2 3)", "(1 2 3 4 5)")) == 60
    assert group_order(K4) == 4
    assert group_order(D4) == 8
    assert group_order(A4) == 12


def test_group_order_degree_cap():
    big = generated(tuple(range(1, 12)))
    with pytest.raises(ValueError):
        group_order(big)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(1, 3), st.data())
def test_group_order_matches_element_closure(n, count, data):
    group = generated(*(tuple(data.draw(st.permutations(range(1, n + 1))))
                        for _ in range(count)))
    assert group_order(group) == len(element_closure(group))


def test_group_order_matches_element_closure_degree_seven():
    for texts in [
        ("(1 2 3 4 5 6 7)", "(1 2)"),
        ("(1 2 3 4 5 6 7)", "(1 2 3)"),
        ("(1 2 3)(4 5)", "(2 3)(6 7)"),
    ]:
        group = gen(7, *texts)
        assert group_order(group) == len(element_closure(group))


def test_generation_examples():
    assert generates_alt_or_sym(
        parse_cycles("(1 2 3)", 5), parse_cycles("(1 2 3 4 5)", 5)
    ) == ALT
    assert generates_alt_or_sym(
        parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)
    ) == SYM
    assert generates_alt_or_sym(
        parse_cycles("(1 2)", 3), parse_cycles("(1 2)", 3)
    ) == NEITHER
    assert generates_alt_or_sym(
        parse_cycles("(1 2 3)", 6), parse_cycles("(1 2 3)", 6)
    ) == NEITHER
    with pytest.raises(ValueError):
        generates_alt_or_sym(parse_cycles("(1 2)", 2), parse_cycles("(1 2)", 2))


def both_routes_agree(s, t):
    jordan = jordan_route(s, t)
    order = order_route(s, t)
    if jordan is not None:
        assert jordan == order
    assert generates_alt_or_sym(s, t) == order


@pytest.mark.parametrize("n", [3, 4, 5])
def test_routes_agree_exhaustively(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    for s in perms:
        for t in perms:
            c = commutator(s, t)
            if sum(1 for p in range(1, n + 1) if c[p - 1] != p) == 3:
                both_routes_agree(s, t)


@pytest.mark.parametrize("n", [6, 7])
def test_routes_agree_on_class_representatives(n):
    # Both routes are invariant under simultaneous conjugation, so one
    # outer permutation per cycle type covers every pair.
    from permcensus.partitions import enumerate_partitions

    reps = [block_cycles(flag) for flag in enumerate_partitions(n)]
    perms = list(itertools.permutations(range(1, n + 1)))
    checked = 0
    for s in reps:
        for t in perms:
            c = commutator(s, t)
            if sum(1 for p in range(1, n + 1) if c[p - 1] != p) == 3:
                both_routes_agree(s, t)
                checked += 1
    assert checked > 0


def test_order_route_full_symmetric_groups():
    for n in range(3, MAX_ORDER_DEGREE + 1):
        group = gen(n, "(1 2)", "(" + " ".join(map(str, range(1, n + 1))) + ")")
        assert group_order(group) == factorial(n)
        assert 2 * group_order(gen(n, *(f"(1 2 {k})" for k in range(3, n + 1)))) == factorial(n)
    n = MAX_ORDER_DEGREE
    transpositions = [f"({i} {j})" for i, j in itertools.combinations(range(1, n + 1), 2)]
    assert group_order(gen(n, *transpositions)) == factorial(n)


def test_generation_above_the_order_cap_needs_a_three_cycle_commutator():
    n = MAX_ORDER_DEGREE + 1
    cycle = parse_cycles("(" + " ".join(map(str, range(1, n + 1))) + ")", n)
    # [cycle, (1 2)] is a 3-cycle; [cycle, (1 3)] = (2 4)(1 3) is not, and
    # <cycle, (1 3)> is primitive (prime degree), so only its order could decide.
    assert generates_alt_or_sym(cycle, parse_cycles("(1 2)", n)) == SYM
    with pytest.raises(ValueError, match=f"degree {n} exceeds the cap {MAX_ORDER_DEGREE}"):
        generates_alt_or_sym(cycle, parse_cycles("(1 3)", n))
    with pytest.raises(ValueError, match=f"degree {n} exceeds the cap {MAX_ORDER_DEGREE}"):
        order_route(cycle, parse_cycles("(1 2)", n))
