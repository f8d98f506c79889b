"""Brute-force enumeration cross-checked against the closed-form counts."""

from itertools import permutations
from math import factorial

import pytest

from permcensus import groups, oracle
from permcensus.census import census_row
from permcensus.oracle import (
    FAMILIES,
    _double_coset,
    _powers,
    brute_count,
    brute_counts,
    brute_triple_counts,
    brute_twist_count,
)
from permcensus.partitions import enumerate_partitions
from permcensus.perm import block_cycles, compose, three_cycle


def formula_value(n, family):
    row = census_row(n)
    return {
        "B": row.b,
        "A": row.a,
        "B1": row.b1,
        "A1": row.a1,
        "B2": row.b2,
        "A2": row.a2,
    }[family]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_brute_count_matches_formulas(n, family):
    pairs = brute_count(n, family)
    assert pairs % factorial(n) == 0
    assert pairs // factorial(n) == formula_value(n, family)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_class_collapse_agrees_with_plain_double_loop(n, family):
    assert brute_count(n, family, full=True) == brute_count(n, family)


@pytest.mark.parametrize("family", ["B", "A1"])
def test_class_collapse_agrees_at_six(family):
    assert brute_count(6, family, full=True) == brute_count(6, family)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_single_pass_matches_per_family_counts(n):
    assert brute_counts(n) == {family: brute_count(n, family) for family in FAMILIES}


def double_cosets_of_hits(n):
    """The number of double cosets <s> t <s> of 3-cycle hits, over every class representative s.

    Built from plain tuple compositions and perm.three_cycle on each pair,
    independently of the byte columns of brute_counts.
    """
    total = 0
    for flag in enumerate_partitions(n):
        s = block_cycles(flag)
        powers = [tuple(range(1, n + 1))]
        while compose(s, powers[-1]) != powers[0]:
            powers.append(compose(s, powers[-1]))
        labelled = set()
        for t in permutations(range(1, n + 1)):
            if t in labelled or three_cycle(s, t) is None:
                continue
            total += 1
            labelled.update(compose(compose(a, t), b) for a in powers for b in powers)
    return total


@pytest.mark.parametrize("n, cosets", [(3, 2), (4, 7), (5, 38), (6, 179), (7, 1034)])
def test_single_pass_decides_generation_once_per_double_coset(n, cosets, monkeypatch):
    calls = 0
    real = groups.generates_alt_or_sym

    def counted(s, t):
        nonlocal calls
        calls += 1
        return real(s, t)

    monkeypatch.setattr(groups, "generates_alt_or_sym", counted)
    assert brute_counts(n) == {family: formula_value(n, family) * factorial(n)
                               for family in FAMILIES}
    assert calls == double_cosets_of_hits(n) == cosets


def closure_walk(t, s, step=None):
    """The double coset <s> t <s> by closing {t} under t -> t s and t -> s t.

    This is the walk brute_counts made before it built the coset from the
    powers of s.  Images are 0-based bytes; step replaces t -> t s.
    """
    through_s = s.ljust(256, b"\0")
    step = step or (lambda u: u.translate(through_s))
    seen = {t}
    todo = [t]
    while todo:
        u = todo.pop()
        for v in (s.translate(u.ljust(256, b"\0")), step(u)):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def hits_by_representative(n):
    """Each class representative s with its 3-cycle hits t, both as 0-based bytes."""
    for flag in enumerate_partitions(n):
        s = block_cycles(flag)
        hits = [bytes(x - 1 for x in t) for t in permutations(range(1, n + 1))
                if three_cycle(s, t) is not None]
        yield bytes(x - 1 for x in s), hits


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_double_coset_matches_the_closure_walk(n):
    for s, hits in hits_by_representative(n):
        powers, tables = _powers(s)
        assert len(set(powers)) == len(powers) and s in powers[:2]
        hit_set = set(hits)
        for t in hits:
            coset = _double_coset(t, powers, tables)
            assert coset == closure_walk(t, s)
            assert coset <= hit_set


def test_a_walk_that_leaves_the_double_coset_trips_the_self_check(monkeypatch):
    def squaring_walk(t, powers, tables):
        # t -> t t in place of t -> t s: t t is not in <s> t <s> in general.
        return closure_walk(t, powers[1 % len(powers)], step=lambda u: u.translate(u.ljust(256, b"\0")))

    monkeypatch.setattr(oracle, "_double_coset", squaring_walk)
    for n in range(3, 8):
        with pytest.raises(RuntimeError, match="non-hit"):
            brute_counts(n)


def test_a_coset_that_repeats_an_earlier_one_trips_the_self_check(monkeypatch):
    previous = {}

    def with_previous_coset(t, powers, tables):
        # Every member is still a hit, but the cosets of one s now overlap.
        coset = _double_coset(t, powers, tables)
        key = tuple(powers)
        earlier = previous.get(key, set())
        previous[key] = coset
        return coset | earlier

    monkeypatch.setattr(oracle, "_double_coset", with_previous_coset)
    with pytest.raises(RuntimeError, match="non-hit"):
        brute_counts(4)


def test_single_pass_matches_formulas_at_eight():
    counts = brute_counts(8)
    assert counts == {family: formula_value(8, family) * factorial(8) for family in FAMILIES}


def test_single_pass_argument_validation():
    with pytest.raises(ValueError):
        brute_counts(2)
    with pytest.raises(ValueError):
        brute_counts(9)


def test_argument_validation():
    with pytest.raises(ValueError):
        brute_count(3, "C")
    with pytest.raises(ValueError):
        brute_count(2, "B")
    with pytest.raises(ValueError):
        brute_count(9, "B")
    with pytest.raises(ValueError):
        brute_count(7, "B", full=True)


def test_triple_count_validation():
    with pytest.raises(ValueError):
        brute_triple_counts(12, "step_divisor", 5)
    with pytest.raises(ValueError):
        brute_triple_counts(12, "step_divisor")
    with pytest.raises(ValueError):
        brute_triple_counts(12, "coprime_gap", 2)
    with pytest.raises(ValueError):
        brute_triple_counts(12, "nope")
    with pytest.raises(ValueError):
        brute_triple_counts(0, "coprime_gap")


def test_triple_count_small_values():
    assert brute_triple_counts(3, "coprime_gap") == 1
    assert brute_triple_counts(4, "step_divisor", 2) == 2 * 0  # C(2,3) = 0
    assert brute_triple_counts(6, "step_divisor", 2) == 2
    assert brute_triple_counts(6, "step_divisor", 1) == 20


def test_twist_count_validation():
    with pytest.raises(ValueError):
        brute_twist_count(2, 4, 3, 5)
    with pytest.raises(ValueError):
        brute_twist_count(0, 1, 2, 3)
    assert brute_twist_count(1, 1, 2, 3) == 6
