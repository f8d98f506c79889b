"""Symmetric-group character values from border strips and Frobenius's formula."""

from fractions import Fraction
from math import factorial

import pytest

from permcensus.census import count_b
from permcensus.characters import (
    character_table,
    character_value,
    dimension,
    frobenius_threecycle_sum,
    young_diagrams,
)
from permcensus.partitions import partition_count
from permcensus.perm import conjugacy_class_size


def hook_length_dimension(lam):
    """n! over the product of hook lengths."""
    n = sum(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for below in lam[i + 1 :] if below > j)
            hooks *= arm + leg + 1
    return factorial(n) // hooks


def test_young_diagrams():
    assert young_diagrams(4) == [(1, 1, 1, 1), (2, 1, 1), (3, 1), (2, 2), (4,)]
    for n in range(1, 9):
        diagrams = young_diagrams(n)
        assert len(diagrams) == partition_count(n)
        for lam in diagrams:
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_character_small_values():
    assert character_value((2, 1), (3,)) == -1
    assert character_value((2, 1, 1), (4,)) == 1
    assert character_value((3, 1), (4,)) == -1
    assert character_value((2, 1), (1, 1, 1)) == 2
    assert character_value((2, 2), (2, 2)) == 2


def test_character_argument_validation():
    with pytest.raises(ValueError):
        character_value((1, 2), (3,))
    with pytest.raises(ValueError):
        character_value((2, 1), (2, 1, 1))
    with pytest.raises(ValueError):
        character_value((2, 0), (2,))
    assert character_value((2, 1), (1, 2)) == character_value((2, 1), (2, 1))


def test_trivial_and_sign_characters():
    for n in range(1, 8):
        for mu in young_diagrams(n):
            assert character_value((n,), mu) == 1
            parity = (-1) ** (n - len(mu))
            assert character_value((1,) * n, mu) == parity


def test_dimension_matches_hook_lengths():
    for n in range(1, 13):
        for lam in young_diagrams(n):
            assert dimension(lam) == hook_length_dimension(lam)


def test_dimensions_square_to_group_order():
    for n in range(1, 9):
        assert sum(dimension(lam) ** 2 for lam in young_diagrams(n)) == factorial(n)


def test_row_orthogonality():
    """Characters weighted by class sizes are orthonormal rows."""
    for n in range(1, 7):
        classes = young_diagrams(n)
        table = character_table(n)
        for lam in classes:
            for nu in classes:
                inner = sum(
                    conjugacy_class_size(mu) * table[lam][mu] * table[nu][mu]
                    for mu in classes
                )
                assert inner == (factorial(n) if lam == nu else 0)


def test_column_orthogonality():
    for n in range(1, 7):
        diagrams = young_diagrams(n)
        table = character_table(n)
        for mu in diagrams:
            for nu in diagrams:
                inner = sum(table[lam][mu] * table[lam][nu] for lam in diagrams)
                if mu == nu:
                    assert inner * conjugacy_class_size(mu) == factorial(n)
                else:
                    assert inner == 0


def test_frobenius_threecycle_sum_small():
    assert frobenius_threecycle_sum(3) == Fraction(3, 2)
    assert frobenius_threecycle_sum(4) == Fraction(3, 2)


def test_frobenius_identity_counts_commutator_pairs():
    """|three-cycle class| times the character sum equals the pair count over n!."""
    for n in range(3, 21):
        class_size = n * (n - 1) * (n - 2) // 3
        assert class_size * frobenius_threecycle_sum(n) == count_b(n)


def test_threecycle_central_character():
    """The 3-cycle class sum acts on the irrep lam as sum(c^2) - C(n, 2), c = j - i the contents."""
    for n in range(3, 15):
        class_size = n * (n - 1) * (n - 2) // 3
        three_cycle = (3,) + (1,) * (n - 3)
        for lam in young_diagrams(n):
            contents = sum((j - i) ** 2 for i, row in enumerate(lam) for j in range(row))
            assert (class_size * character_value(lam, three_cycle)
                    == (contents - n * (n - 1) // 2) * dimension(lam))
