"""Irreducible characters of symmetric groups: border strips, then Frobenius's formula."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

from permcensus.partitions import enumerate_partitions


def young_diagrams(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as nonincreasing tuples: the index set of the irreps."""
    return [tuple(reversed(p)) for p in enumerate_partitions(n)]


def character_value(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """The irreducible character indexed by lam at the class of cycle type mu.

    Both arguments are partitions of the same n; lam must be
    nonincreasing, mu may come in any order.  Evaluated by the
    border-strip recursion: strip a part of mu from lam along the rim in
    every legal way, weight each removal by (-1)^height, and recurse until
    only unit parts are left.
    """
    lam = tuple(lam)
    mu = tuple(sorted(mu, reverse=True))
    if any(p < 1 for p in lam) or any(p < 1 for p in mu):
        raise ValueError("partition parts must be positive")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"lam must be nonincreasing, got {lam}")
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |lam| = {sum(lam)}, |mu| = {sum(mu)}")
    m = len(lam)
    return _strip_recursion(frozenset(part + m - 1 - i for i, part in enumerate(lam)), mu)


def _strip_recursion(beta: frozenset[int], mu: tuple[int, ...]) -> int:
    """Border-strip evaluation on first-column hook lengths (beta numbers).

    beta holds lam_i + (m - 1 - i) for the m parts of lam; removing a strip
    of length r means lowering one of them by r onto a number not in the
    set, and the sign counts the entries jumped over.  Once mu (nonincreasing)
    has only unit parts, the value is the number of standard tableaux of the
    shape left, by Frobenius's formula |mu|! prod(b - c) / prod(b!) over the
    pairs b > c of beta.
    """
    if not mu or mu[0] == 1:
        pairs = combinations(sorted(beta, reverse=True), 2)
        return factorial(len(mu)) * prod(b - c for b, c in pairs) // prod(map(factorial, beta))
    r, rest = mu[0], mu[1:]
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for other in beta if nb < other < b)
        total += (-1) ** height * _strip_recursion(beta - {b} | {nb}, rest)
    return total


def dimension(lam: tuple[int, ...]) -> int:
    """The dimension of the irrep indexed by lam (its character at the identity)."""
    n = sum(lam)
    return character_value(tuple(lam), (1,) * n)


def character_table(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """The full character table of S_n: table[lam][mu] = chi_lam(mu).

    Both indices are nonincreasing partitions of n; mu runs over cycle
    types (conjugacy classes).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    diagrams = young_diagrams(n)
    return {
        lam: {mu: character_value(lam, mu) for mu in diagrams} for lam in diagrams
    }


def frobenius_threecycle_sum(n: int) -> Fraction:
    """Sum over the irreps of chi(3-cycle class) / dimension, exactly.

    Scaled by n! times the class size, this sum counts the ordered pairs
    (s, t) whose commutator lies in the 3-cycle class.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    three_cycle = (3,) + (1,) * (n - 3)
    return sum(Fraction(character_value(lam, three_cycle), dimension(lam))
               for lam in young_diagrams(n))
