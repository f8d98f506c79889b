"""The integer partition function, partition enumeration, and related identities."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

from permcensus import arith

_TABLE: list[int] = [1]


def partition_table(bound: int) -> list[int]:
    """P(0..bound) as a list, built by the pentagonal-number recurrence.

    The module cache grows geometrically.  A longer table is built in a new
    list and published with one assignment, so a caller in another thread
    sees either the old complete table or the new one, never a half-grown
    one.  Treat the returned list as read-only.
    """
    global _TABLE
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    table = _TABLE
    if len(table) > bound:
        return table
    table = list(table)
    top = max(bound, 2 * (len(table) - 1))
    while len(table) <= top:
        n = len(table)
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > n:
                break
            sign = 1 if j % 2 else -1
            total += sign * table[n - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= n:
                total += sign * table[n - g2]
            j += 1
        table.append(total)
    _TABLE = table
    return table


def partition_count(n: int) -> int:
    """The number of partitions of n, with P(0) = 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return partition_table(n)[n]


@dataclass(frozen=True)
class PartitionTable:
    """An immutable snapshot of P(0), P(1), ..., P(bound)."""

    values: tuple[int, ...]

    @classmethod
    def up_to(cls, bound: int) -> "PartitionTable":
        return cls(tuple(partition_table(bound)[: bound + 1]))

    @property
    def bound(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        return self.values[n]


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of n as a nondecreasing tuple, in lexicographic order.

    For n = 4: (1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def rec(remaining: int, minimum: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(minimum, remaining + 1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, 1, ())


def count_parts_of_length(n: int, d: int) -> int:
    """The total number of parts equal to d over all partitions of n.

    Equals sum over m >= 1 of P(n - m d): a partition with exactly j parts
    equal to d is reached once for each m = 1..j.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d = {d}, n = {n}")
    table = partition_table(n)
    return sum(table[n - m * d] for m in range(1, n // d + 1))


def sigma_partition_identity_check(n: int) -> bool:
    """True iff sum over 0 < k < n of sigma(k) P(n-k) equals n P(n) - sigma(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = partition_table(n)
    sig = arith.sigma_table(n)
    lhs = sum(map(operator.mul, sig[1:n], table[n - 1 : 0 : -1]))
    return lhs == n * table[n] - sig[n]
