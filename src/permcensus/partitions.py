"""The integer partition function and partition enumeration."""

from __future__ import annotations

from collections.abc import Iterator


def partition_table(bound: int) -> list[int]:
    """P(0..bound) as a new list, built by the pentagonal-number recurrence.

    P(n) = sum over the generalized pentagonal numbers g = j(3j -+ 1)/2 <= n
    of +-P(n - g), the sign + for odd j and - for even j.  The offsets up
    to bound are listed once, split by sign into two ascending lists; each
    n takes in the offset equal to n, so its loops run over the offsets <= n.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    table = [1]
    plus, minus = (offsets + [bound + 1] for offsets in _pentagonal_offsets(bound))  # sentinels
    active_plus, active_minus = [], []
    for n in range(1, bound + 1):
        if plus[len(active_plus)] == n:
            active_plus.append(n)
        if minus[len(active_minus)] == n:
            active_minus.append(n)
        total = 0
        for g in active_plus:
            total += table[n - g]
        for g in active_minus:
            total -= table[n - g]
        table.append(total)
    return table


def _pentagonal_offsets(top: int) -> tuple[list[int], list[int]]:
    """The offsets j(3j - 1)/2 and j(3j + 1)/2 of every j with j(3j - 1)/2 <= top.

    They come as two ascending lists: those of odd j (sign +), then those
    of even j (sign -).
    """
    plus: list[int] = []
    minus: list[int] = []
    j = 1
    while j * (3 * j - 1) // 2 <= top:
        offsets = plus if j % 2 else minus
        offsets.append(j * (3 * j - 1) // 2)
        offsets.append(j * (3 * j + 1) // 2)
        j += 1
    return plus, minus


def partition_count(n: int) -> int:
    """The number of partitions of n, with P(0) = 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return partition_table(n)[n]


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
