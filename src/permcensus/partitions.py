"""The integer partition function, convolutions with it, and partition enumeration."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, count, islice, repeat


def times_p(weights: Iterable[int]) -> Iterator[int]:
    """Yield (w * P)(n) = sum over 0 <= k <= n of w(k) P(n - k) for n = 0, 1, ...

    Euler's pentagonal theorem gives P * E = 1 with E = prod over k >= 1 of
    (1 - q^k), so X = w * P solves X * E = w: X(n) = w(n) + sum over the
    generalized pentagonal numbers g = j(3j -+ 1)/2 <= n of +-X(n - g), the
    sign + for odd j.  The offsets ascend, and each n takes in the offset
    equal to n, so its loops run over the offsets <= n.  The stream yields
    one value per integer weight w(0), w(1), ... and ends when they do.
    """
    table = []
    offsets = _pentagonal_offsets()
    g, positive = next(offsets)
    active_plus, active_minus = [], []
    for n, total in enumerate(weights):
        if g == n:
            (active_plus if positive else active_minus).append(g)
            g, positive = next(offsets)
        for g_plus in active_plus:
            total += table[n - g_plus]
        for g_minus in active_minus:
            total -= table[n - g_minus]
        table.append(total)
        yield total


def partition_numbers() -> Iterator[int]:
    """Yield P(0), P(1), P(2), ... without end: times_p of the weights 1, 0, 0, ..."""
    return times_p(chain((1,), repeat(0)))


def _pentagonal_offsets() -> Iterator[tuple[int, bool]]:
    """Yield (j(3j - 1)/2, j odd) and (j(3j + 1)/2, j odd) for j = 1, 2, ..., ascending."""
    for j in count(1):
        yield j * (3 * j - 1) // 2, j % 2 == 1
        yield j * (3 * j + 1) // 2, j % 2 == 1


def partition_table(bound: int) -> list[int]:
    """P(0..bound) as a new list: the first bound + 1 values of partition_numbers()."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    return list(islice(partition_numbers(), bound + 1))


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
