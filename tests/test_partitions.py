"""Partition counting, enumeration and the divisor-sum identity."""

from itertools import islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from permcensus.arith import sigma_k
from permcensus.partitions import (
    enumerate_partitions,
    partition_count,
    partition_numbers,
    partition_table,
    times_p,
)

# P(1)..P(18)
SMALL_VALUES = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385)


def coin_count_table(bound):
    """Independent P(n) table: count multisets by dynamic programming on parts."""
    ways = [0] * (bound + 1)
    ways[0] = 1
    for part in range(1, bound + 1):
        for total in range(part, bound + 1):
            ways[total] += ways[total - part]
    return ways


def test_small_values():
    assert partition_count(0) == 1
    assert partition_count(6) == 11
    assert partition_count(18) == 385
    for n, expected in enumerate(SMALL_VALUES, start=1):
        assert partition_count(n) == expected


def test_rejects_negative():
    with pytest.raises(ValueError):
        partition_count(-1)


def stream_prefix(bound):
    """P(0..bound), the first bound + 1 values of one partition_numbers() stream."""
    return list(islice(partition_numbers(), bound + 1))


def test_pentagonal_recurrence_against_coin_counting():
    for bound in (0, 1, 2, 500):
        assert partition_table(bound) == coin_count_table(bound)
    assert stream_prefix(500) == coin_count_table(500)


def per_n_pentagonal_table(bound):
    """P(0..bound) by the pentagonal recurrence, the offsets recomputed for each n."""
    table = [1]
    for n in range(1, bound + 1):
        total = 0
        j = 1
        while j * (3 * j - 1) // 2 <= n:
            sign = 1 if j % 2 else -1
            total += sign * table[n - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= n:
                total += sign * table[n - j * (3 * j + 1) // 2]
            j += 1
        table.append(total)
    return table


def test_partition_table_matches_per_n_recurrence_through_regrowth():
    """The stream takes in each pentagonal offset <= 3000 (1, 2, 5, 7, ..., 2882, 2926) on time."""
    reference = per_n_pentagonal_table(3000)
    assert stream_prefix(3000) == reference
    for bound in (10, 700, 3000):
        table = partition_table(bound)
        assert len(table) == bound + 1
        assert table == reference[: bound + 1]
    for n in range(1, 16):
        assert table[n] == sum(1 for _ in enumerate_partitions(n))


def written_out_times_p(weights):
    """(w * P)(n) = sum over 0 <= k <= n of w(k) P(n - k) for each n of the weights."""
    table = coin_count_table(len(weights))
    return [sum(weights[k] * table[n - k] for k in range(n + 1)) for n in range(len(weights))]


@given(st.lists(st.integers(-10**6, 10**6), max_size=40))
@example([7, -3, 0, 2, -5, 1, 0, 4, -1, 9, 3, -2, 6, 0, 1, -8])
def test_times_p_is_the_written_out_convolution_with_p(weights):
    """Any integer weights, negative entries and w(0) included, one value per weight."""
    assert list(times_p(iter(weights))) == written_out_times_p(weights)


def test_enumeration_of_four():
    assert list(enumerate_partitions(4)) == [
        (1, 1, 1, 1),
        (1, 1, 2),
        (1, 3),
        (2, 2),
        (4,),
    ]
    with pytest.raises(ValueError):
        list(enumerate_partitions(0))


@given(st.integers(1, 20))
def test_enumeration_is_complete_and_canonical(n):
    seen = list(enumerate_partitions(n))
    assert len(seen) == partition_count(n)
    assert len(set(seen)) == len(seen)
    assert seen == sorted(seen)
    for part in seen:
        assert sum(part) == n
        assert all(a <= b for a, b in zip(part, part[1:]))
        assert all(p >= 1 for p in part)


def test_sigma_partition_identity_explicitly():
    """sum over 0 < k < n of sigma(k) P(n-k) equals n P(n) - sigma(n)."""
    table = partition_table(60)
    for n in range(1, 61):
        lhs = sum(sigma_k(k, 1) * table[n - k] for k in range(1, n))
        assert lhs == n * table[n] - sigma_k(n, 1)


def test_partition_table_returns_a_new_list_each_call():
    table = partition_table(10)
    table[2] = -1
    table.append(-1)
    assert partition_table(10) == coin_count_table(10)
