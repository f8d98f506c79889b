"""A fixed piece of work that measures how fast the host runs Python right now.

The benchmark times `work()` in its own process next to every CLI
invocation.  It uses only the standard library, never permcensus, so a change
to the program cannot change its time; only the host's speed can.  The work
mixes what the CLI spends its time on: big-integer products, Fraction
arithmetic and dict/tuple handling.
"""

import time
from fractions import Fraction

_BIG = 7**300


def work() -> None:
    acc = 0
    for i in range(1, 10000):
        acc = (acc + _BIG * i * (_BIG + i)) % (_BIG - 1)
    harmonic = sum(Fraction(1, k) for k in range(1, 300))
    counts: dict[tuple[int, int], int] = {}
    for i in range(100000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    if acc < 0 or harmonic < 1 or len(counts) != 97 * 13:
        raise RuntimeError("calibration arithmetic went wrong")


def seconds() -> float:
    """Wall time of one call of work()."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
