"""Brute-force enumeration over S_n x S_n grounding the closed-form counts.

Everything here is deliberately independent of the formulas: pairs are
enumerated, commutators computed pointwise, and generation tested via
the group machinery.  Degrees run 3..8; n = 8 takes 40320 candidates t
for each of 22 cycle types of s (the command line asks for an opt-in
before it runs that degree).  Both counts weight one class representative
s per cycle type, perm.block_cycles of the partition, by its class size.

brute_count is the plain reference: it tests each pair (s, t) with
perm.three_cycle.  brute_counts, which verify runs, scans the commutators
of one s with every t at once.  It keeps the image column of each point
over all of S_n as a byte string, one byte per t holding a 0-based image,
and counts the points each commutator moves in one byte per t with
big-integer XOR, shift and add.  That needs every image and every XOR of
two images to fit in 3 bits: the values are 0-based (0..n-1) and the
degree is at most 8.  It then decides generation once per double coset
<s> t <s> of pairs with a 3-cycle commutator, not once per pair: for
every t' = s^j t s^k, [s, t'] = s^j [s, t] s^-j is again a 3-cycle and
<s, t'> = <s, t>.  The powers of s are listed once per class
representative, and each coset is two set comprehensions over them.  A
set of seen hits skips decided cosets, and one count check per s asks
that the cosets be disjoint and hold exactly the hits.
"""

from __future__ import annotations

from itertools import permutations as all_images
from math import gcd

from permcensus import groups
from permcensus.partitions import enumerate_partitions
from permcensus.perm import (block_cycles, conjugacy_class_size, cycle_structure, inverse,
                             three_cycle)

FAMILIES = ("B", "A", "B1", "A1", "B2", "A2")
_GENERATING = ("A", "A1", "A2")

_MAX_DEGREE = 8
_MAX_FULL_DEGREE = 6


def _check_degree(n: int) -> None:
    if not 3 <= n <= _MAX_DEGREE:
        raise ValueError(f"degree must lie in 3..{_MAX_DEGREE}, got {n}")


def _s_filter(family: str, flag: tuple[int, ...]) -> bool:
    """Whether permutations of this cycle type can appear as s in the family."""
    if family in ("B1", "A1"):
        return len(flag) == 1
    if family in ("B2", "A2"):
        return sum(1 for length in flag if length > 1) == 1
    return True


def brute_count(n: int, family: str, *, full: bool = False) -> int:
    """The exact number of ordered pairs (s, t) in S_n x S_n in the family.

    Families: "B" commutator is a 3-cycle; "B1"/"B2" additionally s is an
    n-cycle / any cycle; "A"/"A1"/"A2" the corresponding pairs that also
    generate the alternating or symmetric group.

    By default the outer loop visits one representative s per conjugacy
    class and scales by the class size (every family predicate is
    invariant under simultaneous conjugation); full=True forces the
    plain double loop and is limited to n <= 6.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    _check_degree(n)
    if full and n > _MAX_FULL_DEGREE:
        raise ValueError(f"full double loop is limited to n <= {_MAX_FULL_DEGREE}")

    need_generation = family in _GENERATING
    points = tuple(range(1, n + 1))

    def count_t_loop(s_img: tuple[int, ...]) -> int:
        hits = 0
        for t_img in all_images(points):
            if three_cycle(s_img, t_img) is None:
                continue
            if need_generation and groups.generates_alt_or_sym(s_img, t_img) == groups.NEITHER:
                continue
            hits += 1
        return hits

    if full:
        return sum(count_t_loop(s_img) for s_img in all_images(points)
                   if _s_filter(family, cycle_structure(s_img).flag))

    total = 0
    for flag in enumerate_partitions(n):
        if _s_filter(family, flag):
            total += conjugacy_class_size(flag) * count_t_loop(block_cycles(flag))
    return total


def brute_counts(n: int) -> dict[str, int]:
    """brute_count(n, family) for every family, from one pass over the pairs.

    The outer loop visits one representative s per cycle type, weighted by
    its class size; for each s the commutators with every t of S_n are
    tested at once, column by column.  The subfamilies are picked out by
    the same cycle-type filters as brute_count.

    [s, t] = s t s^-1 t^-1 moves the point t(y) exactly when
    t(s^-1(y)) != s^-1(t(y)), so the number of points it moves is the
    number of places y where the images of t s^-1 and s^-1 t differ.
    columns[y - 1] holds t(y) - 1 for every t, one byte per t in the order
    of itertools.permutations.  Over every t at once, the 0-based images
    of y under t s^-1 are columns[s^-1(y) - 1], and those under s^-1 t are
    columns[y - 1] translated through s^-1.  XOR-ing the two columns as
    big integers leaves a non-zero byte exactly where they differ; folding
    its three low bits onto bit 0 and adding over y counts the differences
    of every t in its own byte.  The values are 0-based and _check_degree
    keeps n <= 8, so every value and every XOR fits in 3 bits (the fold
    needs exactly the shifts by 1 and 2) and no byte count exceeds 8 (no
    carry into the next byte).

    Generation is decided once per double coset <s> t <s> of hits (pairs
    whose commutator is a 3-cycle): [s, s^j t s^k] = s^j [s, t] s^-j and
    <s, s^j t s^k> = <s, t>, so one call decides the coset that
    _double_coset builds, and a set of seen hits skips its other members.
    The cosets partition the hits, so their sizes must add up to the size
    of that set and to the number of hits; a coset that overlaps an earlier
    one or holds a non-hit is a bug in the scan or the coset and raises
    RuntimeError.
    """
    _check_degree(n)
    images = [bytes(image) for image in all_images(range(n))]
    columns = [bytes(column) for column in zip(*images)]
    column_ints = [int.from_bytes(column, "big") for column in columns]
    low_bits = int.from_bytes(b"\x01" * len(images), "big")
    one_based = bytes(range(1, 256)).ljust(256, b"\0")
    totals = dict.fromkeys(FAMILIES, 0)
    for flag in enumerate_partitions(n):
        s_img = block_cycles(flag)
        s_inv = [x - 1 for x in inverse(s_img)]
        through_s_inv = bytes(s_inv).ljust(256, b"\0")
        moved = 0
        for y, column in enumerate(columns):
            diff = column_ints[s_inv[y]] ^ int.from_bytes(column.translate(through_s_inv), "big")
            moved += (diff | diff >> 1 | diff >> 2) & low_bits
        moved_per_t = moved.to_bytes(len(images), "big")
        powers, tables = _powers(bytes(x - 1 for x in s_img))
        seen: set[bytes] = set()
        members = generating = 0
        i = moved_per_t.find(3)
        while i >= 0:
            if images[i] not in seen:
                coset = _double_coset(images[i], powers, tables)
                seen |= coset
                members += len(coset)
                t_img = tuple(images[i].translate(one_based))
                if groups.generates_alt_or_sym(s_img, t_img) != groups.NEITHER:
                    generating += len(coset)
            i = moved_per_t.find(3, i + 1)
        hits = moved_per_t.count(3)
        if not members == len(seen) == hits:
            raise RuntimeError(
                f"double cosets of the 3-cycle hits overlap or hold a non-hit at degree {n}, "
                f"s = {s_img} (this is a bug)")
        size = conjugacy_class_size(flag)
        for family in FAMILIES:
            if _s_filter(family, flag):
                totals[family] += size * (generating if family in _GENERATING else hits)
    return totals


def _powers(s: bytes) -> tuple[list[bytes], list[bytes]]:
    """The powers s^0, s^1, ..., s^(m-1) of s (m its order) as 0-based image bytes.

    Returned twice: as image bytes, and padded to 256 bytes as translate
    tables, so that u.translate(table) is the image bytes of s^j u.
    """
    powers = [bytes(range(len(s)))]
    through_s = s.ljust(256, b"\0")
    power = s
    while power != powers[0]:
        powers.append(power)
        power = power.translate(through_s)
    return powers, [power.ljust(256, b"\0") for power in powers]


def _double_coset(t: bytes, powers: list[bytes], tables: list[bytes]) -> set[bytes]:
    """The double coset <s> t <s> as a set of 0-based image bytes.

    powers and tables are the powers of s from _powers.  (t s^k)(x) =
    t(s^k(x)) translates s^k through t, and (s^j u)(x) = s^j(u(x))
    translates u through s^j.
    """
    through_t = t.ljust(256, b"\0")
    right = {power.translate(through_t) for power in powers}
    return {u.translate(table) for u in right for table in tables}


def brute_triple_counts(n: int, kind: str, d: int | None = None) -> int:
    """Count triples x < y < z in 1..n by direct triple loop.

    kind "step_divisor" (requires d | n): both gaps y - x and z - y are
    multiples of d.  kind "coprime_gap": gcd(y - x, z - y, n) = 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kind == "step_divisor":
        if d is None or d < 1 or n % d:
            raise ValueError(f"step_divisor needs a divisor d of n, got d = {d}")
        return sum(
            1
            for x in range(1, n + 1)
            for y in range(x + 1, n + 1)
            if (y - x) % d == 0
            for z in range(y + 1, n + 1)
            if (z - y) % d == 0
        )
    if kind == "coprime_gap":
        if d is not None:
            raise ValueError("coprime_gap takes no divisor argument")
        return sum(
            1
            for x in range(1, n + 1)
            for y in range(x + 1, n + 1)
            for z in range(y + 1, n + 1)
            if gcd(y - x, gcd(z - y, n)) == 1
        )
    raise ValueError(f"unknown kind {kind!r}; expected step_divisor or coprime_gap")


def brute_twist_count(a: int, b: int, k: int, ell: int) -> int:
    """Count twists (alpha, beta) with gcd(k, ell, a*beta - b*alpha) = 1 directly."""
    if min(a, b, k, ell) < 1:
        raise ValueError("all parameters must be >= 1")
    if gcd(a, b) != 1:
        raise ValueError(f"heights must be coprime, got gcd({a}, {b}) != 1")
    return sum(
        1
        for alpha in range(k)
        for beta in range(ell)
        if gcd(k, ell, a * beta - b * alpha) == 1
    )
