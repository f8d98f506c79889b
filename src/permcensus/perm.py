"""Permutations of {1, ..., n}: composition, cycles, commutators and their 3-cycles.

A permutation is its image tuple: entry x - 1 is the image of the point
x, so points are 1-based everywhere.  compose, inverse, commutator,
three_cycle, cycle_structure and signature take any such tuple, and the
first three return plain tuples, as does block_cycles, the class
representative of a cycle type that the oracle and the origami builders
share.  Permutation is the validated type for parsing and printing: a
tuple subclass whose constructor checks the bijection, so every
Permutation is also an image tuple.  Disjoint-cycle data is ordered by
(and each cycle started at) its minimal element, so printed forms are
canonical.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from math import factorial


class Permutation(tuple):
    """A bijection of {1, ..., n}; self[x - 1] is the image of the point x."""

    __slots__ = ()

    def __new__(cls, image: Iterable[int]) -> Permutation:
        self = super().__new__(cls, image)
        if sorted(self) != list(range(1, len(self) + 1)):
            raise ValueError("image table is not a bijection of 1..n")
        return self

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, x: int) -> int:
        if not 1 <= x <= len(self):
            raise ValueError(f"point {x} outside 1..{len(self)}")
        return self[x - 1]

    def __str__(self) -> str:
        return cycles_string(self)


def identity(n: int) -> Permutation:
    """The identity permutation of degree n."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    return Permutation(range(1, n + 1))


def compose(s: Sequence[int], t: Sequence[int]) -> tuple[int, ...]:
    """The product s o t (t applied first)."""
    if len(s) != len(t):
        raise ValueError(f"degree mismatch: {len(s)} vs {len(t)}")
    return tuple([s[y - 1] for y in t])


def inverse(s: Sequence[int]) -> tuple[int, ...]:
    """The inverse permutation."""
    img = [0] * len(s)
    for x, y in enumerate(s, start=1):
        img[y - 1] = x
    return tuple(img)


def commutator(s: Sequence[int], t: Sequence[int]) -> tuple[int, ...]:
    """[s, t] = s o t o s^-1 o t^-1."""
    return compose(compose(s, t), compose(inverse(s), inverse(t)))


def three_cycle(s: Sequence[int], t: Sequence[int]) -> tuple[int, int, int] | None:
    """(x, c(x), c(c(x))) for c = [s, t] when c is a 3-cycle, x its smallest point; else None.

    The commutator is never built.  c = s t s^-1 t^-1 moves the point
    t(u) exactly when t(s^-1(u)) != s^-1(t(u)), and then sends it to
    s(t(s^-1(u))), so the moved points and their images are read off
    s^-1 alone.  The scan stops at the fourth moved point.
    """
    if len(s) != len(t):
        raise ValueError(f"degree mismatch: {len(s)} vs {len(t)}")
    s_inv = [0] * (len(s) + 1)
    for x, y in enumerate(s, 1):
        s_inv[y] = x
    images = {}
    for u, tu in enumerate(t, 1):
        w = t[s_inv[u] - 1]
        if w != s_inv[tu]:
            if len(images) == 3:
                return None
            images[tu] = s[w - 1]
    if len(images) != 3:
        return None
    x = min(images)
    return x, images[x], images[images[x]]


def block_cycles(lengths: Iterable[int]) -> tuple[int, ...]:
    """The image tuple whose cycles are consecutive blocks of the given lengths from point 1.

    Each block start, ..., start + length - 1 (length >= 1) is one cycle
    that sends every point to the next and the last back to start:
    (2, 3) gives (1 2)(3 4 5).
    """
    img: list[int] = []
    for length in lengths:
        start = len(img) + 1
        img.extend(range(start + 1, start + length))
        img.append(start)
    return tuple(img)


def from_cycles(cycles: Iterable[Sequence[int]], degree: int) -> Permutation:
    """Build a permutation from disjoint cycles; omitted points stay fixed."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    img = list(range(1, degree + 1))
    seen: set[int] = set()
    for cycle in cycles:
        pts = list(cycle)
        for p in pts:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} outside 1..{degree}")
            if p in seen:
                raise ValueError(f"cycles are not disjoint at point {p}")
            seen.add(p)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a - 1] = b
    return Permutation(img)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like "(1 2 3)(7 8 9)"; commas also separate points."""
    leftovers = _CYCLE_RE.sub("", text)
    if leftovers.strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    for group in _CYCLE_RE.findall(text):
        pts = [int(tok) for tok in re.split(r"[,\s]+", group.strip()) if tok]
        if pts:
            cycles.append(pts)
    return from_cycles(cycles, degree)


def cycles_string(s: Sequence[int]) -> str:
    """Canonical cycle notation without fixed points; "()" for the identity."""
    parts = []
    for cycle in cycle_structure(s).cycles:
        if len(cycle) > 1:
            parts.append("(" + " ".join(str(p) for p in cycle) + ")")
    return "".join(parts) if parts else "()"


class CycleStructure(namedtuple("CycleStructure", "cycles")):
    """Disjoint cycles covering 1..n, ordered by (and started at) minimal elements."""

    __slots__ = ()

    @property
    def flag(self) -> tuple[int, ...]:
        """Cycle lengths as a nondecreasing tuple (a partition of the degree)."""
        return tuple(sorted(len(c) for c in self.cycles))


def cycle_structure(s: Sequence[int]) -> CycleStructure:
    """Disjoint cycle decomposition (fixed points included as 1-cycles)."""
    n = len(s)
    seen = bytearray(n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = 1
        nxt = s[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = 1
            nxt = s[nxt - 1]
        cycles.append(tuple(cycle))
    return CycleStructure(tuple(cycles))


def signature(s: Sequence[int]) -> int:
    """+1 for even permutations, -1 for odd ones.

    The parity of n minus the number of cycles; the cycles are counted by
    marking their points, without building the decomposition.
    """
    n = len(s)
    seen = bytearray(n + 1)
    cycles = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycles += 1
        x = start
        while not seen[x]:
            seen[x] = 1
            x = s[x - 1]
    return -1 if (n - cycles) % 2 else 1


def conjugacy_class_size(flag: Iterable[int]) -> int:
    """The number of permutations in S_n with the given multiset of cycle lengths.

    Equals n! / prod over lengths l of (l^m_l * m_l!) where m_l is the
    multiplicity of l.
    """
    lengths = tuple(sorted(flag))
    if not lengths or any(l < 1 for l in lengths):
        raise ValueError("cycle lengths must be positive integers")
    n = sum(lengths)
    denom = 1
    for length, mult in Counter(lengths).items():
        denom *= length**mult * factorial(mult)
    return factorial(n) // denom
