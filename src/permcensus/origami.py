"""Square-tiled surfaces encoded by permutation pairs with 3-cycle commutators.

A surface of n unit squares is a pair (s, t) of image tuples (see perm):
s glues each square to its right-hand neighbour, t to its upper
neighbour.  The pairs of interest decompose into horizontal cylinders in
exactly two ways:

* one cylinder of k rows whose circumference m splits into three marked
  segments a + b + c = m;
* two cylinders of widths k < l and heights a, b, glued along three
  marked segments and rotated against each other by twists alpha, beta.

diagrams(n) lists the parameters of every shape with n squares.  Each
builder is a stack of its cylinders' rows, numbered from the bottom, plus
its own top gluing, so its s is perm.block_cycles of the row widths: the
oracle's class representative of that cycle type.  classify_origami
inverts the builders from the 3-cycle that perm.three_cycle reads and
one index of the s-cycles, and the primitivity predicates decide when
the surface is not a proper cover.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import combinations
from math import gcd

from permcensus import groups
from permcensus.arith import euler_phi
from permcensus.perm import block_cycles, cycle_structure, three_cycle


class OneCylParams(namedtuple("OneCylParams", "k a b c")):
    """One-cylinder shape: k rows of circumference a + b + c."""

    __slots__ = ()

    def __new__(cls, k: int, a: int, b: int, c: int) -> OneCylParams:
        if min(k, a, b, c) < 1:
            raise ValueError("all one-cylinder parameters must be >= 1")
        return super().__new__(cls, k, a, b, c)

    @property
    def n(self) -> int:
        return self.k * (self.a + self.b + self.c)


class TwoCylParams(namedtuple("TwoCylParams", "a b k ell alpha beta")):
    """Two-cylinder shape: heights a, b; widths k < ell; twists alpha, beta."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, k: int, ell: int, alpha: int, beta: int) -> TwoCylParams:
        if min(a, b, k) < 1:
            raise ValueError("heights and widths must be >= 1")
        if not k < ell:
            raise ValueError(f"need k < ell, got k = {k}, ell = {ell}")
        if not 0 <= alpha < k:
            raise ValueError(f"alpha must lie in [0, k), got {alpha}")
        if not 0 <= beta < ell:
            raise ValueError(f"beta must lie in [0, ell), got {beta}")
        return super().__new__(cls, a, b, k, ell, alpha, beta)

    @property
    def n(self) -> int:
        return self.a * self.k + self.b * self.ell


def diagrams(n: int) -> Iterator[OneCylParams | TwoCylParams]:
    """Every cylinder diagram with n squares: the one-cylinder ones, then the two-cylinder ones."""
    for k in range(1, n // 3 + 1):
        if n % k:
            continue
        m = n // k
        for a in range(1, m - 1):
            for b in range(1, m - a):
                yield OneCylParams(k, a, b, m - a - b)
    for ell in range(2, n):
        for k in range(1, ell):
            for b in range(1, (n - k) // ell + 1):
                a, rest = divmod(n - b * ell, k)  # n - b*ell >= k, so a >= 1
                if rest:
                    continue
                for alpha in range(k):
                    for beta in range(ell):
                        yield TwoCylParams(a, b, k, ell, alpha, beta)


def _stack(cylinders: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], list[int]]:
    """s and the straight-up part of t for cylinders [(width, height), ...] stacked from square 1.

    Squares are numbered row by row from the bottom, left to right, so s is
    perm.block_cycles of the row widths.  t sends every square below the
    top row of its cylinder to the square above it; the top rows' entries
    are left 0 for the builder's gluing.
    """
    s = block_cycles([width for width, height in cylinders for _ in range(height)])
    t = [0] * len(s)
    base = 0
    for width, height in cylinders:
        top = base + (height - 1) * width
        t[base:top] = range(base + width + 1, top + width + 1)
        base = top + width
    return s, t


def build_one_cylinder(params: OneCylParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical pair for a one-cylinder surface; its commutator is a 3-cycle.

    k rows of width m are stacked (each row an s-cycle, rows mapping
    straight up under t), and the top row closes onto the bottom row
    re-ordered as [first a columns, last c columns, middle b columns].
    The commutator is then the 3-cycle on the bottom-row points 1, a+1
    and a+b+1 sending (a+b+1) -> (a+1) -> 1 -> (a+b+1).
    """
    k, a, b, c = params
    m = a + b + c
    s, t = _stack([(m, k)])
    t[(k - 1) * m :] = [*range(1, a + 1), *range(a + b + 1, m + 1), *range(a + 1, a + b + 1)]
    return s, tuple(t)


def build_two_cylinder(params: TwoCylParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical pair for a two-cylinder surface; its commutator is a 3-cycle.

    The short cylinder (width k, height a) is stacked first, on squares
    1..ak, its bottom row being the marked z-segment; the tall cylinder
    (width ell, height b) follows, its bottom row listing the y-segment
    (k squares) then the x-segment (ell - k squares).  The short top lands
    on the y-segment shifted by alpha; the tall top lands on [z-row,
    x-segment] shifted by beta.  For every twist the commutator is the
    3-cycle on z1 = 1, y1 = ak+1, x1 = ak+k+1 sending z1 -> y1 -> x1 -> z1.
    """
    a, b, k, ell, alpha, beta = params
    base = a * k
    s, t = _stack([(k, a), (ell, b)])
    t[base - k : base] = [base + 1 + (i - alpha) % k for i in range(k)]
    closing = [*range(1, k + 1), *range(base + k + 1, base + ell + 1)]
    t[len(t) - ell :] = [closing[(j - beta) % ell] for j in range(ell)]
    return s, tuple(t)


def classify_origami(s: Sequence[int], t: Sequence[int]) -> OneCylParams | TwoCylParams:
    """Recover cylinder parameters from a connected pair with 3-cycle commutator.

    Inverts the builders.  With [s, t] = (z y x) and steps(u, v) the
    number of s-steps from u to v on their shared s-cycle (None when they
    share none, read off one index of the s-cycles): all three points on
    one s-cycle give one cylinder with segments steps(x, y), steps(y, z),
    steps(z, x); x and y on one s-cycle and z alone on a shorter one give
    two cylinders.  The s-cycle lengths give widths and heights, and for
    two cylinders the twists are read off from where t carries the marked
    bottom points across the gluing.  Raises ValueError when the pair is
    disconnected, the commutator is not a 3-cycle, or the cycle data is
    inconsistent with both shapes.
    """
    if len(s) != len(t):
        raise ValueError(f"degree mismatch: {len(s)} vs {len(t)}")
    n = len(s)
    if not groups.is_transitive((s, t)):
        raise ValueError("surface is not connected")
    moved = three_cycle(s, t)
    if moved is None:
        raise ValueError("commutator is not a 3-cycle")
    cycles = cycle_structure(s).cycles
    where = {p: (cycle, i) for cycle in cycles for i, p in enumerate(cycle)}

    def steps(u: int, v: int) -> int | None:
        (cycle_u, i), (cycle_v, j) = where[u], where[v]
        return (j - i) % len(cycle_u) if cycle_u is cycle_v else None

    lengths = sorted(map(len, cycles))
    x, z, y = moved
    segments = steps(x, y), steps(y, z), steps(z, x)
    if None not in segments:
        m = len(where[x][0])
        if sum(segments) != m:
            raise ValueError("three points share a cycle but segments do not close up")
        if any(length != m for length in lengths):
            raise ValueError("one-cylinder shape needs all s-cycles of equal length")
        return OneCylParams(n // m, *segments)

    for _ in range(3):  # turn (z y x) until x and y are the two that share an s-cycle
        if steps(x, y) is not None:
            break
        z, y, x = y, x, z
    else:
        raise ValueError("moved points do not form a one-cycle or two-cycle pattern")
    k = len(where[z][0])
    if k != steps(y, x):
        raise ValueError("lone point's cycle length does not match steps(y, x)")
    ell = len(where[x][0])  # k = steps(y, x) with y != x, so 1 <= k < ell
    a = lengths.count(k)
    b = lengths.count(ell)
    if a + b != len(lengths):
        raise ValueError("two-cylinder shape allows only cycle lengths k and ell")

    up = z
    for _ in range(a):
        up = t[up - 1]
    steps_y = steps(y, up)
    if steps_y is None or steps_y >= k:
        raise ValueError("t does not carry the short cylinder onto the y-segment")
    alpha = -steps_y % k

    up = y
    for _ in range(b):
        up = t[up - 1]
    pos = steps(z, up)
    if pos is None:
        steps_x = steps(x, up)
        if steps_x is None or steps_x >= ell - k:
            raise ValueError("t does not carry the tall cylinder onto the gluing row")
        pos = k + steps_x
    beta = -pos % ell
    return TwoCylParams(a, b, k, ell, alpha, beta)


def one_cylinder_primitive(params: OneCylParams) -> bool:
    """Whether the one-cylinder surface is not a proper cover: k = 1 and gcd(a,b,c) = 1."""
    return params.k == 1 and gcd(params.a, params.b, params.c) == 1


def two_cylinder_primitive(params: TwoCylParams) -> bool:
    """Whether the two-cylinder surface is not a proper cover.

    Requires coprime heights and gcd(k, ell, a*beta - b*alpha) = 1; the
    second condition says the twist vectors, the width vectors and the
    heights together span the full integer lattice.
    """
    if gcd(params.a, params.b) != 1:
        return False
    mixed = params.a * params.beta - params.b * params.alpha
    return gcd(params.k, params.ell, abs(mixed)) == 1


def twist_count(a: int, b: int, k: int, ell: int) -> int:
    """The number of twists (alpha, beta) making the (a, b, k, ell) surface primitive.

    For coprime heights this is k*ell*phi(d)/d with d = gcd(k, ell),
    independent of a and b.
    """
    if min(a, b, k, ell) < 1:
        raise ValueError("all parameters must be >= 1")
    if gcd(a, b) != 1:
        raise ValueError(f"heights must be coprime, got gcd({a}, {b}) != 1")
    d = gcd(k, ell)
    return k * ell * euler_phi(d) // d


def lattice_generates_z2(vectors) -> bool:
    """Whether the integer span of the given integer 2-vectors is all of Z^2.

    The span's index in Z^2 is the gcd of the 2x2 minors of the vectors (0
    when they have rank below 2), so the span is Z^2 exactly when that gcd
    is 1.  Every entry passes through math.gcd, which raises TypeError on a
    non-integer entry instead of truncating it, also when there is no minor.
    """
    vectors = list(vectors)
    for x, y in vectors:
        gcd(x, y)
    g = 0
    for (x1, y1), (x2, y2) in combinations(vectors, 2):
        g = gcd(g, x1 * y2 - x2 * y1)
    return g == 1
