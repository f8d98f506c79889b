"""Permutation groups given by generators: orbits, primitivity, order, classification.

A group is the tuple of its generators, and each generator is an image
tuple as in perm: entry x - 1 is the image of the point x, and points
are 1-based.  generated() builds such a group and checks it; the
routines here read the group's degree off its first generator.
The 3-cycle certificate of jordan_route comes from perm.three_cycle;
group_order builds Knuth's Sims table, up to degree MAX_ORDER_DEGREE.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import factorial, prod

from permcensus.perm import compose, inverse, signature, three_cycle

ALT = "alt"
SYM = "sym"
NEITHER = "neither"

# group_order refuses larger degrees (its Sims table is for desk-scale checks),
# and so does order_route, the fallback of generates_alt_or_sym.
MAX_ORDER_DEGREE = 10

Group = tuple[Sequence[int], ...]


def generated(*gens: Sequence[int]) -> Group:
    """The group generated by the given (at least one) permutations of one degree."""
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    for g in gens:
        if len(g) != n:
            raise ValueError(f"generator degree {len(g)} does not match group degree {n}")
    return gens


def _closure(start, group: Group, step) -> frozenset:
    """Everything reached from start by step(g, x) for the generators g, breadth first."""
    seen = {start}
    queue = [start]  # the for loop reads queue as it grows, one visit per element
    for x in queue:
        for g in group:
            y = step(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def orbit(group: Group, x: int) -> frozenset[int]:
    """The orbit of the point x under the group."""
    n = len(group[0])
    if not 1 <= x <= n:
        raise ValueError(f"point {x} outside 1..{n}")
    return _closure(x, group, lambda g, p: g[p - 1])


def is_transitive(group: Group) -> bool:
    """Whether the group has a single orbit on 1..n."""
    return len(orbit(group, 1)) == len(group[0])


def _merge_closure(images: Group, x: int, y: int) -> tuple[int, list[int]]:
    """Merge x and y in a fresh union-find on 1..n, then close it under the generators.

    Whenever the classes of u and v merge, the classes of g(u) and g(v) are
    merged too, for every generator image g of degree n.  Returns the number
    of merges and the union-find parent list (slot 0 unused); it stops as
    soon as n - 1 merges have made one class of 1..n.  The class of x is
    then the smallest block containing x and y.
    """
    parent = list(range(len(images[0]) + 1))
    full = len(parent) - 2
    merges = 0
    queue = [(x, y)]
    while queue:
        u, v = queue.pop()
        while parent[u] != u:  # find with path halving; the hot loop of verify
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            continue
        parent[v] = u
        merges += 1
        if merges == full:
            break
        for img in images:
            queue.append((img[u - 1], img[v - 1]))
    return merges, parent


def is_primitive(group: Group) -> bool:
    """Transitive with no nontrivial blocks (degree >= 2).

    It suffices to check the blocks generated by {1, y}: a nontrivial
    block through any pair maps to one through the point 1 by transitivity.
    Each such block is the whole set exactly when its closure makes n - 1
    merges.
    """
    n = len(group[0])
    if n < 2:
        raise ValueError(f"primitivity needs degree >= 2, got {n}")
    if not is_transitive(group):
        return False
    return all(_merge_closure(group, 1, y)[0] == n - 1 for y in range(2, n + 1))


def group_order(group: Group) -> int:
    """Exact order of the group from Knuth's Sims table with base 1, 2, ..., n.

    Level k holds the generators added there, which fix 1..k, and a
    transversal: for each image x of k + 1 under them, one element taking
    k + 1 to x.  add_generator(k, g) ignores a g that sifts through the
    levels from k on, and otherwise records g and extends level k by g
    times each entry.  extend(k, g) files g under its image of k + 1 and
    extends by each level-k generator times g, or, when that image is
    filed, adds the filed entry's inverse times g to level k + 1 (D. E.
    Knuth, Combinatorica 11, 1991).  The order is the product of the
    transversal sizes.  Degrees above MAX_ORDER_DEGREE are refused.
    """
    n = len(group[0])
    if n > MAX_ORDER_DEGREE:
        raise ValueError(f"degree {n} exceeds the cap {MAX_ORDER_DEGREE}")
    ident = tuple(range(1, n + 1))
    gens: list[list[Sequence[int]]] = [[] for _ in range(n)]
    table: list[dict[int, tuple[int, ...]]] = [{k + 1: ident} for k in range(n)]

    def add_generator(k: int, g: Sequence[int]) -> None:
        residue = g
        for level in range(k, n):
            rep = table[level].get(residue[level])
            if rep is None:
                break
            residue = compose(inverse(rep), residue)
        else:
            return
        gens[k].append(g)
        for rep in list(table[k].values()):
            extend(k, compose(g, rep))

    def extend(k: int, g: tuple[int, ...]) -> None:
        rep = table[k].get(g[k])
        if rep is not None:
            add_generator(k + 1, compose(inverse(rep), g))
            return
        table[k][g[k]] = g
        for s in gens[k]:
            extend(k, compose(s, g))

    for g in group:
        add_generator(0, g)
    return prod(map(len, table))


def element_closure(group: Group) -> frozenset[tuple[int, ...]]:
    """Every element of the group by breadth-first closure (small degrees only)."""
    return _closure(tuple(range(1, len(group[0]) + 1)), group, compose)


def jordan_route(s: Sequence[int], t: Sequence[int]) -> str | None:
    """Classify <s, t> via a 3-cycle certificate plus primitivity.

    A primitive group containing a 3-cycle contains the alternating
    group; it is the full symmetric group exactly when some generator is
    odd.  Returns None when the route has no certificate ([s, t] is not
    a 3-cycle) and the group is transitive and primitive, in which case
    the order route must decide.

    When [s, t] is a 3-cycle (a b c), one closure decides primitivity.
    Let B be a nontrivial block containing a, where a is any point of the
    3-cycle (the argument does not depend on which).  If (a b c) moved B
    off itself, B and its image would be disjoint; every point of B
    outside {a, b, c} is fixed and would lie in both, so B would lie
    inside {a, b, c}, and it could hold neither b (the image of a) nor c
    (whose image is a), so B = {a}.  Hence (a b c) fixes B, and B contains
    b.  So <s, t> is primitive exactly when the smallest block containing
    {a, b} is the whole set, that is when the closure from (a, b) makes
    n - 1 merges.  Those merges also show transitivity, because the
    closure never leaves the orbit of a.  perm.three_cycle gives a and b
    without building the commutator.
    """
    n = _common_degree(s, t)
    cycle = three_cycle(s, t)
    if cycle is None:
        return None if is_primitive((s, t)) else NEITHER
    if _merge_closure((s, t), cycle[0], cycle[1])[0] != n - 1:
        return NEITHER
    return ALT if signature(s) == 1 and signature(t) == 1 else SYM


def order_route(s: Sequence[int], t: Sequence[int]) -> str:
    """Classify <s, t> purely by its order: n! -> sym, n!/2 -> alt.

    Degree must be at least 3 and at most MAX_ORDER_DEGREE (group_order's cap).
    """
    n = _common_degree(s, t)
    order = group_order((s, t))
    full = factorial(n)
    if order == full:
        return SYM
    if 2 * order == full:
        return ALT
    return NEITHER


def generates_alt_or_sym(s: Sequence[int], t: Sequence[int]) -> str:
    """Whether <s, t> is the alternating group, the symmetric group, or neither.

    Degree must be at least 3.  The 3-cycle certificate route answers
    almost every input arising here (the pairs of interest have 3-cycle
    commutators); the order from group_order decides the rest, so a
    primitive pair without one raises ValueError above MAX_ORDER_DEGREE.
    """
    answer = jordan_route(s, t)
    if answer is not None:
        return answer
    return order_route(s, t)


def _common_degree(s: Sequence[int], t: Sequence[int]) -> int:
    if len(s) != len(t):
        raise ValueError(f"degree mismatch: {len(s)} vs {len(t)}")
    if len(s) < 3:
        raise ValueError(f"classification needs degree >= 3, got {len(s)}")
    return len(s)
