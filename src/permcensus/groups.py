"""Permutation groups given by generators: orbits, primitivity, order, classification.

A group is the tuple of its generators, and each generator is an image
tuple as in perm: entry x - 1 is the image of the point x, points are
1-based, and a perm.Permutation (the validated parse/print type) serves
as well as a plain tuple.  generated() builds such a group and checks
it; the routines here read the group's degree off its first generator.
The 3-cycle certificate of jordan_route comes from perm.three_cycle.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import factorial

from permcensus.perm import compose, inverse, signature, three_cycle

ALT = "alt"
SYM = "sym"
NEITHER = "neither"

# group_order refuses larger degrees: the chain is meant for desk-scale checks.
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


def orbit(group: Group, x: int) -> frozenset[int]:
    """The orbit of the point x under the group."""
    n = len(group[0])
    if not 1 <= x <= n:
        raise ValueError(f"point {x} outside 1..{n}")
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for p in frontier:
            for img in group:
                q = img[p - 1]
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


def is_transitive(group: Group) -> bool:
    """Whether the group has a single orbit on 1..n."""
    return len(orbit(group, 1)) == len(group[0])


def _merge_closure(images: Group, parent: list[int], x: int, y: int) -> int:
    """Merge the classes of x and y, then close the union-find under the generators.

    Whenever the classes of u and v merge, the classes of g(u) and g(v) are
    merged too, for every generator image g.  Returns the number of merges;
    it stops as soon as len(parent) - 2 merges have made one class of 1..n.
    The class of x is then the smallest block containing x and y.
    """
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
    return merges


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
    return all(_merge_closure(group, list(range(n + 1)), 1, y) == n - 1
               for y in range(2, n + 1))


def group_order(group: Group) -> int:
    """Exact order of the group via a stabilizer chain with base 1, 2, ..., n.

    Deterministic Schreier-Sims: each level i holds the generators fixing
    the points 1..i and a transversal for the orbit of i+1; new Schreier
    generators are sifted down the chain until everything stabilizes.
    The order is the product of the orbit sizes.  Degrees above
    MAX_ORDER_DEGREE are refused.
    """
    n = len(group[0])
    if n > MAX_ORDER_DEGREE:
        raise ValueError(f"degree {n} exceeds the cap {MAX_ORDER_DEGREE}")
    ident = tuple(range(1, n + 1))
    level_gens: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    transversals: list[dict[int, tuple[int, ...]]] = [{i + 1: ident} for i in range(n)]

    def rebuild_orbit(i: int) -> None:
        base = i + 1
        trans = {base: ident}
        frontier = [base]
        while frontier:
            nxt = []
            for pt in frontier:
                rep = trans[pt]
                for g in level_gens[i]:
                    img = g[pt - 1]
                    if img not in trans:
                        trans[img] = compose(g, rep)
                        nxt.append(img)
            frontier = nxt
        transversals[i] = trans

    def sift_from(p: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        """Strip p through levels >= start; (residue, level it got stuck at)."""
        residue = p
        i = start
        while i < n:
            x = residue[i]
            if x == i + 1:
                i += 1
                continue
            trans = transversals[i]
            if x not in trans:
                return residue, i
            residue = compose(inverse(trans[x]), residue)
            i += 1
        return residue, n

    def complete(i: int) -> None:
        """Re-close level i: every Schreier generator must sift to the identity.

        A residue stuck at a deeper level fixes the base points 1..stuck,
        so it joins the generator lists of every level in between; those
        levels are then re-closed deepest-first before the sweep goes on.
        """
        rebuild_orbit(i)
        trans = transversals[i]
        for pt in sorted(trans):
            rep = trans[pt]
            for g in level_gens[i]:
                target = trans[g[pt - 1]]
                schreier = compose(inverse(target), compose(g, rep))
                if schreier == ident:
                    continue
                residue, stuck = sift_from(schreier, i + 1)
                if stuck == n:
                    continue
                for j in range(i + 1, stuck + 1):
                    level_gens[j].append(residue)
                for j in range(stuck, i, -1):
                    complete(j)

    for g in group:
        if g != ident:
            level_gens[0].append(g)
    complete(0)

    order = 1
    for trans in transversals:
        order *= len(trans)
    return order


def element_closure(group: Group) -> frozenset[tuple[int, ...]]:
    """Every element of the group by breadth-first closure (small degrees only)."""
    seen = {tuple(range(1, len(group[0]) + 1))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in group:
                q = compose(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


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
    if _merge_closure((s, t), list(range(n + 1)), cycle[0], cycle[1]) != n - 1:
        return NEITHER
    return ALT if signature(s) == 1 and signature(t) == 1 else SYM


def order_route(s: Sequence[int], t: Sequence[int]) -> str:
    """Classify <s, t> purely by its order: n! -> sym, n!/2 -> alt."""
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
    commutators); the stabilizer-chain order decides the rest.
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
