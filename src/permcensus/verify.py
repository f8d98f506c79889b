"""The `verify` subcommand: independent checks of the closed forms.

Each suite yields a (label, passed) pair per check; cmd_verify collects
the failed labels, times each suite and prints:

  formulas    the census rows vs brute-force enumeration, every family, 3..--max-n
  identities  Dirichlet convolution chains, inverses, Euler products, t = sigma*A
              and the additive convolution sums of divisor sums and partitions
  origami     cylinder diagram round trips, primitivity criteria, twist counts
  characters  the Frobenius character sum vs the census b, squared dimensions
  bounds      the psi sandwich, count bounds and divisor-sum inequalities

The command line loads this module only for `permcensus verify`, so that
`census` never imports the oracle and the group routines.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from itertools import repeat
from math import factorial, gcd

from permcensus import arith, census, characters, groups, oracle, origami, partitions
from permcensus.cli import warn


_Checks = Iterator[tuple[str, bool]]


def _suite_formulas(max_n: int) -> _Checks:
    """census_row(n) vs brute-force enumeration, 3..max_n; family A1 is the row's field a1."""
    for n in range(3, max_n + 1):
        fact = factorial(n)
        counts = oracle.brute_counts(n)
        row = census.census_row(n)
        for family in oracle.FAMILIES:
            brute = counts[family]
            if brute % fact:
                yield f"{family}({n}) brute count not divisible by n!", False
                continue
            yield f"{family}({n}) formula vs oracle", getattr(row, family.lower()) == brute // fact


def _suite_identities(max_n: int) -> _Checks:
    """Convolution identity chains, inverse pairs, and closed-form checks."""
    bound = 500
    seqs = {
        "one": arith.ArithSeq.tabulate(lambda n: 1, bound),
        "id1": arith.ArithSeq.tabulate(lambda n: n, bound),
        "id2": arith.ArithSeq.tabulate(lambda n: n * n, bound),
        "id3": arith.ArithSeq.tabulate(lambda n: n**3, bound),
        "mu": arith.ArithSeq.tabulate(arith.moebius, bound),
        "eps": arith.ArithSeq.tabulate(lambda n: int(n == 1), bound),
        # Off the sieves (census.rows reads the sigma and j2 ones); slot 0 is ArithSeq's padding.
        "tau": arith.ArithSeq(tuple(arith.sigma_table(bound, 0))),
        "sigma1": arith.ArithSeq(tuple(arith.sigma_table(bound, 1))),
        "sigma3": arith.ArithSeq(tuple(arith.sigma_table(bound, 3))),
        "phi": arith.ArithSeq(tuple(arith.totient_table(bound))),
        "j2": arith.ArithSeq(tuple(arith.jordan_table(bound, 2))),
        "j3": arith.ArithSeq(tuple(arith.jordan_table(bound, 3))),
    }
    conv = arith.dirichlet_convolve
    chains = [
        ("one*one = tau", conv(seqs["one"], seqs["one"]), seqs["tau"]),
        ("one*id1 = sigma1", conv(seqs["one"], seqs["id1"]), seqs["sigma1"]),
        ("one*id3 = sigma3", conv(seqs["one"], seqs["id3"]), seqs["sigma3"]),
        ("one*mu = eps", conv(seqs["one"], seqs["mu"]), seqs["eps"]),
        ("one*phi = id1", conv(seqs["one"], seqs["phi"]), seqs["id1"]),
        ("one*j2 = id2", conv(seqs["one"], seqs["j2"]), seqs["id2"]),
        ("one*j3 = id3", conv(seqs["one"], seqs["j3"]), seqs["id3"]),
        ("mu*sigma1 = id1", conv(seqs["mu"], seqs["sigma1"]), seqs["id1"]),
        ("id2*mu = j2", conv(seqs["id2"], seqs["mu"]), seqs["j2"]),
        ("tau*phi = sigma1", conv(seqs["tau"], seqs["phi"]), seqs["sigma1"]),
    ]
    for label, got, want in chains:
        yield label, got.values == want.values
    inv_sigma = arith.dirichlet_inverse(seqs["sigma1"])
    back = conv(seqs["sigma1"], inv_sigma)
    yield "sigma1 * inverse(sigma1) = eps", back.values == seqs["eps"].values
    # prod over p | n of (1 - p^-k) = J_k(n) / n^k, with J_0 = eps, J_1 = phi and J_2 = j2;
    # each Moebius sum is compared with it cross-multiplied, in integers.
    jordan = seqs["eps"].values, seqs["phi"].values, seqs["j2"].values
    sums = ((n, k, arith.moebius_scaled_divisor_sum(n, k))
            for n in range(1, bound + 1) for k in (0, 1, 2))
    yield ("moebius scaled divisor sums match Euler products (k <= 2, n <= 500)",
           all(s.numerator * n**k == jordan[k][n] * s.denominator for n, k, s in sums))
    # Each additive convolution sum over 0 < k < n, for every n in the range,
    # is one coefficient of a single series product (slot 0 of sigma is 0, so
    # coefficient 0 and the closed form at n = 0 are both 0).
    ram_bound = 5000
    sig1, sig3, sig5 = (arith.sigma_table(ram_bound, k) for k in (1, 3, 5))
    for order, other in (("deg1", sig1), ("deg3", sig3)):
        try:
            closed = map(arith._ramanujan_from_sigmas, range(ram_bound + 1), repeat(order),
                         sig1, sig3, sig5)
            holds = arith.series_product(sig1, other) == list(closed)
        except ArithmeticError:  # a closed form that is not an integer is wrong
            holds = False
        yield f"sigma convolution closed form {order} (n <= {ram_bound})", holds
    # t = sigma1*A: a surface in H(2) with n squares is a primitive one with d | n
    # squares composed with one of the sigma(n/d) sublattices of index n/d.
    try:
        gen = arith.ArithSeq((0, 0, 0, *map(census.count_a, range(3, ram_bound + 1))))
        holds = census._t_table(sig1) == conv(arith.ArithSeq(tuple(sig1)), gen).values
    except ArithmeticError:  # a count or a t(k) that is not an integer is wrong
        holds = False
    yield f"t = sigma1*A (n <= {ram_bound})", holds
    # With P(0) = 1 the product's coefficient n also holds the k = n term
    # sigma(n), so sum_{0<k<n} sigma(k) P(n-k) = n P(n) - sigma(n) reads
    # coefficient n = n P(n).
    part_bound = 2000
    table = partitions.partition_table(part_bound)
    sigma_p = arith.series_product(sig1[: part_bound + 1], table)
    yield (f"partition convolution identity (n <= {part_bound})",
           all(sigma_p[n] == n * table[n] for n in range(1, part_bound + 1)))


def _suite_origami(max_n: int) -> _Checks:
    """Build/classify round trips and primitivity criterion agreement."""
    one_trip = one_primitive = two_trip = two_primitive = True
    for n in range(3, 11):
        for params in origami.diagrams(n):
            if isinstance(params, origami.OneCylParams):
                s, t = origami.build_one_cylinder(params)
                one_trip &= origami.classify_origami(s, t) == params
                one_primitive &= (origami.one_cylinder_primitive(params)
                                  == groups.is_primitive(groups.generated(s, t)))
            else:
                s, t = origami.build_two_cylinder(params)
                two_trip &= origami.classify_origami(s, t) == params
                if n <= 9:
                    two_primitive &= (origami.two_cylinder_primitive(params)
                                      == groups.is_primitive(groups.generated(s, t)))
    yield "one-cylinder round trip (n <= 10)", one_trip
    yield "two-cylinder round trip (n <= 10)", two_trip
    yield "one-cylinder primitivity criterion (n <= 10)", one_primitive
    yield "two-cylinder primitivity criterion (n <= 9)", two_primitive
    yield "twist count closed form (k, ell <= 12)", all(
        origami.twist_count(a, b, k, ell) == oracle.brute_twist_count(a, b, k, ell)
        for a, b in ((1, 1), (1, 2), (2, 3)) for k in range(1, 13) for ell in range(1, 13))
    yield "lattice span matches gcd criterion (a,b,k,ell <= 6)", all(
        origami.lattice_generates_z2(((alpha, a), (beta, b), (k, 0), (ell, 0)))
        == (gcd(k, ell, a * beta - b * alpha) == 1)
        for a in range(1, 7) for b in range(1, 7) if gcd(a, b) == 1
        for k in range(1, 7) for ell in range(1, 7)
        for alpha in range(k) for beta in range(ell))


def _suite_characters(max_n: int) -> _Checks:
    """Character-based pair counts against the closed-form counts."""
    for n in range(3, max_n + 1):
        class_size = n * (n - 1) * (n - 2) // 3
        frob = characters.frobenius_threecycle_sum(n)
        yield (f"character sum counts all pairs at n = {n}",
               class_size * frob == census.census_row(n).b)
        dims_sq = sum(
            characters.dimension(lam) ** 2 for lam in characters.young_diagrams(n)
        )
        yield f"sum of squared dimensions = n! at n = {n}", dims_sq == factorial(n)


def _suite_bounds(max_n: int) -> _Checks:
    """Inequality sweeps: psi sandwich, count bounds, divisor-sum bounds."""
    report = census.bound_report(500)
    for name, bad in report.strict_failures.items():
        yield f"bound {name} (n <= 500)", not bad
    # The for-large-n bounds are only sampled; say on stderr where they take hold.
    last = ", ".join(f"{name} {bad[-1] if bad else 'none'}"
                     for name, bad in report.epsilon_failures.items())
    warn(f"bounds: last degree n <= 500 failing each for-large-n bound at "
         f"eps = {report.epsilon}: {last}")
    sig1 = arith.sigma_table(2000)
    sig3 = arith.sigma_table(2000, 3)
    phi = arith.totient_table(2000)
    yield ("sigma_3 < n^2 sigma (n <= 2000)",
           all(sig3[n] < n * n * sig1[n] for n in range(2, 2001)))
    yield ("sigma_3 > n phi(n) sigma (n <= 2000)",
           all(sig3[n] > n * phi[n] * sig1[n] for n in range(2, 2001)))


_SUITES = {
    "formulas": _suite_formulas,
    "identities": _suite_identities,
    "origami": _suite_origami,
    "characters": _suite_characters,
    "bounds": _suite_bounds,
}


def cmd_verify(args) -> int:
    """Run the chosen suites; the command line has already checked the arguments.

    stdout gets one status line per suite (and the --json summary);
    stderr gets a line before each suite and its wall time after it, and
    the bounds suite adds where its for-large-n bounds last fail.
    """
    results = {}
    for name in dict.fromkeys(args.suites):  # each suite once, in first-seen order
        warn(f"running suite {name} ...")
        start = time.perf_counter()
        failures = [label for label, passed in _SUITES[name](args.max_n) if not passed]
        warn(f"suite {name} took {time.perf_counter() - start:.3f} s")
        results[name] = failures
        status = "ok" if not failures else f"{len(failures)} failure(s)"
        print(f"suite {name}: {status}")
        for failure in failures:
            print(f"  FAIL {failure}")
    if args.json:
        print(json.dumps(
            {name: {"passed": not fails, "failures": fails}
             for name, fails in results.items()},
            separators=(",", ":"),
        ))
    return 0 if all(not fails for fails in results.values()) else 1
