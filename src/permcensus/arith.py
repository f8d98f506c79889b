"""Multiplicative arithmetic functions and their convolution algebra.

Everything is exact: functions return plain integers where the value is
an integer and fractions.Fraction otherwise.  Tabulated sequences
(ArithSeq) hold ints only: the Dirichlet convolution of two of them is
again integral, and so is the Dirichlet inverse, which is defined here
only for f(1) = +-1.
"""

from __future__ import annotations

import decimal
import operator
import struct
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from math import isqrt


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...), primes ascending."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def sigma_k(n: int, k: int) -> int:
    """Sum of the k-th powers of the positive divisors of n (k >= 0)."""
    if k < 0:
        raise ValueError(f"sigma_k expects k >= 0, got {k}")
    result = 1
    for p, e in factorize(n):
        if k == 0:
            result *= e + 1
        else:
            pk = p**k
            result *= (pk ** (e + 1) - 1) // (pk - 1)
    return result


def moebius(n: int) -> int:
    """The Moebius function: (-1)^(#prime factors) on squarefree n, else 0."""
    result = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        result = -result
    return result


def jordan_totient(n: int, k: int, factors: tuple | None = None) -> int:
    """J_k(n) = n^k * prod over primes p | n of (1 - p^-k), exactly (k >= 1).

    factors, when given, is factorize(n), so that a caller who needs J_k(n)
    for several k factorizes n once.
    """
    if k < 1:
        raise ValueError(f"jordan_totient expects k >= 1, got {k}")
    result = n**k
    for p, _ in factorize(n) if factors is None else factors:
        pk = p**k
        result = result // pk * (pk - 1)
    return result


def euler_phi(n: int) -> int:
    """Euler's totient (the k = 1 Jordan totient)."""
    return jordan_totient(n, 1)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending (simple sieve)."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(2, limit + 1) if flags[p]]


def sigma_table(bound: int, k: int = 1) -> list[int]:
    """sigma_k(i) for i in 0..bound as a new list (slot 0 holds 0), for k >= 0."""
    if k < 0:
        raise ValueError(f"sigma_table expects k >= 0, got {k}")
    return _multiplicative_table(bound, lambda p, pe, below: below + pe**k)


def jordan_table(bound: int, k: int) -> list[int]:
    """Jordan's totient J_k(i) for i in 0..bound as a new list (slot 0 holds 0), for k >= 1."""
    if k < 1:
        raise ValueError(f"jordan_table expects k >= 1, got {k}")
    return _multiplicative_table(bound, lambda p, pe, below: pe**k - (pe // p) ** k)


def _multiplicative_table(bound: int, at_prime_power: Callable[[int, int, int], int]) -> list[int]:
    """f(i) for i in 0..bound of a multiplicative f, as a new list (slot 0 holds 0).

    f(p^e) = at_prime_power(p, p^e, f(p^(e-1))) gives f at prime powers.
    With p the smallest prime factor of n and p^e the largest power of p
    dividing n, f(n) = f(p^e) f(n / p^e).  A smallest-prime-factor sieve
    gives p, and p^e follows from the entry of n / p.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    spf = _smallest_prime_factors(bound)
    table = [0, 1][: bound + 1]  # f(0) = 0 by convention, f(1) = 1
    prime_power = [1] * (bound + 1)  # the largest power of spf[n] dividing n
    for n in range(2, bound + 1):
        p = spf[n]
        rest = n // p
        pe = prime_power[n] = prime_power[rest] * p if spf[rest] == p else p
        if pe == n:
            table.append(at_prime_power(p, n, table[rest]))
        else:
            table.append(table[pe] * table[n // pe])
    return table


def _smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = the smallest prime dividing n, for 2 <= n <= limit (spf[1] = 1).

    A composite n with smallest prime p is at least p^2, so it lies in the
    slice of multiples of p from p^2; the primes are applied largest first,
    so the smallest one is written last.
    """
    spf = list(range(limit + 1))
    for p in reversed(primes_up_to(isqrt(limit))):
        spf[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    return spf


class ArithSeq(namedtuple("ArithSeq", "values")):
    """An integer arithmetic function eagerly tabulated on 1..bound, immutable.

    values[n] is the int f(n); slot 0 is unused padding so that indices
    match arguments.  Any value that is not an int raises TypeError.
    """

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]) -> "ArithSeq":
        if len(values) < 2:
            raise ValueError("ArithSeq needs at least the value at n = 1")
        if not all(isinstance(v, int) for v in values):
            raise TypeError("ArithSeq holds ints only")
        return super().__new__(cls, values)

    @classmethod
    def tabulate(cls, func: Callable[[int], int], bound: int) -> "ArithSeq":
        """Tabulate the integer-valued func on 1..bound."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        return cls((0, *map(func, range(1, bound + 1))))

    @property
    def bound(self) -> int:
        return len(self.values) - 1

    def pointwise(self, other: "ArithSeq") -> "ArithSeq":
        """The pointwise product (f.g)(n) = f(n) g(n)."""
        _check_same_bound(self, other)
        return ArithSeq((0, *map(operator.mul, self.values[1:], other.values[1:])))


def _check_same_bound(f: ArithSeq, g: ArithSeq) -> None:
    if f.bound != g.bound:
        raise ValueError(f"bound mismatch: {f.bound} vs {g.bound}")


def dirichlet_convolve(f: ArithSeq, g: ArithSeq) -> ArithSeq:
    """Dirichlet convolution (f*g)(n) = sum over d | n of f(d) g(n/d)."""
    _check_same_bound(f, g)
    n_max = f.bound
    out = [0] * (n_max + 1)
    fv, gv = f.values, g.values
    for d in range(1, n_max + 1):
        fd = fv[d]
        if not fd:
            continue
        for q, m in enumerate(range(d, n_max + 1, d), 1):
            out[m] += fd * gv[q]
    return ArithSeq(tuple(out))


def dirichlet_inverse(f: ArithSeq) -> ArithSeq:
    """The inverse of f under Dirichlet convolution; requires f(1) = +-1.

    Built by the recurrence g(1) = 1/f(1) and, for n > 1,
    g(n) = -(1/f(1)) * sum over proper divisors d of n of g(d) f(n/d).
    The sum reaching n is complete once every d < n is done, so each g(d)
    is added to the sums of its multiples as soon as it is known.  With
    f(1) = +-1, 1/f(1) = f(1), so the inverse is an integer sequence; any
    other f(1) raises ValueError.
    """
    lead = f.values[1]
    if lead not in (1, -1):
        raise ValueError(f"not invertible over the integers: f(1) = {lead}")
    n_max = f.bound
    fv = f.values
    acc = [0] * (n_max + 1)
    inv = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        gd = lead if d == 1 else -acc[d] * lead
        inv[d] = gd
        if not gd:
            continue
        for q, m in enumerate(range(2 * d, n_max + 1, d), 2):
            acc[m] += gd * fv[q]
    return ArithSeq(tuple(inv))


def series_product(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Coefficients 0..len(f)-1 of the product of two power series, exactly.

    f and g hold the coefficients of equal-length series with non-negative
    integer entries.  Each is packed by one %-format call into one decimal
    integer, one zero-padded slot of `width` digits per coefficient with
    coefficient 0 in the top slot, and the two are multiplied once (once
    packed when g is f); libmpdec multiplies operands of this size by a
    number-theoretic transform.  Of the 2 len(f) - 1 slots of the result,
    coefficient k of the product lies in slot k from the top, so its first
    len(f) slots are the wanted coefficients in order, and one
    struct.unpack_from splits them.
    """
    if len(f) != len(g):
        raise ValueError(f"series lengths differ: {len(f)} vs {len(g)}")
    if not f:
        return []
    if min(f) < 0 or min(g) < 0:
        raise ValueError("series_product needs non-negative coefficients")
    # Every product coefficient is a sum of at most len(f) terms f[i] g[k-i],
    # so it is at most max(f) max(g) len(f) < 10^width: it fits in its slot
    # and never carries into the next one.
    length = len(f)
    width = len(str(max(f) * max(g) * length))
    slots = f"%0{width}d" * length
    packed_f = decimal.Decimal(slots % tuple(f))
    packed_g = packed_f if g is f else decimal.Decimal(slots % tuple(g))
    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              traps=[decimal.Inexact, decimal.Rounded])
    digits = str(context.multiply(packed_f, packed_g)).rjust((2 * length - 1) * width, "0")
    return list(map(int, struct.unpack_from(f"{width}s" * length, digits.encode())))


def ramanujan_rhs(n: int, order: str) -> int:
    """Closed form for the additive self-convolutions of divisor sums.

    order "deg1" gives the value of sum_{0<k<n} sigma(k) sigma(n-k):
        5/12 sigma_3(n) + 1/12 sigma(n) - 1/2 n sigma(n)
    order "deg3" gives sum_{0<k<n} sigma(k) sigma_3(n-k):
        7/80 sigma_5(n) + 1/24 sigma_3(n) - 1/240 sigma(n) - 1/8 n sigma_3(n)
    Both are computed as integer numerators over 12 and 240.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _ramanujan_from_sigmas(n, order, sigma_k(n, 1), sigma_k(n, 3), sigma_k(n, 5))


def _ramanujan_from_sigmas(n: int, order: str, sig1: int, sig3: int, sig5: int) -> int:
    """ramanujan_rhs(n, order) from sigma_1(n), sigma_3(n) and sigma_5(n)."""
    if order == "deg1":
        num, den = 5 * sig3 + sig1 - 6 * n * sig1, 12
    elif order == "deg3":
        num, den = 21 * sig5 + 10 * sig3 - sig1 - 30 * n * sig3, 240
    else:
        raise ValueError(f"unknown order {order!r}; expected 'deg1' or 'deg3'")
    if num % den:
        raise ArithmeticError(f"ramanujan_rhs({n}, {order!r}) is not an integer")
    return num // den


def moebius_scaled_divisor_sum(n: int, k: int) -> Fraction:
    """sum over d | n of mu(d) / d^k, equal to prod over p | n of (1 - p^-k).

    Computed as one Fraction: (sum over d | n of mu(d) (n/d)^k) / n^k.
    Only the squarefree d contribute, so the sum runs over the products d
    of distinct primes of n, each with the sign (-1)^(number of primes).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    signed = [(1, 1)]
    for p, _ in factorize(n):
        signed += [(d * p, -sign) for d, sign in signed]
    return Fraction(sum(sign * (n // d) ** k for d, sign in signed), n**k)
