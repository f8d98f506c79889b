"""Exact counting of permutation pairs whose commutator is a 3-cycle.

For each degree n the package computes the sizes of six families of
ordered pairs (s, t) in S_n x S_n: all pairs whose commutator [s, t] =
s t s^-1 t^-1 is a 3-cycle, the subfamilies where s is an n-cycle or an
arbitrary cycle, and the further subfamilies whose pair generates the
alternating or symmetric group.  Every closed-form count is exact
(integer / Fraction arithmetic throughout) and is cross-checked against
brute-force enumeration at small degrees.

Importing the package loads no submodule: `census` loads only what its rows
need, and `from permcensus import *` imports every module in __all__.
"""

__all__ = [
    "arith",
    "census",
    "characters",
    "cli",
    "groups",
    "oracle",
    "origami",
    "partitions",
    "perm",
    "verify",
]
