"""Mukai vectors of Schur bundles on a K3 surface with Picard group Z*H.

Only the arithmetic of the displayed vector is implemented.  On a K3 the
Mukai vector of E is v(E) = (r, c_1, ch_2 + r).  For v(E) = (r, c, s) with
c_1(E) = c*H and H^2 = 2d, v(S^alpha E) = (r_a, ch_1, ch_2 + r_a), where
r_a, ch_1 and ch_2 are the Schur table's rows (``schur_ch3`` through degree
2, which at r = 1 has dt2 = 0) under

    e1 -> c*H,   e1^2 -> 2d c^2,   e2 -> s - r.

At r = 1 the table has no e2 term, so s cannot enter: a rank-1 bundle is a
line bundle L with c_1(L) = c*H, whose vector is (1, c, c^2 d + 1), and
``mukai_schur`` refuses any other s there.

A ``MukaiVector`` is the namedtuple (r, c, s, d), with s a Fraction: immutable
by type, and equal to (and hashed as) the plain tuple of its four fields.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from logchern.formulas import schur_ch3
from logchern.ring import positive_rank, rat


class MukaiVector(namedtuple("MukaiVector", "r c s d")):
    """(rank, c, s) on a K3 with Pic = Z*H and H^2 = 2d; s integral for sheaves."""

    __slots__ = ()

    def __new__(cls, r: int, c: int, s: Fraction, d: int):
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (r, c, d)):
            raise ValueError(f"Mukai vector r, c and d must be integers: {(r, c, d)}")
        positive_rank(r)
        if d <= 0:
            raise ValueError("need H^2 = 2d with d positive")
        return super().__new__(cls, r, c, rat(s), d)

    def __str__(self) -> str:
        s = self.s if self.s.denominator != 1 else self.s.numerator
        return f"({self.r}, {self.c}*H, {s})"


def mukai_schur(v: MukaiVector, alpha) -> MukaiVector:
    """Mukai vector of S^alpha E from v(E), read off the Schur table's ch_1, ch_2."""
    if v.r == 1 and v.s != v.c**2 * v.d + 1:
        raise ValueError("a rank-1 Mukai vector (1, c, s) is a line bundle's: s must be c^2 d + 1")
    ch = schur_ch3(alpha, v.r, 2)
    ra = int(ch.constant())
    s_new = (
        ch.coefficient((2, 0)) * 2 * v.d * v.c**2
        + ch.coefficient((0, 1)) * (v.s - v.r)
        + ra
    )
    # the e1 coefficient |alpha| r_a/r is c_1(S^alpha E)/c_1(E), an integer
    return MukaiVector(ra, int(ch.coefficient((1, 0))) * v.c, s_new, v.d)


def is_primitive(v: MukaiVector) -> bool:
    """gcd(r, c, s) == 1; requires an integral vector."""
    if v.s.denominator != 1:
        raise ValueError(f"Mukai vector {v} is not integral")
    return gcd(v.r, gcd(abs(v.c), abs(v.s.numerator))) == 1
