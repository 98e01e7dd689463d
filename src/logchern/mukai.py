"""Mukai vectors of Schur bundles on a K3 surface with Picard group Z*H.

Only the arithmetic of the displayed vector is implemented.  On a K3 the
Mukai vector of E is v(E) = (r, c_1, ch_2 + r).  For v(E) = (r, c, s) with
c_1(E) = c*H and H^2 = 2d, v(S^alpha E) = (r_a, ch_1, ch_2 + r_a), where
r_a, ch_1 and ch_2 are the Schur table's rows (``SchurCoefficients.table``)
under

    e1 -> c*H,   e1^2 -> 2d c^2,   e2 -> s - r.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from logchern.formulas import schur_coefficients
from logchern.ring import rat


class MukaiVector:
    """(rank, c, s) on a K3 with Pic = Z*H and H^2 = 2d; s integral for sheaves.

    Instances are never mutated; ``==`` and ``hash`` compare all four fields.
    """

    __slots__ = ("r", "c", "s", "d")

    def __init__(self, r: int, c: int, s: Fraction, d: int):
        if r <= 0:
            raise ValueError("rank must be positive")
        if d <= 0:
            raise ValueError("need H^2 = 2d with d positive")
        self.r = r
        self.c = c
        self.s = rat(s)
        self.d = d

    def _key(self) -> tuple:
        return (self.r, self.c, self.s, self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, MukaiVector) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        s = self.s if self.s.denominator != 1 else self.s.numerator
        return f"({self.r}, {self.c}*H, {s})"


def mukai_schur(v: MukaiVector, alpha) -> MukaiVector:
    """Mukai vector of S^alpha E from v(E), read off the Schur table's ch_1, ch_2."""
    ch = schur_coefficients(alpha, v.r).table(2)
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
