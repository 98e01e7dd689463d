"""Mukai vectors of Schur bundles on a K3 surface with Picard group Z*H.

Only the arithmetic of the displayed vector is implemented: for v(E) =
(r, c, s) with c_1(E) = c*H and H^2 = 2d,

    v(S^alpha E) = ( r_a,
                     |alpha| (r_a/r) c,
                     ((|alpha|^2 - dt2)/r) (r_a/r) c^2 d
                       + dt2 (s - r) (r_a/r) + r_a )

where dt2 is the normalized quadratic eigenvalue and r_a the Schur rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from logchern.formulas import schur_coefficients
from logchern.ring import rat


@dataclass(frozen=True)
class MukaiVector:
    """(rank, c, s) on a K3 with Pic = Z*H and H^2 = 2d; s integral for sheaves."""

    r: int
    c: int
    s: Fraction
    d: int

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("rank must be positive")
        if self.d <= 0:
            raise ValueError("need H^2 = 2d with d positive")
        object.__setattr__(self, "s", rat(self.s))

    def __str__(self) -> str:
        s = self.s if self.s.denominator != 1 else self.s.numerator
        return f"({self.r}, {self.c}*H, {s})"


def mukai_schur(v: MukaiVector, alpha) -> MukaiVector:
    """Mukai vector of S^alpha E from v(E); c^2/2 is read as c^2 * d."""
    sc = schur_coefficients(alpha, v.r)
    r, ra, dt2 = v.r, sc.r_alpha, sc.delta2_tilde
    weight = Fraction(ra, r)
    size = sc.alpha.size
    c_new = size * weight * v.c
    s_new = (
        Fraction(size * size - dt2, r) * weight * v.c**2 * v.d
        + dt2 * (v.s - r) * weight
        + ra
    )
    if c_new.denominator != 1:
        raise ArithmeticError(f"non-integral first Chern component {c_new}")
    return MukaiVector(ra, int(c_new), s_new, v.d)


def is_primitive(v: MukaiVector) -> bool:
    """gcd(r, c, s) == 1; requires an integral vector."""
    if v.s.denominator != 1:
        raise ValueError(f"Mukai vector {v} is not integral")
    return gcd(v.r, gcd(abs(v.c), abs(v.s.numerator))) == 1
