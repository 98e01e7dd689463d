"""Truncated graded-commutative polynomial algebra over exact rationals.

Everything downstream computes in rings of this shape: a finite list of named
generators, each with a positive integer degree, and a global truncation
bound ``D`` above which all terms are discarded.  A polynomial is stored as
integer numerators over one positive denominator, reduced so that the
denominator and the numerators have no common factor -- there is no floating
point anywhere.  Sums, scalings and products work on the ints alone and
reduce once at the end; ``fractions.Fraction`` values appear only where a
coefficient is read or written one at a time (parsing, printing, the
constant term).  Each ring computes the weighted degree of an exponent vector
once and keeps it, and keeps a product table: for each pair of exponent
vectors that a product has met, their sum, or ``None`` when the sum lies
above the truncation.  Each entry is filled on its first lookup, and the
table holds at most one entry per pair of the ring's monomials, so a
product's inner loop is one dict lookup per pair of terms.  Terms are stored
unordered: the proportionality test pivots on any term, so only
``_ordered_items()`` sorts them, into the canonical printed order.

Values are immutable after construction and all operations are pure; a
ring's degree memo and product table only gain entries, each the one value
any thread would compute, so polynomials can be shared freely between
threads.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

# Patterns of PolyRing.parse, which only the claim table uses: re
# compiles each on its first use and keeps it in its own cache, so a command
# that parses no polynomial pays nothing for them.  Numbers are ASCII digits
# only; \d would also read other scripts' digits.
_NUM = r"[0-9]+(?:/[0-9]+)?"
_GEN = r"([A-Za-z_]\w*?)(?:\^([0-9]+))?$"
_TERM = r"[+-]?[^+-]+"


def rat(x) -> Fraction:
    """Coerce an int (not a bool), Fraction or ``num/den`` string to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _num_den(x) -> tuple[int, int]:
    """(numerator, positive denominator) of anything ``rat`` accepts."""
    if type(x) not in (int, Fraction):
        x = rat(x)
    return x.numerator, x.denominator


def root_generators(r: int) -> tuple[tuple[str, int], ...]:
    """r degree-1 generators a1..ar (Chern roots)."""
    return tuple((f"a{i}", 1) for i in range(1, r + 1))


def graded_generators(prefix: str, count: int) -> tuple[tuple[str, int], ...]:
    """Generators prefix1..prefixN where prefixK has degree K."""
    return tuple((f"{prefix}{k}", k) for k in range(1, count + 1))


class PolyRing:
    """Named generators with positive integer degrees and a truncation degree."""

    def __init__(self, gens: Iterable[tuple[str, int]], truncation: int):
        gens = tuple(gens)
        names = tuple(n for n, _ in gens)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for n, d in gens:
            if d < 1:
                raise ValueError(f"generator {n} must have degree >= 1")
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        self.names = names
        self.degrees = tuple(d for _, d in gens)
        self.truncation = truncation
        self._index = {n: i for i, n in enumerate(names)}
        self._zero_exp = (0,) * len(names)
        # weighted degree of each exponent vector seen so far, kept for the
        # monomials of degree <= truncation only, so it stays bounded
        self._wdeg: dict[tuple[int, ...], int] = {}
        # the product table, one _SumRow per left-hand exponent vector
        self._sums: dict[tuple[int, ...], _SumRow] = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.degrees == other.degrees
            and self.truncation == other.truncation
        )

    def __hash__(self) -> int:
        return hash((self.names, self.degrees, self.truncation))

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"PolyRing({gens}, D={self.truncation})"

    def index(self, name: str) -> int:
        return self._index[name]

    def wdeg(self, exps: tuple[int, ...]) -> int:
        d = self._wdeg.get(exps)
        if d is None:
            d = sum(map(mul, exps, self.degrees))
            if d <= self.truncation:
                self._wdeg[exps] = d
        return d

    def zero(self) -> GradedPoly:
        return GradedPoly(self, 1, {})

    def one(self) -> GradedPoly:
        return self.scalar(1)

    def scalar(self, c) -> GradedPoly:
        return self.monomial(self._zero_exp, c)

    def gen(self, name: str) -> GradedPoly:
        i = self.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return self.monomial(exps)

    def monomial(self, exps: Iterable[int], coeff=1) -> GradedPoly:
        exps = tuple(exps)
        if len(exps) != len(self.names) or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        if self.wdeg(exps) > self.truncation:
            raise ValueError("monomial exceeds the truncation degree")
        num, den = _num_den(coeff)
        return GradedPoly(self, den, {exps: num}) if num else self.zero()

    def from_terms(self, terms: Mapping[tuple[int, ...], Fraction]) -> GradedPoly:
        out = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            c = rat(c)
            if not c:
                continue
            if len(exps) != len(self.names) or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            if self.wdeg(exps) > self.truncation:
                raise ValueError("term exceeds the truncation degree")
            out[exps] = c
        den = lcm(*(c.denominator for c in out.values()))
        return _reduced(
            self, den, {e: c.numerator * (den // c.denominator) for e, c in out.items()}
        )

    def parse(self, text: str) -> GradedPoly:
        """Parse the canonical text form (spaces optional)."""
        s = text.replace(" ", "")
        if s in ("", "0"):
            return self.zero()
        terms: dict[tuple[int, ...], Fraction] = {}
        consumed = 0
        for m in re.finditer(_TERM, s):
            consumed += len(m.group(0))
            piece = m.group(0)
            sign = -1 if piece.startswith("-") else 1
            piece = piece.lstrip("+-")
            coeff = Fraction(sign)
            exps = [0] * len(self.names)
            for factor in piece.split("*"):
                if re.fullmatch(_NUM, factor):
                    coeff *= Fraction(factor)
                    continue
                gm = re.fullmatch(_GEN, factor)
                if not gm or gm.group(1) not in self._index:
                    raise ValueError(f"cannot parse term factor {factor!r}")
                e = int(gm.group(2)) if gm.group(2) else 1
                exps[self.index(gm.group(1))] += e
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        if consumed != len(s):
            raise ValueError(f"cannot parse polynomial {text!r}")
        return self.from_terms(terms)


class _SumRow(dict):
    """One row of a ring's product table: eb -> ea + eb, or None when that
    sum has weighted degree above the truncation, filled on first lookup."""

    __slots__ = ("ea", "limit", "wdeg")

    def __init__(self, ring: PolyRing, ea: tuple[int, ...]):
        self.ea = ea
        self.limit = ring.truncation - ring.wdeg(ea)
        self.wdeg = ring.wdeg

    def __missing__(self, eb: tuple[int, ...]) -> tuple[int, ...] | None:
        s = tuple(map(add, self.ea, eb)) if self.wdeg(eb) <= self.limit else None
        self[eb] = s
        return s


def _reduced(ring: PolyRing, den: int, terms: dict[tuple[int, ...], int]) -> GradedPoly:
    """The element sum(terms) / den, with den > 0 and no zero numerator,
    brought to canonical form by dividing out the common factor."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {e: n // g for e, n in terms.items()}
    return GradedPoly(ring, den, terms)


class GradedPoly:
    """Element of a PolyRing: integer numerators over one common denominator.

    ``terms`` maps exponent vectors to nonzero int numerators and ``den`` is
    a positive int; the coefficient of a monomial is ``terms[exps] / den``.
    Invariants: no stored term has weighted degree above the ring truncation,
    no stored numerator is zero, ``gcd(den, *terms.values()) == 1``, and zero
    is ``den == 1, terms == {}``.  So every value has exactly one
    representation, and ``==`` and ``hash`` compare ``(den, terms)`` as they
    are; an int or Fraction equals, and hashes as, its constant polynomial.
    Instances are never mutated; ``items()`` gives the coefficients as
    Fractions.
    """

    __slots__ = ("ring", "den", "terms")

    def __init__(self, ring: PolyRing, den: int, terms: dict[tuple[int, ...], int]):
        self.ring = ring
        self.den = den
        self.terms = terms

    # -- ring operations ---------------------------------------------------

    def _check(self, other: GradedPoly) -> None:
        # rings come from caches, so the identity test settles nearly all calls
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mixed generator sets or truncations")

    def _combine(self, other, sign: int) -> GradedPoly:
        """self + sign * other over the lcm of the two denominators; an int or
        Fraction other is a constant, as it is a scalar for ``*``."""
        if not isinstance(other, GradedPoly):
            other = self.ring.scalar(other)
        self._check(other)
        if not other.terms:
            return self
        da, db = self.den, other.den
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        out = dict(self.terms) if fa == 1 else {e: n * fa for e, n in self.terms.items()}
        for e, n in other.terms.items():
            s = out.get(e, 0) + n * fb
            if s:
                out[e] = s
            else:
                del out[e]
        return _reduced(self.ring, den, out)

    def __add__(self, other) -> GradedPoly:
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> GradedPoly:
        return self._combine(other, -1)

    def __rsub__(self, other) -> GradedPoly:
        return -self._combine(other, -1)

    def __neg__(self) -> GradedPoly:
        return GradedPoly(self.ring, self.den, {e: -n for e, n in self.terms.items()})

    def __mul__(self, other) -> GradedPoly:
        if not isinstance(other, GradedPoly):
            return self.scale(other)
        self._check(other)
        ring = self.ring
        sums = ring._sums
        b = other.terms.items()
        # with no constant term in other, a term of self at degree D meets none
        floor = 0 if ring._zero_exp in other.terms else 1
        out: dict[tuple[int, ...], int] = {}
        for ea, na in self.terms.items():
            row = sums.get(ea)
            if row is None:
                row = sums.setdefault(ea, _SumRow(ring, ea))
            if row.limit >= floor:
                for eb, nb in b:
                    key = row[eb]
                    if key is not None:
                        out[key] = out.get(key, 0) + na * nb
        return _reduced(ring, self.den * other.den, {e: n for e, n in out.items() if n})

    __rmul__ = __mul__

    def _times(self, num: int, den: int) -> GradedPoly:
        """self * num / den for ints num and den > 0."""
        if not num or not self.terms:
            return self.ring.zero()
        return _reduced(self.ring, self.den * den, {e: n * num for e, n in self.terms.items()})

    def scale(self, c) -> GradedPoly:
        return self._times(*_num_den(c))

    def __truediv__(self, c) -> GradedPoly:
        num, den = _num_den(c)
        if not num:
            raise ZeroDivisionError("polynomial divided by zero")
        return self._times(den if num > 0 else -den, abs(num))

    def __pow__(self, n: int) -> GradedPoly:
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        # an int or Fraction is the constant polynomial, as it is for + and *
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        return (
            isinstance(other, GradedPoly)
            and self.ring == other.ring
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        if self.terms.keys() <= {self.ring._zero_exp}:
            return hash(self.constant())  # equal to its scalar, so hashed alike
        return hash((self.ring, self.den, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ---------------------------------------------------------

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """(exponent vector, Fraction coefficient) for every stored term."""
        den = self.den
        return [(e, Fraction(n, den)) for e, n in self.terms.items()]

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return Fraction(self.terms.get(tuple(exps), 0), self.den)

    def constant(self) -> Fraction:
        return self.coefficient(self.ring._zero_exp)

    def component(self, k: int) -> GradedPoly:
        """Homogeneous part of weighted degree k."""
        wdeg = self.ring.wdeg
        return _reduced(
            self.ring, self.den, {e: n for e, n in self.terms.items() if wdeg(e) == k}
        )

    def is_homogeneous(self, k: int) -> bool:
        wdeg = self.ring.wdeg
        return all(wdeg(e) == k for e in self.terms)

    def substitute(
        self, target: PolyRing, images: Mapping[str, GradedPoly]
    ) -> GradedPoly:
        """Evaluate by sending each generator to the given target-ring value.

        Every generator that actually occurs must have an image; images must
        live in ``target``.
        """
        for img in images.values():
            if img.ring != target:
                raise ValueError("substitution images live in the wrong ring")
        # powers[i][e - 1] is the image of generator i to the power e
        powers: dict[int, list[GradedPoly]] = {}
        names = self.ring.names
        result = target.zero()
        for exps, n in self.terms.items():
            term = None
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if names[i] not in images:
                    raise ValueError(f"no image for generator {names[i]}")
                cache = powers.setdefault(i, [images[names[i]]])
                while len(cache) < e:
                    cache.append(cache[-1] * cache[0])
                term = cache[e - 1] if term is None else term * cache[e - 1]
            if term is None:
                term = target.one()
            result = result + term._times(n, self.den)
        return result

    # -- analytic series ---------------------------------------------------

    def exp(self) -> GradedPoly:
        """Truncated exponential; requires a zero constant term."""
        if self.constant():
            raise ValueError("exp needs a zero constant term")
        result = self.ring.one()
        power = self.ring.one()
        fact = 1
        for j in range(1, self.ring.truncation + 1):
            power = power * self
            if power.is_zero():
                break
            fact *= j
            result = result + power / fact
        return result

    # -- canonical form ----------------------------------------------------

    def _monomial_str(self, exps: tuple[int, ...]) -> str:
        names = self.ring.names
        pieces = []
        for name, e in zip(names, exps):
            if e == 1:
                pieces.append(name)
            elif e > 1:
                pieces.append(f"{name}^{e}")
        return "*".join(pieces)

    def _ordered_items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """items() in the canonical printed order: by weighted degree, then graded-lex."""
        wdeg = self.ring.wdeg
        return sorted(self.items(), key=lambda it: (wdeg(it[0]), tuple(-e for e in it[0])))

    def text(self, spaces: bool = True) -> str:
        """Canonical text form, e.g. ``1 - 11/10*c1^2 + 5*ch2``, terms in the
        canonical order."""
        if not self.terms:
            return "0"
        plus, minus = (" + ", " - ") if spaces else ("+", "-")
        out = []
        for exps, c in self._ordered_items():
            mono = self._monomial_str(exps)
            mag = -c if c < 0 else c
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not out:
                out.append(("-" if c < 0 else "") + body)
            else:
                out.append((minus if c < 0 else plus) + body)
        return "".join(out)

    def compact(self) -> str:
        return self.text(spaces=False)

    def __repr__(self) -> str:
        return f"<{self.text()}>"


def proportion(x: GradedPoly, y: GradedPoly) -> tuple[bool, Fraction | None]:
    """Exact proportionality test: is x a scalar multiple of y?

    Returns (True, lam) with x == lam*y, (True, None) when both vanish, and
    (False, None) otherwise (in particular when y == 0 != x).
    """
    x._check(y)
    if not y.terms:
        return (x.is_zero(), None)
    if not x.terms:
        return (True, Fraction(0))
    # any stored term of y serves as the pivot: if x == lam*y at all, lam is
    # the ratio of the two coefficients there, and every other pair of
    # numerators has the pivot pair's ratio (the denominators cancel)
    xt, yt = x.terms, y.terms
    exps, n = next(iter(yt.items()))
    m = xt.get(exps, 0)
    if xt.keys() != yt.keys() or any(xt[e] * n != m * v for e, v in yt.items()):
        return (False, None)
    return (True, Fraction(m * y.den, x.den * n))
