"""Formal bundle characters and the logarithmic/discriminant calculus.

A character is its total ch_0 + ch_1 + ... + ch_D: one truncated
``GradedPoly`` over some coefficient ring.  The rank is its constant term
(``constant()``; any nonzero rational is allowed -- virtual characters are
first class), ch_k its degree-k part (``component(k)``) and D the ring's
truncation.  The characters of a direct sum and of a product of bundles
are ``+`` and ``*``, and a Q-multiple is ``scale``.  By default the
coefficients are the free symbols e1..eD, where e_k stands for ch_k of an
underlying bundle; the root-ring witness in the tests also builds
characters over Chern-root rings.  The Adams operation ``adams`` is the
graded scaling ch_k -> j^k ch_k of any character.  Above the rank,
``normal_form`` picks the canonical representative on the generic rank-r
bundle.

Discriminants come from the logarithm of the normalized total character:

    log(ch/ch_0) = sum_{k>0} (-1)^{k+1} Delta_k / (k ch_0^k)

and the normalized class d_k is ch_0 times the degree-k log coefficient,
i.e. d_k = (-1)^{k+1} Delta_k / (k ch_0^{k-1}).  (The sign makes
log(ch/ch_0) = sum d_k/ch_0 hold on the nose; d_1 = ch_1, d_2 = ch_2 -
ch_1^2/(2 ch_0), and so on.)
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from logchern.ring import GradedPoly, PolyRing, _reduced, graded_generators, rat


@lru_cache(maxsize=None)
def ch_ring(D: int) -> PolyRing:
    """The abstract coefficient ring e1..eD with deg e_k = k."""
    return PolyRing(graded_generators("e", D), D)


def base_bundle(rank, D: int) -> GradedPoly:
    """The generic bundle E: ch_k is the free symbol e_k."""
    terms = {(0,) * D: rank}
    for k in range(1, D + 1):
        terms[(0,) * (k - 1) + (1,) + (0,) * (D - k)] = 1
    return ch_ring(D).from_terms(terms)


def adams(a: GradedPoly, j: int) -> GradedPoly:
    """The Adams operation psi^j on any character: ch_k -> j^k ch_k.

    On Chern roots it multiplies each root by j, so ch(psi^j A) is the j-th
    power sum of the exponentiated roots; the rank is kept, and psi^0 A is
    the rank alone.
    """
    wdeg = a.ring.wdeg
    return a.ring.from_terms({exps: c * j ** wdeg(exps) for exps, c in a.items()})


def log_character(a: GradedPoly) -> GradedPoly:
    """log(ch/ch_0); degree-k coefficient is d_k/ch_0."""
    rank = a.constant()
    if rank == 0:
        raise ZeroDivisionError("log character needs nonzero rank")
    return (a / rank).log()


def d_k(a: GradedPoly, k: int) -> GradedPoly:
    """Normalized discriminant d_k = (-1)^(k+1) Delta_k / (k ch_0^(k-1))."""
    D = a.ring.truncation
    if not 1 <= k <= D:
        raise ValueError(f"k must lie in 1..{D}")
    return log_character(a).component(k).scale(a.constant())


def discriminants(a: GradedPoly, up_to: int) -> tuple[GradedPoly, ...]:
    """Delta_1..Delta_up_to, read off the log in one pass over its terms."""
    ring, rank = a.ring, a.constant()
    if not 1 <= up_to <= ring.truncation:
        raise ValueError(f"up_to must lie in 1..{ring.truncation}")
    if rank == 0:
        raise ZeroDivisionError("discriminants need nonzero rank")
    log = (a / rank).log()
    # Delta_k is the degree-k part of the log times (-1)^(k+1) k rank^k
    num, den = rank.numerator, rank.denominator
    scales = [(-1) ** (k + 1) * k * num**k for k in range(up_to + 1)]
    parts: list[dict] = [{} for _ in scales]
    for e, n in log.terms.items():
        k = ring.wdeg(e)
        if k <= up_to:
            parts[k][e] = n * scales[k]
    return tuple(_reduced(ring, log.den * den**k, parts[k]) for k in range(1, up_to + 1))


def delta_k(a: GradedPoly, k: int) -> GradedPoly:
    """Discriminant Delta_k extracted from the logarithmic character."""
    return discriminants(a, k)[k - 1]


def delta4t(a: GradedPoly, t) -> GradedPoly:
    """The degree-4 class with parameter t tuned for symmetric powers.

    Delta_{4,t} = t ch1^4 - 4t ch0 ch1^2 ch2
                  + 2 ch0^2 ((t+1) ch2^2 + 2(t-1) ch1 ch3)
                  - 4(t-1) ch0^3 ch4
                = (t-1) Delta_4 + Delta_2^2,

    so it is read off the logarithm and, like ``discriminants``, needs a
    nonzero rank.
    """
    if a.ring.truncation < 4:
        raise ValueError("need D >= 4")
    ds = discriminants(a, 4)
    return ds[3].scale(rat(t) - 1) + ds[1] * ds[1]


def modified_delta(a: GradedPoly, k: int) -> GradedPoly:
    """The rank-sensitive modifications that vanish for rank < k.

    k=4: (r+1) Delta_4 - Delta_2^2;  k=5: (r+5) Delta_5 - 5 Delta_2 Delta_3.
    """
    if k not in (4, 5):
        raise ValueError("modified classes exist for k in {4, 5}")
    if a.ring.truncation < k:
        raise ValueError(f"need D >= {k}")
    r = a.constant()
    if r.denominator != 1 or r <= 0:
        raise ValueError("modified classes need a positive integer rank")
    ds = discriminants(a, k)
    if k == 4:
        return ds[3].scale(r + 1) - ds[1] * ds[1]
    return ds[4].scale(r + 5) - 5 * ds[1] * ds[2]


# -- Chern class conversion --------------------------------------------------


def chern_classes(a: GradedPoly) -> tuple[GradedPoly, ...]:
    """c_1..c_D: the graded pieces of c(E) = exp(sum_k (-1)^(k-1) (k-1)! ch_k)."""
    D = a.ring.truncation
    acc = a.ring.zero()
    for k in range(1, D + 1):
        acc = acc + a.component(k).scale((-1) ** (k - 1) * factorial(k - 1))
    total = acc.exp()
    return tuple(total.component(k) for k in range(1, D + 1))


def from_chern_classes(rank: int, classes, ring: PolyRing) -> GradedPoly:
    """Character of a rank-r bundle with the given c_1..c_min(r,D).

    Classes beyond index r are forced to zero (a rank-r bundle has none),
    which pins down every ch_k through degree D: the inverse of
    ``chern_classes``, ch_k = (-1)^(k-1) [log(1 + c_1 + ... + c_r)]_k / (k-1)!.
    """
    if not (isinstance(rank, int) or (isinstance(rank, Fraction) and rank.denominator == 1)):
        raise ValueError("rank must be a positive integer")
    r = int(rank)
    if r <= 0:
        raise ValueError("rank must be a positive integer")
    total = ring.one()
    for i, c in enumerate(list(classes)[: min(r, ring.truncation)], start=1):
        if not c.is_homogeneous(i):
            raise ValueError(f"c_{i} is not homogeneous of degree {i}")
        total = total + c
    log = total.log()
    comps = (
        log.component(k).scale(Fraction((-1) ** (k - 1), factorial(k - 1)))
        for k in range(1, ring.truncation + 1)
    )
    return sum(comps, ring.scalar(r))


@lru_cache(maxsize=None)
def generic_bundle(r: int, D: int) -> GradedPoly:
    """The generic rank-r bundle over e1..eD, in normal form.

    ch_k = e_k for k <= r; above the rank, ch_k is the polynomial in
    e_1..e_r forced by c_1..c_r (those of e) and c_(>r) = 0.
    """
    base = base_bundle(r, D)
    if D <= r:
        return base
    classes = chern_classes(base)[:r]
    return from_chern_classes(r, classes, base.ring)


@lru_cache(maxsize=None)
def generic_discriminants(r: int, D: int) -> tuple[GradedPoly, ...]:
    """Delta_1..Delta_D of the generic rank-r bundle over e1..eD."""
    return discriminants(generic_bundle(r, D), D)


def normal_form(p: GradedPoly, r: int) -> GradedPoly:
    """Canonical representative of p over e1..eD on the generic rank-r bundle.

    Substitutes e_k -> ch_k(generic_bundle(r, D)), the identity when D <= r.
    The result is a polynomial in e_1..e_r, which are free on a rank-r
    bundle, so two polynomials agree on every rank-r bundle exactly when
    their normal forms are equal.  It is the same section the power-sum
    rewrite of a root-ring value picks (monomials in p_1..p_r first).
    """
    D = p.ring.truncation
    if p.ring != ch_ring(D):
        raise ValueError("normal forms are taken over e1..eD")
    if D <= r:
        return p
    bundle = generic_bundle(r, D)
    return p.substitute(p.ring, {f"e{k}": bundle.component(k) for k in range(1, D + 1)})
