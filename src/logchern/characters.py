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
bundle, and ``chern_classes`` reads the Chern classes off Newton's
identities on p_k = k! ch_k.  A function given a bundle's rank r reads it
through ``ring.positive_rank``, which refuses all but a positive int; the
deliberate exceptions are ``base_bundle``, which builds virtual characters
too, and ``modified_delta``, which checks the rank of its character.

Discriminants come from the logarithm of the normalized total character:

    log(ch/ch_0) = sum_{k>0} (-1)^{k+1} Delta_k / (k ch_0^k)

and the normalized class d_k is ch_0 times the degree-k log coefficient,
i.e. d_k = (-1)^{k+1} Delta_k / (k ch_0^{k-1}).  (The sign makes
log(ch/ch_0) = sum d_k/ch_0 hold on the nose; d_1 = ch_1, d_2 = ch_2 -
ch_1^2/(2 ch_0), and so on.)  ``log_character`` and ``d_k`` are these two
identities; ``discriminants`` alone runs the recurrence below for Delta_k,
and alone refuses a character of rank zero, for every reader of the log.

The log is never summed as a series.  Write ch = (R + A_1 + A_2 + ...)/den,
with A_k the integer numerators of ch_k and R that of the rank, and let
theta be the Euler derivation (the degree-k part times k).  Since theta is
a derivation, theta(ch) = ch theta(log(ch/ch_0)); put L_k = [log(ch/ch_0)]_k
and lambda_k = k R^k L_k.  Degree k of that identity, times den R^(k-1), is

    lambda_k = k R^(k-1) A_k - [X_k (A_1 + ... + A_(k-1))]_k,
    X_1 = 0,  X_(k+1) = R X_k + lambda_k,

where [.]_k keeps the degree-k part and X_k is the sum over j < k of
R^(k-1-j) lambda_j.  Every lambda_k is a sum of products of integer
numerators, so the recurrence is exact and needs no division at all; then
Delta_k = (-1)^(k+1) lambda_k / den^k, put over its denominator once.
Degree k costs one product, X_k times the low part.  The tests compare the
recurrence with the series q - q^2/2 + ..., kept in ``tests/witness.py``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from logchern.ring import GradedPoly, PolyRing, _reduced, graded_generators, positive_rank, rat
from logchern.symfunc import PowerSumSchur


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
    if type(j) is not int:  # a bool or a Fraction j is refused too
        raise TypeError(f"adams needs an int j, got {j!r}")
    wdeg = a.ring.wdeg
    # psi^0 keeps the rank alone: every other numerator becomes 0
    terms = {e: m for e, n in a.terms.items() if (m := n * j ** wdeg(e))}
    return _reduced(a.ring, a.den, terms)


def log_character(a: GradedPoly) -> GradedPoly:
    """log(ch/ch_0) = sum_k (-1)^(k+1) Delta_k / (k ch_0^k); degree k is d_k/ch_0."""
    r = a.constant()
    ds = discriminants(a, a.ring.truncation)
    terms = (dk.scale(Fraction((-1) ** (k + 1), k * r**k)) for k, dk in enumerate(ds, start=1))
    return sum(terms, a.ring.zero())


def d_k(a: GradedPoly, k: int) -> GradedPoly:
    """Normalized discriminant d_k = (-1)^(k+1) Delta_k / (k ch_0^(k-1))."""
    D = a.ring.truncation
    if not 1 <= k <= D:
        raise ValueError(f"k must lie in 1..{D}")
    return discriminants(a, k)[k - 1].scale(Fraction((-1) ** (k + 1), k * a.constant() ** (k - 1)))


def discriminants(a: GradedPoly, up_to: int) -> tuple[GradedPoly, ...]:
    """Delta_1..Delta_up_to, each (-1)^(k+1) lambda_k / den^k (module docstring)."""
    ring = a.ring
    if not 1 <= up_to <= ring.truncation:
        raise ValueError(f"up_to must lie in 1..{ring.truncation}")
    if ring._zero_exp not in a.terms:
        raise ZeroDivisionError("discriminants need nonzero rank")
    wdeg = ring.wdeg
    R = a.terms[ring._zero_exp]
    parts: list[dict] = [{} for _ in range(up_to + 1)]
    for e, n in a.terms.items():
        k = wdeg(e)
        if k <= up_to:
            parts[k][e] = n
    lams: list[dict] = []
    x: dict = {}  # X_k
    low: dict = {}  # A_1 + ... + A_(k-1)
    for k in range(1, up_to + 1):
        scale = k * R ** (k - 1)
        lam = {e: n * scale for e, n in parts[k].items()}
        if k > 1:
            for e, n in (GradedPoly(ring, 1, x) * GradedPoly(ring, 1, low)).terms.items():
                if wdeg(e) == k:
                    s = lam.get(e, 0) - n
                    if s:
                        lam[e] = s
                    else:
                        del lam[e]
        lams.append(lam)
        # X_k lives in degrees below k and lambda_k in degree k: no overlap
        x = {e: R * n for e, n in x.items()} | lam
        low = low | parts[k]
    den = a.den
    return tuple(
        _reduced(ring, den**k, lam if k % 2 else {e: -n for e, n in lam.items()})
        for k, lam in enumerate(lams, start=1)
    )


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
    """c_1..c_D: the e-family of ``PowerSumSchur`` on the power sums p_k = k! ch_k.

    By Newton's identities k c_k = sum_i (-1)^(i-1) p_i c_(k-i), so c_k is
    the degree-k part of exp(sum_j (-1)^(j-1) (j-1)! ch_j).
    """
    evaluator = PowerSumSchur(lambda k: a.component(k).scale(factorial(k)))
    return evaluator.family(True, a.ring.truncation)[1:]


def from_chern_classes(rank: int, classes, ring: PolyRing) -> GradedPoly:
    """Character of a rank-r bundle with the given c_1..c_min(r,D).

    Classes beyond index r are forced to zero (a rank-r bundle has none),
    which pins down every ch_k through degree D: the inverse of
    ``chern_classes``, ch_k = (-1)^(k-1) [log(1 + c_1 + ... + c_r)]_k / (k-1)!.
    """
    r = positive_rank(rank)
    total = ring.one()
    for i, c in enumerate(list(classes)[: min(r, ring.truncation)], start=1):
        if not c.is_homogeneous(i):
            raise ValueError(f"c_{i} is not homogeneous of degree {i}")
        total = total + c
    log = log_character(total)
    comps = (
        log.component(k).scale(Fraction((-1) ** (k - 1), factorial(k - 1)))
        for k in range(1, ring.truncation + 1)
    )
    return sum(comps, ring.scalar(r))


# typed, so that 2.0 and True miss the entries of 2 and 1 and are refused
@lru_cache(maxsize=None, typed=True)
def generic_bundle(r: int, D: int) -> GradedPoly:
    """The generic rank-r bundle over e1..eD, in normal form.

    ch_k = e_k for k <= r; above the rank, ch_k is the polynomial in
    e_1..e_r forced by c_1..c_r (those of e) and c_(>r) = 0.
    """
    base = base_bundle(positive_rank(r), D)
    if D <= r:
        return base
    return from_chern_classes(r, chern_classes(base), base.ring)


@lru_cache(maxsize=None, typed=True)
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
    if D <= positive_rank(r):
        return p
    bundle = generic_bundle(r, D)
    return p.substitute(p.ring, {f"e{k}": bundle.component(k) for k in range(1, D + 1)})
