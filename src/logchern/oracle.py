"""Splitting-principle oracle: the single source of truth.

A Schur functor of the generic rank-r bundle has total character
s_alpha(exp a_1, ..., exp a_r) -- no formula involved beyond the definition.
Its power sums are the Adams operations, p_j(exp a) = ch(psi^j E) =
r + sum_k j^k ch_k(E), so Newton's identities and the Jacobi-Trudi
determinant give s_alpha directly over e1..eD, in a ring whose size depends
on D only.  The ch_k are those of ``characters.generic_bundle``, already in
normal form, so s_alpha is too (``normal_form`` is a ring map fixing
e1..er) and equality above the rank is plain ``==``.  Like every character
in the package, the result is one ``GradedPoly``, the total ch_0 + ... +
ch_D; ``oracle_schur_ch`` is ``oracle_schur_total`` with its rank checked
against the Weyl dimension.  The closed formulas elsewhere in the package
are verified against these values; nothing is compared with a tolerance.

The Adams power sums, their Newton family and the discriminants of the
generic bundle depend only on (r, D), so they are computed once per process
and shared by every partition: ``_adams_power_sum`` per (r, D, j),
``_adams_family`` per (r, D, dual form, top index), each family extending the
next shorter one by one entry, and ``characters.generic_discriminants`` per
(r, D).  Sharing them cannot change an answer: each table is an lru_cache of
a pure function keyed on all of its inputs, and its values are
``GradedPoly``s (or tuples of them), which nothing mutates.  Only the
Jacobi-Trudi determinant runs per partition, and it too shares its work:
``_adams_minors``, an lru_cache like the others, holds one dict per (r, D,
dual form) in which ``symfunc.jacobi_trudi`` keeps every minor it expands,
keyed by the rows and columns the minor reads, so partitions with the same
leading rows expand those minors once.  The dict only gains entries, each
the one value any evaluation on that family computes.

``root_ring``, ``exp_roots``, ``base_in_roots`` and ``char_to_roots`` build
the same objects in the ring of r Chern roots.  They are the independent
witness the tests compare the oracle against; no production path calls them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from logchern.characters import (
    ch_ring,
    delta4t,
    discriminants,
    generic_bundle,
    generic_discriminants,
    normal_form,
)
from logchern.formulas import ext_power_ch3, f4_sym, schur_coefficients, sym_power_ch
from logchern.ring import GradedPoly, PolyRing, _reduced, proportion, root_generators
from logchern.symfunc import (
    Partition,
    enumerate_partitions,
    jacobi_trudi,
    jacobi_trudi_form,
    newton_next,
    power_sum_poly,
    weyl_dim,
)

MAX_SWEEP_RANK = 6
MAX_SWEEP_SIZE = 8


@lru_cache(maxsize=None)
def _adams_power_sum(r: int, D: int, j: int) -> GradedPoly:
    """p_j = ch(psi^j E) = r + sum_k j^k ch_k of ``generic_bundle(r, D)``, in normal form."""
    bundle = generic_bundle(r, D)
    return sum((bundle.component(k).scale(j**k) for k in range(1, D + 1)), bundle.ring.scalar(r))


@lru_cache(maxsize=None)
def _adams_family(r: int, D: int, dual: bool, n: int) -> tuple[GradedPoly, ...]:
    """h_0..h_n (e_0..e_n when ``dual``) of the Adams power sums of ``_adams_power_sum``.

    Entry k reads p_0..p_k only, so each family is the one a step shorter
    plus one entry.
    """
    if n == 0:
        return (ch_ring(D).one(),)
    head = _adams_family(r, D, dual, n - 1)
    power_sums = [_adams_power_sum(r, D, j) for j in range(n + 1)]
    return head + (newton_next(power_sums, head, dual),)


@lru_cache(maxsize=None)
def _adams_minors(r: int, D: int, dual: bool) -> dict:
    """The Jacobi-Trudi minors on the (r, D, dual) Adams family, filled by ``jacobi_trudi``."""
    return {}


def oracle_schur_total(alpha, r: int, D: int) -> GradedPoly:
    """Total character of S^alpha E over e1..eD, in normal form.

    s_alpha evaluated on the power sums p_j = ch(psi^j E) of the generic
    rank-r bundle: the Jacobi-Trudi determinant on their shared Newton
    family, with the minors shared by every partition at (r, D).
    """
    alpha = Partition.of(alpha)
    if r < 1:
        raise ValueError("rank must be a positive integer")
    if len(alpha) > r:
        raise ValueError(f"partition {alpha.parts} has more than {r} parts")
    rows, dual, top = jacobi_trudi_form(alpha)
    return jacobi_trudi(rows, _adams_family(r, D, dual, top), _adams_minors(r, D, dual))


def oracle_schur_ch(alpha, r: int, D: int) -> GradedPoly:
    """ch(S^alpha E) over e1..eD, computed purely from the splitting principle."""
    alpha = Partition.of(alpha)
    out = oracle_schur_total(alpha, r, D)
    if out.constant() != weyl_dim(alpha, r):
        raise ArithmeticError("oracle rank disagrees with the Weyl dimension")
    return out


# -- the root-ring witness ----------------------------------------------------


def root_ring(r: int, D: int) -> PolyRing:
    return PolyRing(root_generators(r), D)


def exp_roots(ring: PolyRing) -> list[GradedPoly]:
    return [ring.gen(name).exp() for name in ring.names]


def base_in_roots(r: int, D: int) -> GradedPoly:
    """The generic bundle in the root ring: ch(E) = sum_i exp(a_i)."""
    ring = root_ring(r, D)
    return sum(exp_roots(ring), ring.zero())


def char_to_roots(a: GradedPoly, r: int) -> GradedPoly:
    """Interpret an e-ring character on the generic rank-r bundle of roots.

    Substitutes e_k -> p_k(a)/k!; agrees with ``normal_form`` equality, which
    the production code uses instead.
    """
    D = a.ring.truncation
    ring = root_ring(r, D)
    roots = [ring.gen(name) for name in ring.names]
    images = {
        f"e{k}": power_sum_poly(k, roots) / factorial(k) for k in range(1, D + 1)
    }
    return a.substitute(ring, images)


# -- verification records -----------------------------------------------------


class Check:
    __slots__ = ("name", "passed", "lhs", "rhs")

    def __init__(self, name: str, passed: bool, lhs: str = "", rhs: str = ""):
        self.name = name
        self.passed = passed
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        return f"Check({self.name!r}, {self.passed}, {self.lhs!r}, {self.rhs!r})"


class VerificationRecord:
    __slots__ = ("alpha", "r", "D", "checks")

    def __init__(self, alpha: Partition, r: int, D: int, checks: tuple[Check, ...]):
        self.alpha = alpha
        self.r = r
        self.D = D
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def _equality_check(name: str, lhs: GradedPoly, rhs: GradedPoly) -> Check:
    if lhs == rhs:
        return Check(name, True)
    return Check(name, False, lhs.text(), rhs.text())


def _factor_check(name: str, lhs: GradedPoly, rhs: GradedPoly, expected) -> Check:
    """lhs == expected * rhs, with 0 == lam*0 handled as the vanishing regime."""
    if rhs.is_zero():
        if lhs.is_zero():
            return Check(name + " (vanishing regime)", True)
        return Check(name, False, lhs.text(), "0")
    ok, lam = proportion(lhs, rhs)
    if ok and lam == expected:
        return Check(name, True)
    return Check(name, False, f"factor {lam if ok else 'none'}", f"factor {expected}")


def _over_e(a: GradedPoly, t: int) -> GradedPoly:
    """ch_0..ch_t of a character over e1..eD, read over e1..et.

    Component k involves e_1..e_k only, so dropping e_(t+1)..e_D loses nothing.
    """
    if t == a.ring.truncation:
        return a
    wdeg = a.ring.wdeg
    return _reduced(ch_ring(t), a.den, {e[:t]: n for e, n in a.terms.items() if wdeg(e) <= t})


def verify_schur(alpha, r: int, D: int = 3) -> VerificationRecord:
    """Compare the oracle against every applicable closed formula.

    One check per formula, each an equality of whole characters over e1..et
    with t = min(D, r): the Schur table (its rank is the Weyl dimension, so
    this also checks the oracle's rank), the symmetric-power double sum for
    rows (over e1..eD) and the exterior table for columns.  Then one check
    per Delta_k, k <= D, that Delta_k(S^alpha E) = f_k (r_alpha/r)^(k-1)
    Delta_k(E); at r <= 2, Delta_3 of E vanishes identically and its check
    is the vanishing regime.  Failures are recorded, not raised.
    """
    if D > 3:
        raise ValueError("verify_schur compares the degree <= 3 tables")
    alpha = Partition.of(alpha)
    total = oracle_schur_total(alpha, r, D)
    sc = schur_coefficients(alpha, r)
    t = min(D, r)
    oracle_t = _over_e(total, t)
    checks = [_equality_check("ch vs Schur table", oracle_t, sc.table(t))]
    if len(alpha) <= 1:
        row = sym_power_ch(alpha.size, r, D)
        checks.append(
            _equality_check(
                "total vs symmetric double sum", total, normal_form(row, r)
            )
        )
    if alpha.parts and all(p == 1 for p in alpha.parts):
        col = ext_power_ch3(len(alpha), r, up_to=t)
        checks.append(_equality_check("ch vs exterior table", oracle_t, col))

    w = Fraction(sc.r_alpha, r)
    factors = (sc.f1, sc.f2 * w, None if sc.f3 is None else sc.f3 * w * w)
    deltas = zip(discriminants(total, D), generic_discriminants(r, D), factors)
    for k, (d_schur, d_base, factor) in enumerate(deltas, 1):
        checks.append(_factor_check(f"Delta_{k} scaling", d_schur, d_base, factor))
    return VerificationRecord(alpha, r, D, tuple(checks))


# -- degree-4 proportionality -------------------------------------------------


class Delta4Result:
    __slots__ = ("m", "r", "t", "is_proportional", "lam", "printed")

    def __init__(
        self, m: int, r: int, t: Fraction, is_proportional: bool, lam: Fraction | None, printed: Fraction
    ):
        self.m = m
        self.r = r
        self.t = t
        self.is_proportional = is_proportional
        self.lam = lam
        self.printed = printed


def schur_factor(alpha, r: int, D: int, cls) -> tuple[bool, Fraction | None]:
    """``proportion(cls(S^alpha E), cls(E))`` on the generic rank-r bundle over e1..eD."""
    return proportion(cls(oracle_schur_ch(alpha, r, D)), cls(generic_bundle(r, D)))


def verify_delta4_proportionality(m: int, r: int, t=None) -> Delta4Result:
    """Is Delta_{4,t}(S^m V) an exact multiple of Delta_{4,t}(V)?  (t defaults to r.)

    Returns the measured ratio next to the printed coefficient
    f4 * (r_m/r)^4 without deciding which normalization was intended.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    t = Fraction(r) if t is None else Fraction(t)
    ok, lam = schur_factor((m,), r, 4, lambda a: delta4t(a, t))
    printed = f4_sym(m, r) * Fraction(weyl_dim((m,), r), r) ** 4
    return Delta4Result(m, r, t, ok, lam, printed)


def verify_nonproportional_hook(alpha, r: int, t) -> bool:
    """True when Delta_{4,t}(S^alpha V) is confirmed NOT a multiple of Delta_{4,t}(V)."""
    return not schur_factor(alpha, r, 4, lambda a: delta4t(a, Fraction(t)))[0]


# -- the sweep ----------------------------------------------------------------


class SweepReport:
    __slots__ = ("records",)

    def __init__(self, records: tuple[VerificationRecord, ...]):
        self.records = records

    @property
    def cases(self) -> int:
        return len(self.records)

    @property
    def passed(self) -> int:
        return sum(rec.ok for rec in self.records)

    @property
    def failed(self) -> int:
        return self.cases - self.passed

    def to_json_dict(self) -> dict:
        return {"cases": self.cases, "passed": self.passed, "failed": self.failed}


def sweep(max_r: int, max_size: int, D: int = 3) -> SweepReport:
    """verify_schur over every (r <= max_r, 1 <= |alpha| <= max_size, <= r parts).

    Rank 1 (where every Schur functor is a power of a line and every table
    degenerates) is included only when it is the only rank in range.
    Deterministic case order (rank, then size, then decreasing-lex
    partitions).
    """
    if not 1 <= max_r <= MAX_SWEEP_RANK:
        raise ValueError(f"max_r must lie in 1..{MAX_SWEEP_RANK}")
    if not 1 <= max_size <= MAX_SWEEP_SIZE:
        raise ValueError(f"max_size must lie in 1..{MAX_SWEEP_SIZE}")
    return SweepReport(
        tuple(
            verify_schur(alpha, r, D)
            for r in range(1 if max_r == 1 else 2, max_r + 1)
            for size in range(1, max_size + 1)
            for alpha in enumerate_partitions(size, r)
        )
    )
