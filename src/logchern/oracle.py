"""Splitting-principle oracle: the single source of truth.

A Schur functor of the generic rank-r bundle has total character
s_alpha(exp a_1, ..., exp a_r) -- no formula involved beyond the definition.
Its power sums are the Adams operations, p_j(exp a) = ch(psi^j E) =
r + sum_k j^k ch_k(E), so Newton's identities and the Jacobi-Trudi
determinant give s_alpha directly over e1..eD, in a ring whose size depends
on D only.  The ch_k are those of ``characters.generic_bundle``, already in
normal form, so s_alpha is too (``normal_form`` is a ring map fixing
e1..er) and equality above the rank is plain ``==``.  The closed formulas
elsewhere in the package are verified against these values; nothing is
compared with a tolerance.

The Adams power sums, their Newton family and the discriminants of the
generic bundle depend only on (r, D), so they are computed once per process
and shared by every partition: ``_adams_power_sum`` per (r, D, j),
``_adams_family`` per (r, D, dual form, top index), each family extending the
next shorter one by one entry, and ``characters.generic_discriminants`` per
(r, D).  Sharing them cannot change an answer: each table is an lru_cache of
a pure function keyed on all of its inputs, and its values are
``GradedPoly``s (or tuples of them), which nothing mutates.  Only the
Jacobi-Trudi determinant runs per partition.

``root_ring``, ``exp_roots``, ``base_in_roots`` and ``char_to_roots`` build
the same objects in the ring of r Chern roots.  They are the independent
witness the tests compare the oracle against; no production path calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from logchern.characters import (
    BundleCharacter,
    ch_ring,
    delta4t,
    discriminants,
    generic_bundle,
    generic_discriminants,
    normal_form,
)
from logchern.formulas import ext_power_ch3, f4_sym, schur_coefficients, sym_power_ch
from logchern.ring import GradedPoly, PolyRing, proportion, root_generators
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
    return sum((bundle.ch(k).scale(j**k) for k in range(1, D + 1)), bundle.ring.scalar(r))


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


def oracle_schur_total(alpha, r: int, D: int) -> GradedPoly:
    """Total character of S^alpha E over e1..eD, in normal form.

    s_alpha evaluated on the power sums p_j = ch(psi^j E) of the generic
    rank-r bundle: the Jacobi-Trudi determinant on their shared Newton family.
    """
    alpha = Partition.of(alpha)
    if r < 1:
        raise ValueError("rank must be a positive integer")
    if len(alpha) > r:
        raise ValueError(f"partition {alpha.parts} has more than {r} parts")
    rows, dual, top = jacobi_trudi_form(alpha)
    return jacobi_trudi(rows, _adams_family(r, D, dual, top))


def oracle_schur_ch(alpha, r: int, D: int) -> BundleCharacter:
    """ch(S^alpha E) over e1..eD, computed purely from the splitting principle."""
    alpha = Partition.of(alpha)
    out = BundleCharacter(oracle_schur_total(alpha, r, D))
    if out.rank != weyl_dim(alpha, r):
        raise ArithmeticError("oracle rank disagrees with the Weyl dimension")
    return out


# -- the root-ring witness ----------------------------------------------------


def root_ring(r: int, D: int) -> PolyRing:
    return PolyRing(root_generators(r), D)


def exp_roots(ring: PolyRing) -> list[GradedPoly]:
    return [ring.gen(name).exp() for name in ring.names]


def base_in_roots(r: int, D: int) -> BundleCharacter:
    """The generic bundle in the root ring: ch(E) = sum_i exp(a_i)."""
    ring = root_ring(r, D)
    return BundleCharacter(sum(exp_roots(ring), ring.zero()))


def char_to_roots(a: BundleCharacter, r: int) -> BundleCharacter:
    """Interpret an e-ring character on the generic rank-r bundle of roots.

    Substitutes e_k -> p_k(a)/k!; agrees with ``normal_form`` equality, which
    the production code uses instead.
    """
    D = a.D
    ring = root_ring(r, D)
    roots = [ring.gen(name) for name in ring.names]
    images = {
        f"e{k}": power_sum_poly(k, roots) / factorial(k) for k in range(1, D + 1)
    }
    return BundleCharacter(a.total.substitute(ring, images))


# -- verification records -----------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    lhs: str = ""
    rhs: str = ""


@dataclass(frozen=True)
class VerificationRecord:
    alpha: Partition
    r: int
    D: int
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def _equality_check(name: str, lhs, rhs) -> Check:
    if lhs == rhs:
        return Check(name, True)
    fmt = lambda x: x.text() if isinstance(x, GradedPoly) else str(x)
    return Check(name, False, fmt(lhs), fmt(rhs))


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


def _over_e(a: BundleCharacter, t: int) -> BundleCharacter:
    """ch_0..ch_t of a character over e1..eD, read over e1..et.

    Component k involves e_1..e_k only, so dropping e_(t+1)..e_D loses nothing.
    """
    wdeg = a.ring.wdeg
    terms = a.total.items()
    return BundleCharacter(ch_ring(t).from_terms({e[:t]: c for e, c in terms if wdeg(e) <= t}))


def verify_schur(alpha, r: int, D: int = 3) -> VerificationRecord:
    """Compare the oracle against every applicable closed formula.

    Field-by-field equality of ch_0..ch_min(D,3) against the Schur table
    (ch_3 only for r >= 3), against the symmetric-power double sum for rows
    and the exterior table for columns, plus the three discriminant scaling
    factors.  Failures are recorded, not raised.
    """
    if D > 3:
        raise ValueError("verify_schur compares the degree <= 3 tables")
    alpha = Partition.of(alpha)
    total = oracle_schur_total(alpha, r, D)
    ring = total.ring
    oracle_e = BundleCharacter(total)
    sc = schur_coefficients(alpha, r)
    checks = [
        _equality_check("rank equals Weyl dimension", oracle_e.rank, Fraction(sc.r_alpha))
    ]

    table_up_to = min(D, r)
    oracle_t = _over_e(oracle_e, table_up_to) if table_up_to < D else oracle_e
    closed = sc.table(table_up_to)
    checks.append(_equality_check("rank vs Schur table", oracle_t.rank, closed.rank))
    for k in range(1, table_up_to + 1):
        checks.append(
            _equality_check(f"ch{k} vs Schur table", oracle_t.ch(k), closed.ch(k))
        )

    if len(alpha) <= 1:
        row = sym_power_ch(alpha.size, r, D)
        checks.append(
            _equality_check(
                "total vs symmetric double sum", total, normal_form(row.total, r)
            )
        )
    if alpha.parts and all(p == 1 for p in alpha.parts):
        col = ext_power_ch3(len(alpha), r, up_to=table_up_to)
        for k in range(1, table_up_to + 1):
            checks.append(
                _equality_check(f"ch{k} vs exterior table", oracle_t.ch(k), col.ch(k))
            )

    weight = Fraction(sc.r_alpha, r)
    ds_schur = discriminants(oracle_e, D)
    ds_base = generic_discriminants(r, D)
    checks.append(_factor_check("Delta_1 scaling", ds_schur[0], ds_base[0], sc.f1))
    if D >= 2:
        checks.append(
            _factor_check("Delta_2 scaling", ds_schur[1], ds_base[1], sc.f2 * weight)
        )
    if D >= 3:
        if sc.f3 is None:
            # rank <= 2: Delta_3 vanishes identically on both sides
            checks.append(
                _equality_check("Delta_3 vanishing (r <= 2)", ds_schur[2], ring.zero())
            )
        else:
            checks.append(
                _factor_check("Delta_3 scaling", ds_schur[2], ds_base[2], sc.f3 * weight**2)
            )
    return VerificationRecord(alpha, r, D, tuple(checks))


# -- degree-4 proportionality -------------------------------------------------


@dataclass(frozen=True)
class Delta4Result:
    m: int
    r: int
    t: Fraction
    is_proportional: bool
    lam: Fraction | None
    printed: Fraction


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


@dataclass(frozen=True)
class SweepReport:
    records: tuple[VerificationRecord, ...]

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
