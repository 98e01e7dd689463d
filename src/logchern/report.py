"""Every judgement ``verify`` makes: the sweep, the claim table and the whitelist.

The oracle computes from the splitting principle alone; here its values
meet the closed formulas and the printed claims.  Each comparison is a
``Claim`` decided on exact values, measured at run time -- nothing is
hard-coded as true or false: a sweep check (``verify_schur``, one record per
case of ``sweep``) or a row of the claim table (``build_report``).  An
equality row is one ``_compare`` entry, which renders the printed and the
measured exact value after their labels and holds when the two are equal;
four rows whose claim is not such an equality are built by hand.  A row
that holds reads ``confirmed``, otherwise ``typo-suspected``.  The shipped
whitelist pins every row that is expected not to hold, by claim and paper
location, with the printed and measured texts the oracle adjudicated, so
the verify command can pass while still reporting them.  ``judge`` reads
the whitelist once and gives each row its flag in the table and the lines
for what the whitelist does not account for: any other row that does not
hold, and a pinned row whose texts drift, that no longer appears, or that
now holds.
"""

from __future__ import annotations

import os
from collections import namedtuple
from fractions import Fraction
from itertools import product

from logchern.characters import (
    base_bundle,
    ch_ring,
    d_k,
    delta4t,
    delta_k,
    discriminants,
    generic_bundle,
    generic_discriminants,
)
from logchern.formulas import closed_ch, ext_power_ch3, f4_sym, schur_ch3, sym_power_ch
from logchern.mukai import MukaiVector, mukai_schur
from logchern.oracle import oracle_schur_ch, schur_of
from logchern.ring import GradedPoly, _reduced, proportion, rat
from logchern.symfunc import Partition, binomial, enumerate_partitions, weyl_dim

MAX_SWEEP_RANK = 6
MAX_SWEEP_SIZE = 8
SWEEP_DEGREE = 3  # the closed tables stop at ch_3


class Claim(namedtuple("Claim", "claim paper_location printed_value measured_value holds")):
    """One comparison ``verify`` makes: a sweep check or a claim-table row.

    ``holds`` is decided on the exact values; the texts are what the table,
    the JSON and the whitelist show.  A sweep check has no paper location (its
    record names the case) and writes its texts only when it fails.
    """

    __slots__ = ()

    @property
    def status(self) -> str:
        return "confirmed" if self.holds else "typo-suspected"


class VerificationRecord(namedtuple("VerificationRecord", "alpha r checks")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks)

    def failures(self) -> list[Claim]:
        return [c for c in self.checks if not c.holds]


def _equality_check(name: str, measured: GradedPoly, printed: GradedPoly) -> Claim:
    if measured == printed:
        return Claim(name, "", "", "", True)
    return Claim(name, "", printed.text(), measured.text(), False)


def _factor_check(name: str, measured: GradedPoly, base: GradedPoly, expected) -> Claim:
    """measured == num/den * base for expected = (num, den); 0 == lam*0 is the vanishing regime."""
    if base.is_zero():
        if measured.is_zero():
            return Claim(name + " (vanishing regime)", "", "", "", True)
        return Claim(name, "", "0", measured.text(), False)
    if expected is not None and measured == base._times(*expected):
        return Claim(name, "", "", "", True)
    ok, lam = proportion(measured, base)
    factor = Fraction(*expected) if expected else None
    return Claim(name, "", f"factor {factor}", f"factor {lam if ok else 'none'}", False)


def _over_e(a: GradedPoly, t: int) -> GradedPoly:
    """ch_0..ch_t of a character over e1..eD, read over e1..et.

    Component k involves e_1..e_k only, so dropping e_(t+1)..e_D loses nothing.
    """
    if t == a.ring.truncation:
        return a
    wdeg = a.ring.wdeg
    return _reduced(ch_ring(t), a.den, {e[:t]: n for e, n in a.terms.items() if wdeg(e) <= t})


def verify_schur(alpha, r: int) -> VerificationRecord:
    """Compare the oracle against every applicable closed formula, through degree 3.

    One check per formula, each an equality of whole characters over e1..et
    with t = min(3, r): the Schur table ``schur_ch3`` (its rank is the Weyl
    dimension, so this also checks the oracle's rank), ``closed_ch`` for rows
    (the symmetric-power double sum, over e1..e3) and the exterior table for
    columns.  Then one check per Delta_k, k <= 3, that Delta_k(S^alpha E) =
    f_k (r_alpha/r)^(k-1) Delta_k(E), with f_k the e_k coefficient of that
    same table.  Above t the table has no e_k: there k > r, Delta_k of E
    vanishes identically and its check is the vanishing regime.  Failures
    are recorded, not raised: the oracle is ``schur_of`` on the generic
    bundle, without ``oracle_schur_ch``'s rank guard.  A rank below 1 or a
    partition with more than r parts is refused with ``ValueError``.
    """
    alpha = Partition(alpha)
    total = schur_of(alpha, generic_bundle(r, SWEEP_DEGREE))
    t = min(SWEEP_DEGREE, r)
    oracle_t = _over_e(total, t)
    table = schur_ch3(alpha, r, t)
    checks = [_equality_check("ch vs Schur table", oracle_t, table)]
    if len(alpha) <= 1:
        row = closed_ch(alpha, r, SWEEP_DEGREE)
        checks.append(_equality_check("total vs symmetric double sum", total, row))
    if alpha and all(p == 1 for p in alpha):
        col = ext_power_ch3(len(alpha), r, up_to=t)
        checks.append(_equality_check("ch vs exterior table", oracle_t, col))

    # each f_k (r_alpha/r)^(k-1) as an int pair off the table's numerators c over den
    c, den = table.terms, table.den
    w, dw = c[(0,) * t], den * r  # r_alpha/r = w/dw
    gens = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # e1, e2, e3
    ds = zip(discriminants(total, SWEEP_DEGREE), generic_discriminants(r, SWEEP_DEGREE))
    for k, (d_schur, d_base) in enumerate(ds):
        factor = (c.get(gens[k][:t], 0) * w**k, den * dw**k) if k < t else None
        checks.append(_factor_check(f"Delta_{k + 1} scaling", d_schur, d_base, factor))
    return VerificationRecord(alpha, r, tuple(checks))


# -- degree-4 proportionality -------------------------------------------------


Delta4Result = namedtuple("Delta4Result", "m r t is_proportional lam printed")


def schur_factor(alpha, r: int, k: int, t=None) -> tuple[bool, Fraction | None]:
    """``proportion(c(S^alpha E), c(E))`` on the generic rank-r bundle over
    e1..ek, for c = Delta_k, or Delta_{4,t} when t is given (k = 4)."""
    a = oracle_schur_ch(alpha, r, k)
    if t is None:
        return proportion(delta_k(a, k), generic_discriminants(r, k)[-1])
    return proportion(delta4t(a, t), delta4t(generic_bundle(r, k), t))


def verify_delta4_proportionality(m: int, r: int, t=None) -> Delta4Result:
    """Is Delta_{4,t}(S^m V) an exact multiple of Delta_{4,t}(V)?  (t defaults to r.)

    Returns the measured ratio next to the printed coefficient
    f4 * (r_m/r)^4 without deciding which normalization was intended.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    t = Fraction(r) if t is None else rat(t)
    ok, lam = schur_factor((m,), r, 4, t)
    printed = f4_sym(m, r) * Fraction(weyl_dim((m,), r), r) ** 4
    return Delta4Result(m, r, t, ok, lam, printed)


def verify_nonproportional_hook(alpha, r: int, t) -> bool:
    """True when Delta_{4,t}(S^alpha V) is confirmed NOT a multiple of Delta_{4,t}(V)."""
    return not schur_factor(alpha, r, 4, rat(t))[0]


# -- the sweep ----------------------------------------------------------------


class SweepReport(namedtuple("SweepReport", "records")):
    __slots__ = ()

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


def sweep(max_r: int, max_size: int) -> SweepReport:
    """verify_schur over every (r <= max_r, 1 <= |alpha| <= max_size, <= r parts).

    Each case is checked through degree 3.  Rank 1 (where every Schur functor
    is a power of a line and every table degenerates) is included only when
    it is the only rank in range.  Deterministic case order (rank, then size,
    then decreasing-lex partitions).
    """
    if not 1 <= max_r <= MAX_SWEEP_RANK:
        raise ValueError(f"max_r must lie in 1..{MAX_SWEEP_RANK}")
    if not 1 <= max_size <= MAX_SWEEP_SIZE:
        raise ValueError(f"max_size must lie in 1..{MAX_SWEEP_SIZE}")
    return SweepReport(
        tuple(
            verify_schur(alpha, r)
            for r in range(1 if max_r == 1 else 2, max_r + 1)
            for size in range(1, max_size + 1)
            for alpha in enumerate_partitions(size, r)
        )
    )


# -- the claim table ----------------------------------------------------------


def _compare(claim, location, printed, measured, label, measured_label=None, show=str) -> Claim:
    """The row claiming printed == measured, each value shown after its label."""
    measured_text = (measured_label or label) + show(measured)
    return Claim(claim, location, label + show(printed), measured_text, printed == measured)


def _rank_ch1_ch2(ch) -> str:
    return f"({ch.constant()}, {ch.component(1).compact()}, {ch.component(2).compact()})"


def build_report() -> list[Claim]:
    """Assemble the full measured claim table.

    Each ``_compare`` call reads: claim and paper location, printed and
    measured value, their labels.
    """
    rows: list[Claim] = []

    # golden symmetric-square character at r = 2
    s2 = sym_power_ch(2, 2, 2)
    rows.append(_compare(
        "sym-square-character-r2", "counterexample to additivity, displayed ch(S^2 V)",
        s2.ring.parse("3+3*e1+1/2*e1^2+4*e2"), s2,
        "", show=_rank_ch1_ch2,
    ))

    # the two headline quadratic scaling factors; the wedge factor is also
    # the exterior table's Delta_2 line below
    wedge_factor = schur_factor((1, 1), 4, 2)[1]
    rows.append(_compare(
        "sym-square-delta2-factor", "slope/discriminant examples, Delta_2(S^2 V) line",
        10, schur_factor((2,), 3, 2)[1],
        "(r+1)(r+2)/2 at r=3: ",
    ))
    rows.append(_compare(
        "wedge-square-delta2-factor", "slope/discriminant examples, Delta_2(wedge^2 V) line",
        3, wedge_factor,
        "(r-1)(r-2)/2 at r=4: ",
    ))

    # exterior table: the printed factor of Delta_k is the e_k coefficient of
    # ch_k, which carries a single power of r_n/r where the scaling theorem
    # requires the k-th power
    rows.append(_compare(
        "ext-delta2-factor-power", "exterior-power table, Delta_2 line",
        ext_power_ch3(2, 4, 2).coefficient((0, 1)), wedge_factor,
        "n(r-n)/(r-1) * (r_n/r) at (n,r)=(2,4): ", "measured factor: ",
    ))
    rows.append(_compare(
        "ext-delta3-factor-power", "exterior-power table, Delta_3 line",
        ext_power_ch3(2, 5, 3).coefficient((0, 0, 1)),
        schur_factor((1, 1), 5, 3)[1],
        "n(2n^2-3rn+r^2)/((r-2)(r-1)) * (r_n/r) at (n,r)=(2,5): ", "measured factor: ",
    ))

    # the theorem display ends its Delta_3 line in Delta_2(E); measured, the
    # class is a multiple of Delta_3(E) and of nothing in degree 2
    d3 = delta_k(oracle_schur_ch((2, 1), 4, 3), 3)
    _, base2, base3 = generic_discriminants(4, 3)
    ok3, lam3 = proportion(d3, base3)
    ok2, _ = proportion(d3, base2)
    measured = (
        f"multiple of Delta_3(E) (factor {lam3})" if ok3 and not ok2 else "unexpected"
    )
    rows.append(
        Claim(
            "schur-delta3-proportionality-target",
            "main scaling theorem display, Delta_3 line",
            "multiple of Delta_2(E)",
            measured,
            ok2,
        )
    )

    # degree-5 expansion: the displayed top coefficient reads 5 r^4 ch5 r^4
    r = 3
    rows.append(_compare(
        "delta5-ch5-coefficient", "degree-5 log expansion display",
        5 * r**8, delta_k(base_bundle(r, 5), 5).coefficient((0, 0, 0, 0, 1)),
        f"5*r^8 at r={r}: ", f"5*r^4 at r={r}: ",
    ))

    # symmetric-power table, degree 3, middle coefficient: (m+1) vs (m+r)
    m, r = 2, 3
    rows.append(_compare(
        "sym-ch3-middle-coefficient", "symmetric-power table, ch_3 line, c1*ch2 coefficient",
        Fraction((m - 1) * m * (m + 1), (r + 1) * (r + 2))
        * Fraction(binomial(m + r - 1, r - 1), r),
        sym_power_ch(m, r, 3).component(3).coefficient((1, 1, 0)),
        f"(m-1)m(m+1)/((r+1)(r+2)) (r_m/r) at ({m},{r}): ", "measured: ",
    ))

    # counterexample sum: the displayed value of d2(V) + d2(S^2 V), in the
    # paper's order of terms, which is not the canonical one
    measured_sum = d_k(base_bundle(2, 2), 2) + d_k(s2, 2)
    rows.append(
        Claim(
            "d2-sum-counterexample-value",
            "counterexample to additivity, sum value",
            "8*e2-2*e1^2",
            measured_sum.compact(),
            measured_sum == measured_sum.ring.parse("8*e2-2*e1^2"),
        )
    )

    # degree-4: the qualitative claim and the printed coefficient
    results = [
        verify_delta4_proportionality(m, r)
        for r, m in product(range(2, 5), range(1, 5))
    ]
    proportional = all(x.is_proportional for x in results)
    rows.append(
        Claim(
            "sym-delta4r-proportionality",
            "degree-4 symmetric-power lemma, qualitative claim",
            "Delta_{4,r}(S^m V) proportional to Delta_{4,r}(V)",
            "Delta_{4,r}(S^m V) proportional to Delta_{4,r}(V)"
            if proportional
            else "proportionality fails for "
            + ", ".join(f"(m={x.m}, r={x.r})" for x in results if not x.is_proportional),
            proportional,
        )
    )
    rows += [_compare(
        "sym-delta4-coefficient", f"degree-4 symmetric-power lemma at (m={x.m}, r={x.r})",
        x.printed, x.lam,
        "f4*(r_m/r)^4 = ", "measured ratio: ",
    ) for x in results]

    # hooks: the closing remark claims Delta_{4,t}(S^(m,1) V) is never a
    # multiple of Delta_{4,t}(V); measured, rank 3 is an accidental
    # proportionality regime and genuine witnesses start at rank 4
    r3 = verify_nonproportional_hook((2, 1), 3, 3)
    r4 = verify_nonproportional_hook((2, 1), 4, 4)
    rows.append(
        Claim(
            "hook-delta4t-nonproportionality",
            "degree-4 closing remark, hook partitions",
            "not a multiple for alpha=(m,1,0,...)",
            "multiple at (alpha=(2,1), r=3); not a multiple at (alpha=(2,1), r=4)"
            if (not r3) and r4
            else f"non-proportional: r=3 {r3}, r=4 {r4}",
            r3 and r4,
        )
    )

    # K3 example: v(S^2 E) = (3, 3H, d+3) from v(E) = (2, H, 2)
    d = 5
    rows.append(_compare(
        "mukai-sym-square", "K3 Mukai-vector example",
        MukaiVector(3, 3, d + 3, d), mukai_schur(MukaiVector(2, 1, 2, d), (2,)),
        "",
    ))
    return rows


def load_whitelist() -> dict[tuple[str, str], tuple[str, str]]:
    """The adjudicated rows: (claim, paper_location) -> (printed_value, measured_value)."""
    # only verify reads the whitelist; the json import would cost every command start-up
    import json

    with open(os.path.join(os.path.dirname(__file__), "whitelist.json"), encoding="utf-8") as f:
        data = json.load(f)
    return {
        (entry["claim"], row["paper_location"]): (row["printed_value"], row["measured_value"])
        for entry in data["expected"]
        for row in entry["rows"]
    }


def judge(rows: list[Claim]) -> tuple[list[str], list[str]]:
    """Each row's flag in the claim table, and one line per row the whitelist
    does not account for.

    A row that does not hold must be pinned with exactly its printed and
    measured values, and every pinned row must still appear and still fail to
    hold.  Rows and pins are keyed by (claim, paper_location), each key once.
    """
    pins = load_whitelist()
    flags, unexpected = [], []
    for row in rows:
        pin = pins.pop((row.claim, row.paper_location), None)
        got = (row.printed_value, row.measured_value)
        values = f"printed {got[0]!r}, measured {got[1]!r}"
        flag = row.status
        if row.holds:
            reason = None if pin is None else f"whitelisted but now confirmed; {values}"
        elif pin is None:
            reason = f"not whitelisted; {values}"
        elif pin == got:
            flag += ", whitelisted"
            reason = None
        else:
            reason = "drifted; " + ", ".join(
                f"{name} {new!r}, whitelisted {old!r}"
                for name, new, old in zip(("printed", "measured"), got, pin)
                if new != old
            )
        flags.append(flag)
        if reason is not None:
            unexpected.append(f"{row.claim} ({row.paper_location}): {reason}")
    unexpected.extend(
        f"{claim} ({location}): whitelisted row no longer appears" for claim, location in pins
    )
    return flags, unexpected
