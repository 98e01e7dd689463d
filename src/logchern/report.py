"""Measured claim table: printed values versus what the oracle computes.

Every row is measured at run time -- nothing is hard-coded as true or false.
A row whose printed and measured values agree is ``confirmed``; otherwise it
is ``typo-suspected``.  The shipped whitelist pins every row that is
expected to disagree, by claim and paper location, with the printed and
measured values the oracle adjudicated, so the verify command can pass while
still reporting them.  Any other disagreement is a real failure, and so is a
pinned row whose values drift, that no longer appears, or that now agrees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product

from logchern.characters import base_bundle, d_k, delta_k, generic_bundle
from logchern.formulas import sym_power_ch
from logchern.mukai import MukaiVector, mukai_schur
from logchern.oracle import (
    oracle_schur_ch,
    schur_factor,
    verify_delta4_proportionality,
    verify_nonproportional_hook,
)
from logchern.ring import proportion
from logchern.symfunc import binomial

CONFIRMED = "confirmed"
TYPO_SUSPECTED = "typo-suspected"


@dataclass(frozen=True)
class Discrepancy:
    claim: str
    paper_location: str
    printed_value: str
    measured_value: str
    status: str

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "paper_location": self.paper_location,
            "printed_value": self.printed_value,
            "measured_value": self.measured_value,
            "status": self.status,
        }


def _row(claim, location, printed, measured) -> Discrepancy:
    status = CONFIRMED if printed == measured else TYPO_SUSPECTED
    return Discrepancy(claim, location, str(printed), str(measured), status)


def build_report() -> list[Discrepancy]:
    """Assemble the full measured claim table."""
    rows: list[Discrepancy] = []

    # golden symmetric-square character at r = 2
    got = sym_power_ch(2, 2, 2)
    rows.append(
        _row(
            "sym-square-character-r2",
            "counterexample to additivity, displayed ch(S^2 V)",
            "(3, 3*e1, 1/2*e1^2+4*e2)",
            f"({got.rank}, {got.ch(1).compact()}, {got.ch(2).compact()})",
        )
    )

    # the two headline quadratic scaling factors; the wedge factor is also
    # the exterior table's Delta_2 line below
    wedge_factor = schur_factor((1, 1), 4, 2, lambda a: delta_k(a, 2))[1]
    rows.append(
        _row(
            "sym-square-delta2-factor",
            "slope/discriminant examples, Delta_2(S^2 V) line",
            "(r+1)(r+2)/2 at r=3: 10",
            f"(r+1)(r+2)/2 at r=3: {schur_factor((2,), 3, 2, lambda a: delta_k(a, 2))[1]}",
        )
    )
    rows.append(
        _row(
            "wedge-square-delta2-factor",
            "slope/discriminant examples, Delta_2(wedge^2 V) line",
            "(r-1)(r-2)/2 at r=4: 3",
            f"(r-1)(r-2)/2 at r=4: {wedge_factor}",
        )
    )

    # exterior table: printed proportionality factors carry a single power of
    # r_n/r where the scaling theorem requires the k-th power
    n, r = 2, 4
    printed2 = Fraction(n * (r - n), r - 1) * Fraction(binomial(r, n), r)
    rows.append(
        _row(
            "ext-delta2-factor-power",
            "exterior-power table, Delta_2 line",
            f"n(r-n)/(r-1) * (r_n/r) at (n,r)=(2,4): {printed2}",
            f"measured factor: {wedge_factor}",
        )
    )
    n, r = 2, 5
    printed3 = Fraction(n * (2 * n * n - 3 * r * n + r * r), (r - 2) * (r - 1)) * Fraction(
        binomial(r, n), r
    )
    rows.append(
        _row(
            "ext-delta3-factor-power",
            "exterior-power table, Delta_3 line",
            f"n(2n^2-3rn+r^2)/((r-2)(r-1)) * (r_n/r) at (n,r)=(2,5): {printed3}",
            f"measured factor: {schur_factor((1, 1), 5, 3, lambda a: delta_k(a, 3))[1]}",
        )
    )

    # the theorem display ends its Delta_3 line in Delta_2(E); measured, the
    # class is a multiple of Delta_3(E) and of nothing in degree 2
    sym = oracle_schur_ch((2, 1), 4, 3)
    base = generic_bundle(4, 3)
    ok3, lam3 = proportion(delta_k(sym, 3), delta_k(base, 3))
    ok2, _ = proportion(delta_k(sym, 3), delta_k(base, 2))
    measured = (
        f"multiple of Delta_3(E) (factor {lam3})" if ok3 and not ok2 else "unexpected"
    )
    rows.append(
        _row(
            "schur-delta3-proportionality-target",
            "main scaling theorem display, Delta_3 line",
            "multiple of Delta_2(E)",
            measured,
        )
    )

    # degree-5 expansion: the displayed top coefficient reads 5 r^4 ch5 r^4
    r = 3
    e = base_bundle(r, 5)
    ch5_coeff = delta_k(e, 5).coefficient((0, 0, 0, 0, 1))
    rows.append(
        _row(
            "delta5-ch5-coefficient",
            "degree-5 log expansion display",
            f"5*r^8 at r=3: {5 * r**8}",
            f"5*r^4 at r=3: {ch5_coeff}",
        )
    )

    # symmetric-power table, degree 3, middle coefficient: (m+1) vs (m+r)
    m, r = 2, 3
    printed_mid = Fraction((m - 1) * m * (m + 1), (r + 1) * (r + 2)) * Fraction(
        binomial(m + r - 1, r - 1), r
    )
    measured_mid = sym_power_ch(m, r, 3).ch(3).coefficient((1, 1, 0))
    rows.append(
        _row(
            "sym-ch3-middle-coefficient",
            "symmetric-power table, ch_3 line, c1*ch2 coefficient",
            f"(m-1)m(m+1)/((r+1)(r+2)) (r_m/r) at (2,3): {printed_mid}",
            f"measured: {measured_mid}",
        )
    )

    # counterexample sum: the displayed value of d2(V) + d2(S^2 V)
    v = base_bundle(2, 2)
    s2 = sym_power_ch(2, 2, 2)
    measured_sum = (d_k(v, 2) + d_k(s2, 2)).compact()
    rows.append(
        _row(
            "d2-sum-counterexample-value",
            "counterexample to additivity, sum value",
            "8*e2-2*e1^2",
            measured_sum,
        )
    )

    # degree-4: the qualitative claim and the printed coefficient
    results = [
        verify_delta4_proportionality(m, r)
        for r, m in product(range(2, 5), range(1, 5))
    ]
    rows.append(
        _row(
            "sym-delta4r-proportionality",
            "degree-4 symmetric-power lemma, qualitative claim",
            "Delta_{4,r}(S^m V) proportional to Delta_{4,r}(V)",
            "Delta_{4,r}(S^m V) proportional to Delta_{4,r}(V)"
            if all(x.is_proportional for x in results)
            else "proportionality fails for "
            + ", ".join(f"(m={x.m}, r={x.r})" for x in results if not x.is_proportional),
        )
    )
    for x in results:
        rows.append(
            _row(
                "sym-delta4-coefficient",
                f"degree-4 symmetric-power lemma at (m={x.m}, r={x.r})",
                f"f4*(r_m/r)^4 = {x.printed}",
                f"measured ratio: {x.lam}",
            )
        )

    # hooks: the closing remark claims Delta_{4,t}(S^(m,1) V) is never a
    # multiple of Delta_{4,t}(V); measured, rank 3 is an accidental
    # proportionality regime and genuine witnesses start at rank 4
    r3 = verify_nonproportional_hook((2, 1), 3, 3)
    r4 = verify_nonproportional_hook((2, 1), 4, 4)
    rows.append(
        _row(
            "hook-delta4t-nonproportionality",
            "degree-4 closing remark, hook partitions",
            "not a multiple for alpha=(m,1,0,...)",
            "multiple at (alpha=(2,1), r=3); not a multiple at (alpha=(2,1), r=4)"
            if (not r3) and r4
            else f"non-proportional: r=3 {r3}, r=4 {r4}",
        )
    )

    # K3 example: v(S^2 E) = (3, 3H, d+3) from v(E) = (2, H, 2)
    d = 5
    got_v = mukai_schur(MukaiVector(2, 1, 2, d), (2,))
    rows.append(
        _row(
            "mukai-sym-square",
            "K3 Mukai-vector example",
            f"(3, 3*H, {d + 3})",
            str(got_v),
        )
    )
    return rows


def load_whitelist() -> dict[tuple[str, str], tuple[str, str]]:
    """The adjudicated rows: (claim, paper_location) -> (printed_value, measured_value)."""
    text = resources.files("logchern").joinpath("whitelist.json").read_text()
    data = json.loads(text)
    return {
        (entry["claim"], row["paper_location"]): (row["printed_value"], row["measured_value"])
        for entry in data["expected"]
        for row in entry["rows"]
    }


def unexpected_discrepancies(rows: list[Discrepancy]) -> list[str]:
    """One line for each row the whitelist does not account for.

    A non-confirmed row must be pinned with exactly its printed and measured
    values, and every pinned row must still appear and still disagree.
    """
    pins = load_whitelist()
    out = []
    for row in rows:
        pin = pins.get((row.claim, row.paper_location))
        got = (row.printed_value, row.measured_value)
        values = f"printed {got[0]!r}, measured {got[1]!r}"
        if row.status == CONFIRMED:
            if pin is None:
                continue
            reason = f"whitelisted but now confirmed; {values}"
        elif pin is None:
            reason = f"not whitelisted; {values}"
        elif pin == got:
            continue
        else:
            reason = "drifted; " + ", ".join(
                f"{name} {new!r}, whitelisted {old!r}"
                for name, new, old in zip(("printed", "measured"), got, pin)
                if new != old
            )
        out.append(f"{row.claim} ({row.paper_location}): {reason}")
    present = {(row.claim, row.paper_location) for row in rows}
    out.extend(
        f"{claim} ({location}): whitelisted row no longer appears"
        for claim, location in pins
        if (claim, location) not in present
    )
    return out


def format_table(rows: list[Discrepancy]) -> str:
    """Human-readable claim table."""
    pins = load_whitelist()
    lines = []
    for row in rows:
        flag = row.status
        pin = pins.get((row.claim, row.paper_location))
        if row.status != CONFIRMED and pin == (row.printed_value, row.measured_value):
            flag += ", whitelisted"
        lines.append(f"[{flag}] {row.claim}")
        lines.append(f"    where:    {row.paper_location}")
        lines.append(f"    printed:  {row.printed_value}")
        lines.append(f"    measured: {row.measured_value}")
    return "\n".join(lines)
