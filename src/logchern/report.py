"""Measured claim table: printed values versus what the oracle computes.

Every row is an ``oracle.Claim``, the record the sweep's checks use too,
measured at run time -- nothing is hard-coded as true or false.  An equality
row is one ``_compare`` entry, which renders the printed and the measured
exact value after their labels and holds when the two are equal; four rows
whose claim is not such an equality are built by hand.  A row that holds reads
``confirmed``, otherwise ``typo-suspected``.  The shipped whitelist pins every
row that is expected not to hold, by claim and paper location, with the
printed and measured texts the oracle adjudicated, so the verify command can
pass while still reporting them.  ``judge`` reads the whitelist once and gives
each row its flag in the table and the lines for what the whitelist does not
account for: any other row that does not hold, and a pinned row whose texts
drift, that no longer appears, or that now holds.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product

from logchern.characters import base_bundle, d_k, delta_k, generic_discriminants
from logchern.formulas import sym_power_ch
from logchern.mukai import MukaiVector, mukai_schur
from logchern.oracle import (
    Claim,
    oracle_schur_ch,
    schur_factor,
    verify_delta4_proportionality,
    verify_nonproportional_hook,
)
from logchern.ring import proportion
from logchern.symfunc import binomial


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
    wedge_factor = schur_factor((1, 1), 4, 2, lambda a: delta_k(a, 2))[1]
    rows.append(_compare(
        "sym-square-delta2-factor", "slope/discriminant examples, Delta_2(S^2 V) line",
        10, schur_factor((2,), 3, 2, lambda a: delta_k(a, 2))[1],
        "(r+1)(r+2)/2 at r=3: ",
    ))
    rows.append(_compare(
        "wedge-square-delta2-factor", "slope/discriminant examples, Delta_2(wedge^2 V) line",
        3, wedge_factor,
        "(r-1)(r-2)/2 at r=4: ",
    ))

    # exterior table: printed proportionality factors carry a single power of
    # r_n/r where the scaling theorem requires the k-th power
    n, r = 2, 4
    rows.append(_compare(
        "ext-delta2-factor-power", "exterior-power table, Delta_2 line",
        Fraction(n * (r - n), r - 1) * Fraction(binomial(r, n), r), wedge_factor,
        f"n(r-n)/(r-1) * (r_n/r) at (n,r)=({n},{r}): ", "measured factor: ",
    ))
    n, r = 2, 5
    rows.append(_compare(
        "ext-delta3-factor-power", "exterior-power table, Delta_3 line",
        Fraction(n * (2 * n * n - 3 * r * n + r * r), (r - 2) * (r - 1))
        * Fraction(binomial(r, n), r),
        schur_factor((1, 1), r, 3, lambda a: delta_k(a, 3))[1],
        f"n(2n^2-3rn+r^2)/((r-2)(r-1)) * (r_n/r) at (n,r)=({n},{r}): ", "measured factor: ",
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
