"""Acceptance suite: one test per criterion, every comparison exact.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines.  Two sub-assertions are strict xfails: printed values whose
measured adjudication (recorded in the claim table and the project notes)
shows the printed source line cannot be reproduced by any consistent
convention.  Everything substantive is asserted green.
"""

import random
import time
from fractions import Fraction

import pytest

from logchern.characters import (
    BundleCharacter,
    base_bundle,
    ch_ring,
    d_k,
    delta_k,
    from_chern_classes,
    generic_bundle,
    log_character,
    modified_delta,
    power_sum_character,
    tensor,
)
from logchern.formulas import hc_shift_check, sym_power_ch
from logchern.mukai import MukaiVector, is_primitive, mukai_schur
from logchern.oracle import (
    base_in_roots,
    exp_roots,
    oracle_schur_ch,
    root_ring,
    sweep,
    verify_delta4_proportionality,
    verify_nonproportional_hook,
)
from logchern.report import build_report
from logchern.ring import PolyRing, graded_generators, proportion
from logchern.symfunc import (
    enumerate_partitions,
    power_sum_poly,
    schur_in_roots,
    weyl_dim,
)
from logchern.ring import root_generators
from witness import plain_delta4_witnesses, ssyt_count, verify_sym_power_full


def _random_character(ring, rng):
    rank = Fraction(rng.choice([1, 2, 3, 5, -2, 7]), rng.choice([1, 2, 3]))
    comps = []
    for k in range(1, ring.truncation + 1):
        terms = {}
        for exps in _monomials_of_degree(ring, k):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if c:
                terms[exps] = c
        comps.append(ring.from_terms(terms))
    return BundleCharacter(sum(comps, ring.scalar(rank)))


def _monomials_of_degree(ring, k):
    degs = ring.degrees
    out = []

    def rec(i, remaining, exps):
        if i == len(degs):
            if remaining == 0:
                out.append(tuple(exps))
            return
        for e in range(remaining // degs[i] + 1):
            rec(i + 1, remaining - e * degs[i], exps + [e])

    rec(0, k, [])
    return out


def _delta2_factor(alpha, r):
    sym = oracle_schur_ch(alpha, r, 2)
    ok, lam = proportion(delta_k(sym, 2), delta_k(generic_bundle(r, 2), 2))
    assert ok
    return lam


def test_criterion_01_oracle_vs_closed_sweep():
    t0 = time.time()
    report = sweep(5, 6, 3)
    elapsed = time.time() - t0
    assert report.cases == 91
    assert report.failed == 0, [
        (str(rec.alpha), rec.r, [c.name for c in rec.failures()])
        for rec in report.records
        if not rec.ok
    ]
    assert elapsed < 120
    print(
        f"\nACCEPTANCE 1 (oracle-vs-closed sweep, r<=5, |alpha|<=6): "
        f"PASS ({report.cases} cases, {elapsed:.1f}s)"
    )


def test_criterion_02_symmetric_power_full_degree():
    for r in range(2, 5):
        for m in range(6):
            chk = verify_sym_power_full(m, r, 5)
            assert chk.passed, (m, r, chk.lhs, chk.rhs)
    print("\nACCEPTANCE 2 (symmetric-power sum vs oracle, all degrees <= 5): PASS")


def test_criterion_03_golden_values():
    ring = ch_ring(2)
    s2 = sym_power_ch(2, 2, 2)
    assert s2.rank == 3
    assert s2.ch(1) == ring.parse("3*e1")
    assert s2.ch(2) == ring.parse("1/2*e1^2 + 4*e2")

    v = base_bundle(2, 2)
    lhs = d_k(v + s2, 2)
    assert lhs == ring.parse("5*e2 - 11/10*e1^2")
    total = d_k(v, 2) + d_k(s2, 2)
    assert total == ring.parse("5*e2 - 5/4*e1^2")
    assert lhs != total  # additivity fails, which is the point

    for r in range(2, 7):
        assert _delta2_factor((2,), r) == Fraction((r + 1) * (r + 2), 2)
        assert _delta2_factor((1, 1), r) == Fraction((r - 1) * (r - 2), 2)
    print("\nACCEPTANCE 3 (golden character/discriminant values): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="printed sum 8*e2 - 2*e1^2 equals 2*d2(S^2 V), not d2(V)+d2(S^2 V); "
    "no power-law convention reproduces it together with the displayed "
    "d2(V + S^2 V) (see the claim table and project notes)",
)
def test_criterion_03_printed_sum_value():
    print("\nACCEPTANCE 3 (printed sum value 8*e2 - 2*e1^2): EXPECTED FAIL (misprint)")
    ring = ch_ring(2)
    v = base_bundle(2, 2)
    s2 = sym_power_ch(2, 2, 2)
    assert d_k(v, 2) + d_k(s2, 2) == ring.parse("8*e2 - 2*e1^2")


def test_criterion_04_log_multiplicativity_200_pairs():
    rng = random.Random(20240817)
    ring = ch_ring(5)
    for _ in range(200):
        a = _random_character(ring, rng)
        b = _random_character(ring, rng)
        assert log_character(tensor(a, b)) == log_character(a) + log_character(b)
    print("\nACCEPTANCE 4 (log-multiplicativity, 200 random virtual pairs): PASS")


def test_criterion_05_low_rank_vanishing():
    def generic(r, D=5):
        ring = PolyRing(graded_generators("c", D), D)
        classes = [ring.gen(f"c{i}") for i in range(1, min(r, D) + 1)]
        return from_chern_classes(r, classes, ring)

    assert delta_k(generic(1), 2).is_zero()
    for r in (1, 2):
        assert delta_k(generic(r), 3).is_zero()
    for r in (1, 2, 3):
        assert modified_delta(generic(r), 4).is_zero()
    for r in (1, 2, 3, 4):
        assert modified_delta(generic(r), 5).is_zero()
    assert not modified_delta(generic(4), 4).is_zero()
    print("\nACCEPTANCE 5 (low-rank vanishing + generic rank-4 nonvanishing): PASS")


def test_criterion_06_delta4_proportionality():
    for r in range(2, 5):
        for m in range(1, 5):
            res = verify_delta4_proportionality(m, r)
            assert res.is_proportional, (m, r)
            if m == 1:
                assert res.lam == 1
    # measured ratios are recorded next to the printed coefficient
    rows = [d for d in build_report() if d.claim == "sym-delta4-coefficient"]
    assert len(rows) == 12
    assert all("measured ratio" in d.measured_value for d in rows)
    # the unmodified degree-4 class does fail proportionality somewhere
    assert plain_delta4_witnesses() == [(2, 4), (3, 4), (4, 4)]
    # hook check: measured adjudication (see notes) -- rank 3 is accidentally
    # proportional, the genuine witness lives at rank 4
    assert verify_nonproportional_hook((2, 1), 3, 3) is False
    assert verify_nonproportional_hook((2, 1), 4, 4) is True
    print(
        "\nACCEPTANCE 6 (degree-4 proportionality, witnesses, ratios recorded): PASS"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the closing remark's hook witness at alpha=(2,1), r=3 measures as "
    "proportional for every t (rank-3 relations); genuine witnesses start "
    "at rank 4 (see the claim table and project notes)",
)
def test_criterion_06_hook_witness_at_rank_three():
    print("\nACCEPTANCE 6 (hook witness at rank 3): EXPECTED FAIL (holds from rank 4)")
    assert verify_nonproportional_hook((2, 1), 3, 3) is True


def test_criterion_07_shift_identities():
    for k in (2, 3):
        for r in (2, 3, 4):
            rep = hc_shift_check(k, r)
            assert rep.passed, rep.failures
            assert rep.points == 7**r
        rep = hc_shift_check(k, 5, max_points=2000, seed=0)
        assert rep.passed and rep.points == 2000
    print("\nACCEPTANCE 7 (shifted-variable + translation identities): PASS")


def test_criterion_08_three_dimension_counts_agree():
    ones_ring = PolyRing(root_generators(1), 1)
    for r in range(2, 6):
        ones = [ones_ring.one()] * r
        for size in range(7):
            for alpha in enumerate_partitions(size, r):
                wd = weyl_dim(alpha, r)
                assert wd == ssyt_count(alpha, r)
                assert wd == schur_in_roots(alpha, r, ones).constant()
    print("\nACCEPTANCE 8 (Weyl = SSYT = Schur-at-ones dimension counts): PASS")


def test_criterion_09_mukai_example():
    for d in range(1, 13):
        got = mukai_schur(MukaiVector(2, 1, 2, d), (2,))
        assert (got.r, got.c, got.s) == (3, 3, d + 3)
        assert is_primitive(got) == (d % 3 != 0)
    print("\nACCEPTANCE 9 (K3 Mukai vectors and primitivity): PASS")


def test_criterion_10_weak_additivity_and_power_sum_law():
    rng = random.Random(99)

    def p_alpha(alpha, r, D):
        acc = None
        for part in alpha:
            chpart = power_sum_character(part, r, D)
            acc = chpart if acc is None else tensor(acc, chpart)
        return acc

    def combo(monos):
        acc = None
        for mono in monos:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            term = mono.scale(c)
            acc = term if acc is None else acc + term
        return acc

    checked = 0
    for r in range(2, 5):
        for d in range(1, 5):
            monos = [p_alpha(a, r, 3) for a in enumerate_partitions(d, d)]
            for _ in range(5):
                u1, u2 = combo(monos), combo(monos)
                if 0 in (u1.rank, u2.rank, (u1 + u2).rank):
                    continue
                for k in (2, 3):
                    assert d_k(u1 + u2, k) == d_k(u1, k) + d_k(u2, k)
                    checked += 1
    assert checked > 80

    # oracle-built power-sum characters: (d_k/ch0)(P_l) = l^k (d_k/ch0)(V)
    for r in (2, 3, 4):
        ring = root_ring(r, 5)
        base = base_in_roots(r, 5)
        for ell in range(1, 6):
            p_ell = BundleCharacter(power_sum_poly(ell, exp_roots(ring)))
            for k in range(1, 6):
                lhs = d_k(p_ell, k) / p_ell.rank
                assert lhs == (d_k(base, k) / base.rank).scale(ell**k)
    print("\nACCEPTANCE 10 (weak additivity + power-sum scaling law): PASS")
