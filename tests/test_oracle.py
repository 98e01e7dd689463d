import json
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from logchern.characters import (
    adams,
    base_bundle,
    ch_ring,
    d_k,
    delta4t,
    delta_k,
    discriminants,
    generic_bundle,
    normal_form,
)
from logchern.cli import main
from logchern.formulas import schur_ch3
from logchern.mukai import MukaiVector
from logchern.oracle import (
    base_in_roots,
    char_to_roots,
    exp_roots,
    oracle_schur_ch,
    root_ring,
    schur_of,
)
from logchern.report import (
    Claim,
    SweepReport,
    VerificationRecord,
    _equality_check,
    _factor_check,
    _over_e,
    schur_factor,
    sweep,
    verify_delta4_proportionality,
    verify_nonproportional_hook,
    verify_schur,
)
from logchern.ring import GradedPoly, proportion
from logchern.symfunc import (
    Partition,
    enumerate_partitions,
    newton_next,
    PowerSumSchur,
    power_sum_poly,
    weyl_dim,
)
from witness import (
    conjugate,
    horizontal_strips,
    over_e_from_terms,
    plain_delta4_witnesses,
    power_sum_character_by_generators,
    roots_to_ch_basis,
    ssyt_count,
    tableau_schur_total,
    verify_sym_power_full,
    witness_schur_total,
)


class TestOracleCharacter:
    def test_standard_rep_is_base(self):
        # literal equality needs degree <= r; below that the e-expression is
        # the canonical section and agreement holds on the generic bundle
        for r in (3, 4):
            assert oracle_schur_ch((1,), r, 3) == base_bundle(r, 3)
        got = oracle_schur_ch((1,), 2, 3)
        assert char_to_roots(got, 2) == char_to_roots(base_bundle(2, 3), 2)

    def test_sym_square_rank_two(self):
        got = oracle_schur_ch((2,), 2, 2)
        ring = ch_ring(2)
        assert got.constant() == 3
        assert got.component(1) == ring.parse("3*e1")
        assert got.component(2) == ring.parse("1/2*e1^2 + 4*e2")

    def test_wedge_square_rank_two(self):
        got = oracle_schur_ch((1, 1), 2, 2)
        ring = ch_ring(2)
        assert got.constant() == 1
        assert got.component(1) == ring.parse("e1")
        assert got.component(2) == ring.parse("1/2*e1^2")

    def test_rank_is_weyl_dim_everywhere(self):
        for r in (2, 3):
            for size in range(1, 5):
                for alpha in enumerate_partitions(size, r):
                    got = oracle_schur_ch(alpha, r, 2)
                    assert got.constant() == weyl_dim(alpha, r) == ssyt_count(alpha, r)

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError):
            oracle_schur_ch((1, 1, 1), 2, 2)

    def test_slope_law(self):
        # ch1/ch0 of S^alpha E is |alpha| * e1 / r, exactly
        for r in (2, 3, 4):
            for size in range(1, 5):
                for alpha in enumerate_partitions(size, r):
                    got = oracle_schur_ch(alpha, r, 2)
                    expect = got.ring.gen("e1").scale(
                        Fraction(size) * got.constant() / r
                    )
                    assert got.component(1) == expect

    def test_oracle_equals_the_tableau_definition(self):
        # s_alpha as the sum of x^T over semistandard tableaux: the one witness
        # that shares neither Newton's identities nor Giambelli's determinant with the oracle
        cases = 0
        for r in range(1, 5):
            for size in range(7):
                for alpha in enumerate_partitions(size, r):
                    got = roots_to_ch_basis(tableau_schur_total(alpha, r, 3), r)
                    assert got == oracle_schur_ch(alpha, r, 3), (alpha, r)
                    cases += 1
        assert cases == 73

    def test_round_trip_through_roots(self):
        # e-basis output evaluated back on the generic bundle returns the total
        for alpha, r in (((2, 1), 3), ((2,), 2), ((3, 2), 4)):
            total = witness_schur_total(alpha, r, 4)
            again = char_to_roots(roots_to_ch_basis(total, r), r)
            assert again == total
            assert char_to_roots(oracle_schur_ch(alpha, r, 4), r) == total


def _e_monomials(D):
    """Exponent vectors of every monomial in e1..eD of weight <= D."""
    out = []
    for k in range(D + 1):
        for mu in enumerate_partitions(k, k):
            exps = [0] * D
            for part in mu:
                exps[part - 1] += 1
            out.append(tuple(exps))
    return out


def _draw_poly(data, ring):
    monos = _e_monomials(ring.truncation)
    nums = data.draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
    den = data.draw(st.integers(1, 3))
    return ring.from_terms({m: Fraction(n, den) for m, n in zip(monos, nums)})


class TestRootRingWitness:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_adams_oracle_equals_root_ring_witness(self, data):
        r = data.draw(st.integers(1, 5))
        D = data.draw(st.integers(1, 5))
        size = data.draw(st.integers(0, 5))
        alpha = data.draw(st.sampled_from(enumerate_partitions(size, r)))
        expect = roots_to_ch_basis(witness_schur_total(alpha, r, D), r)
        assert oracle_schur_ch(alpha, r, D) == expect

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_normal_form_equality_is_root_ring_equality(self, data):
        D = data.draw(st.integers(2, 5))
        r = data.draw(st.integers(1, D - 1))
        ring = ch_ring(D)
        generic = generic_bundle(r, D)
        a = _draw_poly(data, ring)
        # b agrees with a on every rank-r bundle unless the perturbation moves it
        b = a
        for k in range(r + 1, D + 1):
            relation = ring.gen(f"e{k}") - generic.component(k)
            b = b + relation * _draw_poly(data, ring)
        if data.draw(st.booleans()):
            b = b + _draw_poly(data, ring)

        def on_roots(p):
            return char_to_roots(p, r)

        na, nb = normal_form(a, r), normal_form(b, r)
        assert (na == nb) == (on_roots(a) == on_roots(b))
        assert on_roots(na) == on_roots(a)
        assert all(not any(exps[r:]) for exps in na.terms)
        assert normal_form(na, r) == na

    def test_delta3_is_literally_zero_at_rank_two_or_less(self):
        for r in (1, 2):
            for size in range(9):
                for alpha in enumerate_partitions(size, r):
                    ds = discriminants(oracle_schur_ch(alpha, r, 3), 3)
                    assert ds[2].is_zero(), (alpha, r)


class TestNormalForm:
    def test_identity_up_to_the_rank(self):
        ring = ch_ring(3)
        p = ring.parse("1 + e3 - 2*e1*e2")
        assert normal_form(p, 3) is p
        assert normal_form(p, 4) is p

    def test_line_bundle(self):
        # rank 1: ch(L) = exp(e1), so e_k reduces to e1^k/k!
        ring = ch_ring(3)
        assert normal_form(ring.parse("e2 + e3"), 1) == ring.parse("1/2*e1^2 + 1/6*e1^3")

    def test_generic_bundle_is_base_up_to_the_rank(self):
        assert generic_bundle(3, 3) == base_bundle(3, 3)
        assert generic_bundle(2, 3).component(3) == normal_form(ch_ring(3).gen("e3"), 2)

    def test_rejects_other_rings(self):
        with pytest.raises(ValueError):
            normal_form(root_ring(2, 3).one(), 1)
        with pytest.raises(ValueError):
            normal_form(ch_ring(3).gen("e3"), 0)


class TestOracleConsistency:
    def test_pieri_tensor_consistency(self):
        # s_1 * s_m = s_(m+1) + s_(m,1)
        for r in (2, 3):
            for m in (1, 2, 3):
                D = 3
                v = oracle_schur_ch((1,), r, D)
                sm = oracle_schur_ch((m,), r, D)
                lhs = v * sm
                rhs = oracle_schur_ch((m + 1,), r, D)
                if r >= 2:
                    rhs = rhs + oracle_schur_ch((m, 1), r, D)
                assert lhs == rhs

    def test_power_sum_character_law(self):
        # P_d built from p_d(exp roots): (d_k/ch0)(P_d) = d^k (d_k/ch0)(E)
        r, D = 3, 5
        ring = root_ring(r, D)
        base = base_in_roots(r, D)
        for d in (1, 2, 3, 4, 5):
            p_d = power_sum_poly(d, exp_roots(ring))
            assert p_d.constant() == r
            for k in range(1, 6):
                lhs = d_k(p_d, k) / p_d.constant()
                rhs = (d_k(base, k) / base.constant()).scale(d**k)
                assert lhs == rhs

    def test_f_coefficient_log_multiplicativity(self):
        # f_k(A (x) B) = ch0(B) f_k(A) + ch0(A) f_k(B) via oracle d_k values
        r, D = 3, 3
        base = generic_bundle(r, D)
        for a, b in ((1, 2), (2, 2), (1, 3)):
            sa = oracle_schur_ch((a,), r, D)
            sb = oracle_schur_ch((b,), r, D)
            ab = sa * sb
            for k in (2, 3):
                fa = proportion(d_k(sa, k), d_k(base, k))[1]
                fb = proportion(d_k(sb, k), d_k(base, k))[1]
                fab = proportion(d_k(ab, k), d_k(base, k))[1]
                assert fab == sb.constant() * fa + sa.constant() * fb


class TestVerifySchur:
    def test_all_equal_record(self):
        for alpha, r in (((3,), 4), ((2, 1), 3), ((2,), 2), ((2, 2), 2)):
            rec = verify_schur(alpha, r)
            assert rec.ok, rec.failures()

    def test_determinant_line_vanishing(self):
        rec = verify_schur((1, 1, 1), 3)
        assert rec.ok
        # Delta_2 of the determinant line vanishes on both sides
        names = [c.claim for c in rec.checks]
        assert any("Delta_2" in n for n in names)

    def test_rank_two_delta3_vanishing_regime(self):
        rec = verify_schur((2,), 2)
        assert rec.ok
        assert any("vanishing" in c.claim for c in rec.checks)

    def test_refuses_too_many_parts_and_a_bad_rank(self):
        # the sweep reads the oracle unguarded, so the table and the generic
        # bundle refuse these, with the oracle's own messages
        with pytest.raises(ValueError, match=r"^partition \(3, 2, 1\) has more than 2 parts$"):
            verify_schur((3, 2, 1), 2)
        with pytest.raises(ValueError, match="^rank must be a positive integer$"):
            verify_schur((1,), 0)

    def test_failure_stores_both_sides(self):
        ring = ch_ring(2)
        chk = _equality_check("demo", ring.parse("e1"), ring.parse("2*e1"))
        assert not chk.holds
        assert chk.measured_value == "e1" and chk.printed_value == "2*e1"

    def test_factor_check(self):
        # the expected factor is an int pair, reduced or not
        ring = ch_ring(2)
        base = ring.parse("e2 - 1/2*e1^2")
        measured = base.scale(Fraction(10, 3))
        name = "Delta_2 scaling"
        assert _factor_check(name, measured, base, (20, 6)) == Claim(name, "", "", "", True)
        assert _factor_check(name, ring.zero(), base, (0, 5)) == Claim(name, "", "", "", True)
        assert _factor_check(name, measured, base, (20, 3)) == Claim(
            name, "", "factor 20/3", "factor 10/3", False
        )
        assert _factor_check(name, measured + ring.parse("e1^2"), base, (10, 3)) == Claim(
            name, "", "factor 10/3", "factor none", False
        )
        assert _factor_check(name, ring.zero(), ring.zero(), None) == Claim(
            name + " (vanishing regime)", "", "", "", True
        )
        assert _factor_check(name, measured, ring.zero(), None) == Claim(
            name, "", "0", "-5/3*e1^2 + 10/3*e2", False
        )

    def test_rank_six_beyond_the_sweep_box(self):
        for alpha in ((3,), (2, 1), (1, 1, 1)):
            rec = verify_schur(alpha, 6)
            assert rec.ok, rec.failures()

    def test_over_e_equals_the_from_terms_route(self):
        # at D > r the normal form gives the totals a denominator, which the
        # cut to degrees <= t can reduce
        for r, D in ((1, 3), (2, 3), (3, 3), (2, 5)):
            for size in range(1, 5):
                for alpha in enumerate_partitions(size, r):
                    total = oracle_schur_ch(alpha, r, D)
                    for t in range(1, D):
                        assert _over_e(total, t) == over_e_from_terms(total, t)
                    assert _over_e(total, D) is total
        total = generic_bundle(1, 5)
        assert total.den > 1
        assert _over_e(total, 2) == over_e_from_terms(total, 2)


class TestSymPowerFullDegree:
    def test_all_degrees_up_to_five(self):
        for r in (2, 3):
            for m in range(5):
                chk = verify_sym_power_full(m, r, 5)
                assert chk.holds, (m, r, chk.measured_value, chk.printed_value)

    def test_rank_five(self):
        for m in range(6):
            chk = verify_sym_power_full(m, 5, 5)
            assert chk.holds, (m, chk.measured_value, chk.printed_value)


class TestDelta4:
    def test_identity_functor_ratio(self):
        for r in (2, 3, 4):
            res = verify_delta4_proportionality(1, r)
            assert res.is_proportional and res.lam == 1

    def test_m2_r3_measured_ratio(self):
        # frozen from the oracle: exact division of the two degree-4 classes
        res = verify_delta4_proportionality(2, 3)
        assert res.is_proportional
        assert res.lam == 88
        assert res.printed == Fraction(88, 3)

    def test_plain_delta4_has_witnesses(self):
        wits = plain_delta4_witnesses()
        assert wits == [(2, 4), (3, 4), (4, 4)]

    def test_hook_rank_three_is_accidentally_proportional(self):
        # measured adjudication: rank 3 relations force proportionality
        assert verify_nonproportional_hook((2, 1), 3, 3) is False

    def test_hook_rank_four_witness(self):
        assert verify_nonproportional_hook((2, 1), 4, 4) is True
        assert verify_nonproportional_hook((3, 1), 4, 4) is True

    def test_t_must_be_exact(self):
        # t is read as delta4t reads it: a float or a bool is no rational
        for t in (0.1, True):
            with pytest.raises(TypeError, match="not an exact rational"):
                verify_delta4_proportionality(2, 3, t)
            with pytest.raises(TypeError, match="not an exact rational"):
                verify_nonproportional_hook((2, 1), 3, t)

    def test_degenerate_hook_is_base(self):
        for t in (2, 5):
            assert verify_nonproportional_hook((1,), 3, t) is False

    def test_schur_factor_divides_by_the_class_of_the_generic_bundle(self):
        # S^(1) E = E, so its factor is 1 wherever c(E) does not vanish
        for r in range(1, 6):
            for k in range(1, 5):
                lam = None if delta_k(generic_bundle(r, k), k).is_zero() else 1
                assert schur_factor((1,), r, k) == (True, lam), (r, k)
            for t in (Fraction(r), Fraction(-2, 3), 1):
                lam = None if delta4t(generic_bundle(r, 4), t).is_zero() else 1
                assert schur_factor((1,), r, 4, t) == (True, lam), (r, t)
        assert schur_factor((2,), 3, 4, Fraction(3)) == (True, 88)


class TestSweep:
    def test_tiny_sweep(self):
        rep = sweep(2, 2)
        assert rep.cases == 3  # (1), (2), (1,1) at r = 2
        assert rep.passed == 3 and rep.failed == 0

    def test_single_trivial_case(self):
        rep = sweep(1, 1)
        assert rep.cases == 1  # just (1) at r = 1
        assert rep.passed == 1

    def test_case_order_deterministic(self):
        a = sweep(3, 3)
        b = sweep(3, 3)
        assert [(r.alpha, r.r) for r in a.records] == [
            (r.alpha, r.r) for r in b.records
        ]

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            sweep(7, 2)
        with pytest.raises(ValueError):
            sweep(2, 9)

    def test_counts_with_a_failing_record(self):
        ok = VerificationRecord(Partition((1,)), 2, (Claim("a", "", "", "", True),))
        bad = VerificationRecord(
            Partition((2,)), 2, (Claim("a", "", "", "", True), Claim("b", "", "2", "1", False))
        )
        rep = SweepReport((ok, bad, ok))
        assert (rep.cases, rep.passed, rep.failed) == (3, 2, 1)
        assert rep.to_json_dict() == {"cases": 3, "passed": 2, "failed": 1}
        assert [c.claim for c in bad.failures()] == ["b"]

    def test_records_are_immutable_values(self):
        claim = Claim("a", "here", "1", "2", False)
        record = VerificationRecord(Partition((2,)), 3, (claim,))
        report = SweepReport((record,))
        result = verify_delta4_proportionality(2, 3)
        for value, field, new in (
            (claim, "holds", True),
            (record, "checks", ()),
            (report, "records", ()),
            (result, "lam", Fraction(0)),
        ):
            with pytest.raises(AttributeError):
                setattr(value, field, new)
            changed = value._replace(**{field: new})
            assert getattr(changed, field) == new and getattr(value, field) != new
            assert [getattr(changed, f) for f in value._fields if f != field] == [
                getattr(value, f) for f in value._fields if f != field
            ]
            assert type(changed) is type(value)
        assert claim == Claim("a", "here", "1", "2", False)
        assert claim != Claim("a", "here", "1", "2", True)
        assert claim._replace(holds=True).status == "confirmed"

    def test_passing_check_has_empty_sides(self):
        ring = ch_ring(2)
        chk = _equality_check("a", ring.parse("e1"), ring.parse("e1"))
        assert chk.holds and chk.status == "confirmed"
        assert (chk.paper_location, chk.printed_value, chk.measured_value) == ("", "", "")

    def test_json_schema(self):
        data = sweep(2, 2).to_json_dict()
        assert list(data) == ["cases", "passed", "failed"]
        assert data == {"cases": 3, "passed": 3, "failed": 0}


class TestReport:
    def test_all_discrepancies_whitelisted(self):
        from logchern.report import build_report, judge

        rows = build_report()
        flags, unexpected = judge(rows)
        assert unexpected == []
        assert flags == [row.status + ("" if row.holds else ", whitelisted") for row in rows]
        statuses = {row.claim: row.status for row in rows}
        assert statuses["sym-square-character-r2"] == "confirmed"
        assert statuses["mukai-sym-square"] == "confirmed"
        assert statuses["delta5-ch5-coefficient"] == "typo-suspected"
        assert statuses["ext-delta2-factor-power"] == "typo-suspected"

    def test_unknown_mismatch_is_not_whitelisted(self):
        from logchern.report import build_report, judge

        rogue = Claim("new-claim", "somewhere", "1", "2", False)
        fine = Claim("new-claim-2", "somewhere", "1", "1", True)
        flags, unexpected = judge(build_report() + [rogue, fine])
        assert flags[-2:] == ["typo-suspected", "confirmed"]
        assert unexpected == ["new-claim (somewhere): not whitelisted; printed '1', measured '2'"]

    def test_every_whitelisted_row_is_pinned(self):
        from logchern.report import build_report, load_whitelist

        pins = load_whitelist()
        rows = [row for row in build_report() if not row.holds]
        assert len(pins) == len(rows) == 19
        for row in rows:
            assert pins[row.claim, row.paper_location] == (row.printed_value, row.measured_value)

    def test_rows_and_pins_have_unique_keys(self):
        # judge matches each row to its pin by (claim, paper_location)
        import logchern.report
        from logchern.report import build_report

        rows = [(row.claim, row.paper_location) for row in build_report()]
        path = Path(logchern.report.__file__).with_name("whitelist.json")
        data = json.loads(path.read_text(encoding="utf-8"))
        pins = [(e["claim"], row["paper_location"]) for e in data["expected"] for row in e["rows"]]
        assert len(set(rows)) == len(rows)
        assert len(set(pins)) == len(pins)

    def test_verify_loads_the_whitelist_once(self, capsys, monkeypatch):
        import logchern.report

        calls = []
        original = logchern.report.load_whitelist
        monkeypatch.setattr(logchern.report, "load_whitelist", lambda: calls.append(1) or original())
        for fmt in ("text", "json"):
            calls.clear()
            assert main(["verify", "--max-rank", "2", "--max-size", "2", "--format", fmt]) == 0
            assert len(calls) == 1
        capsys.readouterr()

    def test_stale_and_missing_pins_are_unexpected(self):
        from logchern.report import build_report, judge

        rows = build_report()
        i = next(i for i, row in enumerate(rows) if row.claim == "delta5-ch5-coefficient")
        agreed = rows[i]._replace(printed_value=rows[i].measured_value, holds=True)
        assert judge(rows[:i] + [agreed] + rows[i + 1 :])[1] == [
            "delta5-ch5-coefficient (degree-5 log expansion display): whitelisted but now "
            "confirmed; printed '5*r^4 at r=3: 405', measured '5*r^4 at r=3: 405'"
        ]
        assert judge(rows[:i] + rows[i + 1 :])[1] == [
            "delta5-ch5-coefficient (degree-5 log expansion display): "
            "whitelisted row no longer appears"
        ]


def _verify_small(capsys, *extra):
    code = main(["verify", "--max-rank", "3", "--max-size", "3", *extra])
    return code, capsys.readouterr().out


class TestWhitelistMutations:
    """A whitelisted row whose values drift, or now agree, fails ``verify``."""

    def test_doubled_delta5_fails_verify(self, capsys, monkeypatch):
        import logchern.characters

        original = logchern.characters.discriminants

        def doubled_delta5(a, up_to):
            ds = original(a, up_to)
            return ds[:4] + tuple(d.scale(2) for d in ds[4:5]) + ds[5:]

        monkeypatch.setattr(logchern.characters, "discriminants", doubled_delta5)
        code, out = _verify_small(capsys)
        assert code == 1
        assert "[typo-suspected] delta5-ch5-coefficient" in out
        reason = (
            "delta5-ch5-coefficient (degree-5 log expansion display): drifted; "
            "measured '5*r^4 at r=3: 810', whitelisted '5*r^4 at r=3: 405'"
        )
        assert f"  {reason}\n" in out
        code, out = _verify_small(capsys, "--format", "json")
        assert code == 1
        assert json.loads(out)["unexpected"] == [reason]

    def test_mutated_exterior_factor_fails_verify(self, capsys, monkeypatch):
        import logchern.report

        original = logchern.report.schur_factor

        def doubled_wedge_delta3(alpha, r, k, t=None):
            ok, lam = original(alpha, r, k, t)
            if (Partition(alpha), r, k) == ((1, 1), 5, 3):
                lam *= 2
            return ok, lam

        monkeypatch.setattr(logchern.report, "schur_factor", doubled_wedge_delta3)
        code, out = _verify_small(capsys)
        assert code == 1
        assert "[typo-suspected] ext-delta3-factor-power" in out
        assert (
            "  ext-delta3-factor-power (exterior-power table, Delta_3 line): drifted; "
            "measured 'measured factor: 8', whitelisted 'measured factor: 4'\n"
        ) in out

    def test_wrong_exterior_ch2_numerator_drifts_the_printed_factor(self, capsys, monkeypatch):
        # the claim row reads its printed factor off the exterior table, so a
        # sign slip n(r+n) for n(r-n) in the table's ch2 line is caught there
        import inspect

        import logchern.formulas
        import logchern.report

        source = inspect.getsource(logchern.formulas.ext_power_ch3)
        right = "2 * n * (r - n) * g"
        assert source.count(right) == 1
        namespace = dict(vars(logchern.formulas))
        exec(source.replace(right, "2 * n * (r + n) * g"), namespace)
        monkeypatch.setattr(logchern.report, "ext_power_ch3", namespace["ext_power_ch3"])
        reason = (
            "ext-delta2-factor-power (exterior-power table, Delta_2 line): drifted; "
            "printed 'n(r-n)/(r-1) * (r_n/r) at (n,r)=(2,4): 6', "
            "whitelisted 'n(r-n)/(r-1) * (r_n/r) at (n,r)=(2,4): 2'"
        )
        code, out = _verify_small(capsys)
        assert code == 1
        assert f"  {reason}\n" in out
        code, out = _verify_small(capsys, "--format", "json")
        assert code == 1
        assert json.loads(out)["unexpected"] == [reason]

    def test_agreeing_delta4_coefficients_are_now_confirmed(self, capsys, monkeypatch):
        # the labels of a row differ on the two sides; its status must come
        # from the values, so a printed coefficient equal to the measured
        # ratio reads confirmed and its whitelist pin fails
        import logchern.report

        original = logchern.report.verify_delta4_proportionality

        def printed_is_measured(m, r, t=None):
            res = original(m, r, t)
            return res._replace(printed=res.lam)

        monkeypatch.setattr(
            logchern.report, "verify_delta4_proportionality", printed_is_measured
        )
        code, out = _verify_small(capsys)
        assert code == 1
        assert out.count("[confirmed] sym-delta4-coefficient\n") == 12
        code, out = _verify_small(capsys, "--format", "json")
        assert code == 1
        unexpected = json.loads(out)["unexpected"]
        assert len(unexpected) == 12
        assert all(
            line.startswith("sym-delta4-coefficient (degree-4 symmetric-power lemma at (m=")
            and "): whitelisted but now confirmed; printed 'f4*(r_m/r)^4 = " in line
            for line in unexpected
        )

    def test_wrong_mukai_vector_fails_verify(self, capsys, monkeypatch):
        # a confirmed row turns false when its measured value changes, and
        # nothing in the whitelist covers it
        import logchern.report

        monkeypatch.setattr(
            logchern.report, "mukai_schur", lambda v, alpha: MukaiVector(3, 3, 9, v.d)
        )
        reason = (
            "mukai-sym-square (K3 Mukai-vector example): not whitelisted; "
            "printed '(3, 3*H, 8)', measured '(3, 3*H, 9)'"
        )
        code, out = _verify_small(capsys)
        assert code == 1
        assert "[typo-suspected] mukai-sym-square\n" in out
        assert out.endswith(f"1 discrepancy the whitelist does not account for -- failing\n  {reason}\n")
        code, out = _verify_small(capsys, "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["unexpected"] == [reason]
        assert doc["discrepancies"][-1] == {
            "claim": "mukai-sym-square",
            "paper_location": "K3 Mukai-vector example",
            "printed_value": "(3, 3*H, 8)",
            "measured_value": "(3, 3*H, 9)",
            "status": "typo-suspected",
        }


class TestUnaccountedCount:
    def test_two_unpinned_rows_read_plural(self, capsys, monkeypatch):
        # two rows that do not hold lose their whitelist pins
        import logchern.report

        pins = logchern.report.load_whitelist()
        dropped = sorted(pins)[:2]
        monkeypatch.setattr(
            logchern.report,
            "load_whitelist",
            lambda: {key: pin for key, pin in pins.items() if key not in dropped},
        )
        code, out = _verify_small(capsys)
        assert code == 1
        tail = out.split("\n\n")[-1].splitlines()
        assert tail[0] == "2 discrepancies the whitelist does not account for -- failing"
        assert sorted(line.split(" (")[0] for line in tail[1:]) == [f"  {claim}" for claim, _ in dropped]


class TestSchurCoefficientMutations:
    """A broken closed formula, or a wrong oracle rank, fails ``verify``.

    The sweep reads every expected Delta_k factor off the Schur table
    ``schur_ch3``, the table it also compares with the oracle.
    """

    def test_doubled_f2_fails_verify(self, capsys, monkeypatch):
        # f2 = dt2 r_a/r, so doubling dt2 doubles the expected Delta_2 factor
        import logchern.formulas

        original = logchern.formulas.delta_tilde2
        monkeypatch.setattr(logchern.formulas, "delta_tilde2", lambda alpha, r: 2 * original(alpha, r))
        code, out = _verify_small(capsys)
        assert code == 1
        assert ": Delta_2 scaling\n" in out
        code, out = _verify_small(capsys, "--format", "json")
        assert code == 1
        assert json.loads(out)["failed"] > 0

    def test_doubled_f2_prints_both_factors(self, capsys, monkeypatch):
        # the measured factor goes to the lhs line and the expected one to the
        # rhs line, each as an exact rational
        import logchern.formulas

        original = logchern.formulas.delta_tilde2
        monkeypatch.setattr(logchern.formulas, "delta_tilde2", lambda alpha, r: 2 * original(alpha, r))
        code, out = _verify_small(capsys)
        assert code == 1
        assert (
            "  FAIL alpha=(2) r=3: Delta_2 scaling\n"
            "       lhs: factor 10\n"
            "       rhs: factor 20\n"
        ) in out

    def test_wrong_ch2_table_coefficient_fails_verify(self, capsys, monkeypatch):
        import logchern.report

        def wrong_ch2(alpha, r, up_to=None):
            table = schur_ch3(alpha, r, up_to)
            return table + table.ring.gen("e2") if table.ring.truncation >= 2 else table

        monkeypatch.setattr(logchern.report, "schur_ch3", wrong_ch2)
        code, out = _verify_small(capsys)
        assert code == 1
        # the whole characters over e1, e2 go to the lhs and rhs lines
        oracle = oracle_schur_ch((1,), 2, 2).text()
        table = wrong_ch2((1,), 2, 2).text()
        assert "e2" in table
        assert (
            f"  FAIL alpha=(1) r=2: ch vs Schur table\n"
            f"       lhs: {oracle}\n       rhs: {table}\n"
        ) in out
        code, out = _verify_small(capsys, "--format", "json")
        assert code == 1
        assert json.loads(out)["failed"] > 0

    def test_scaled_exterior_table_fails_verify(self, capsys, monkeypatch):
        import logchern.report

        original = logchern.report.ext_power_ch3
        monkeypatch.setattr(
            logchern.report, "ext_power_ch3", lambda n, r, up_to=None: original(n, r, up_to).scale(2)
        )
        code, out = _verify_small(capsys)
        assert code == 1
        assert ": ch vs exterior table\n" in out
        assert ": ch vs Schur table\n" not in out
        code, out = _verify_small(capsys, "--format", "json")
        assert code == 1
        assert json.loads(out)["failed"] > 0

    def test_oracle_rank_off_by_one_fails_verify(self, capsys, monkeypatch):
        # the table's degree-0 term is the Weyl dimension, so the table check
        # also catches a wrong oracle rank
        import logchern.report

        def rank_off_by_one(alpha, a):
            total = schur_of(alpha, a)
            return total + total.ring.one()

        # only the sweep sees the mutant: verify_schur runs on a copy of the
        # report's globals, where it calls schur_of on the generic bundle
        # itself; the claim table reads the oracle through oracle_schur_ch,
        # whose rank guard would raise (exit 2)
        sweep_globals = {**vars(logchern.report), "schur_of": rank_off_by_one}
        mutant = types.FunctionType(verify_schur.__code__, sweep_globals)
        monkeypatch.setattr(logchern.report, "verify_schur", mutant)
        code, out = _verify_small(capsys)
        assert code == 1
        assert ": ch vs Schur table\n" in out
        code, out = _verify_small(capsys, "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["failed"] == report["cases"] > 0


def _schur_or_zero(nu, r, D):
    """ch(S^nu E) of the generic rank-r bundle, which is 0 when nu has more than r parts."""
    return oracle_schur_ch(nu, r, D) if len(nu) <= r else ch_ring(D).zero()


class TestLambdaRingWitnesses:
    """Identities between the characters of different partitions.

    A wrong sign in Newton's identities or Giambelli's determinant would have
    to respect the whole lambda-ring structure to pass them (Macdonald,
    *Symmetric Functions and Hall Polynomials*, ch. I, Sec. 5 and Sec. 8).
    """

    @pytest.mark.parametrize("vertical", [False, True], ids=["horizontal", "vertical"])
    def test_pieri(self, vertical):
        # ch(S^alpha E) ch(S^k E) is the sum of ch(S^nu E) over the horizontal
        # k-strips nu/alpha, and ch(S^alpha E) ch(Lambda^k E) the sum over the
        # vertical ones, every nu with more than r rows counting 0
        D = 3
        checks = 0
        for r in range(1, 9):
            for alpha in (a for n in range(7) for a in enumerate_partitions(n, r)):
                for k in range(1, 4):
                    if vertical:
                        factor = _schur_or_zero((1,) * k, r, D)
                        nus = [conjugate(nu) for nu in horizontal_strips(conjugate(alpha), k)]
                    else:
                        factor = oracle_schur_ch((k,), r, D)
                        nus = horizontal_strips(alpha, k)
                    rhs = sum((_schur_or_zero(nu, r, D) for nu in nus), ch_ring(D).zero())
                    assert oracle_schur_ch(alpha, r, D) * factor == rhs, (alpha, k, r)
                    checks += 1
        assert checks == 576

    @pytest.mark.parametrize(
        "outer, inner, nus",
        [
            ((2,), (2,), [(4,), (2, 2)]),
            ((1, 1), (2,), [(3, 1)]),
            ((2,), (1, 1), [(2, 2), (1, 1, 1, 1)]),
            ((3,), (2,), [(6,), (4, 2), (2, 2, 2)]),
        ],
        ids=["h2[h2]", "e2[h2]", "h2[e2]", "h3[h2]"],
    )
    def test_plethysm(self, outer, inner, nus):
        # S^outer(S^inner E) is the sum of S^nu E, every nu with more than r rows counting 0
        for r in range(1, 7):
            for D in (3, 5):
                got = schur_of(outer, _schur_or_zero(inner, r, D))
                assert got == sum((_schur_or_zero(nu, r, D) for nu in nus), ch_ring(D).zero()), (r, D)

    def test_composite_functors(self):
        # S^alpha(S^beta E) with n = dim S^beta E: its rank is dim_n(alpha), it
        # is 0 when alpha has more than n rows, and its Delta_2 and Delta_3
        # factors are the products of alpha's factor at rank n and beta's at
        # rank r.  Where a Delta_3 class vanishes (every class at r = 2, and
        # alpha's at n = 2) there is no factor, and the composite's class vanishes
        D = 3
        alphas = [a for m in range(1, 4) for a in enumerate_partitions(m, m)]
        counts = Counter()
        for r in range(2, 6):
            base = generic_bundle(r, D)
            for beta in (b for m in range(1, 4) for b in enumerate_partitions(m, r)):
                inner, n = oracle_schur_ch(beta, r, D), weyl_dim(beta, r)
                for alpha in alphas:
                    got = schur_of(alpha, inner)
                    if len(alpha) > n:
                        assert got == 0, (alpha, beta, r)
                        counts["vanishes"] += 1
                        continue
                    assert got.constant() == weyl_dim(alpha, n)
                    counts["rank"] += 1
                    if n == 1:
                        continue  # a line bundle, whose Delta_k vanish for k >= 2
                    for k in (2, 3):
                        cls = lambda a, k=k: delta_k(a, k)
                        outer_ok, outer = schur_factor(alpha, n, k)
                        inner_ok, inner_factor = schur_factor(beta, r, k)
                        assert outer_ok and inner_ok
                        if outer is None or inner_factor is None:
                            assert cls(got) == 0, (alpha, beta, r, k)
                            counts[f"delta{k} skipped"] += 1
                        else:
                            assert proportion(cls(got), cls(base)) == (True, outer * inner_factor)
                            counts[f"delta{k} factor"] += 1
        assert counts == {
            "rank": 130,
            "vanishes": 8,
            "delta2 factor": 124,
            "delta3 factor": 102,
            "delta3 skipped": 22,
        }


class TestSharedFamilies:
    """The per-(r, D) memo tables behind the oracle change no answer."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_cached_oracle_equals_a_cold_evaluation(self, data):
        r = data.draw(st.integers(1, 6))
        D = data.draw(st.integers(1, 5))
        pool = [a for n in range(9) for a in enumerate_partitions(n, r)]
        alphas = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
        for alpha in alphas:
            # a fresh evaluator on the Adams sums r + sum_k j^k e_k, not yet in normal form
            fresh = PowerSumSchur(lambda j: power_sum_character_by_generators(j, r, D))
            assert oracle_schur_ch(alpha, r, D) == normal_form(fresh(alpha), r)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_adams_power_sums_are_born_in_normal_form(self, data):
        r = data.draw(st.integers(1, 5))
        D = data.draw(st.integers(r + 1, 6))
        j = data.draw(st.integers(0, 9))
        p = adams(generic_bundle(r, D), j)
        assert all(not any(exps[r:]) for exps in p.terms)
        assert normal_form(p, r) == p
        assert p == normal_form(power_sum_character_by_generators(j, r, D), r)
        # r + sum_k j^k ch_k, read off the generic bundle's own components
        bundle = generic_bundle(r, D)
        terms = (bundle.component(k).scale(j**k) for k in range(1, D + 1))
        assert p == sum(terms, bundle.ring.scalar(r))

    @staticmethod
    def _count_cold_products(monkeypatch, run):
        """run()'s value and the GradedPoly products it made, every package cache empty."""
        for name, module in list(sys.modules.items()):
            if name == "logchern" or name.startswith("logchern."):
                for cached in vars(module).values():
                    if callable(getattr(cached, "cache_clear", None)):
                        cached.cache_clear()
        count = 0
        product = GradedPoly.__mul__

        def counted(a, b):
            nonlocal count
            count += isinstance(b, GradedPoly)
            return product(a, b)

        monkeypatch.setattr(GradedPoly, "__mul__", counted)
        value = run()
        return value, count

    def test_sweep_product_count(self, monkeypatch):
        # 7998 products without the shared families and discriminants, 3346
        # with them while each partition still took its own normal form, 3074
        # while the cofactor expansion, log and the double sum still made
        # products by zero or by one, 1843 while each partition expanded its
        # own Jacobi-Trudi minors and substitution multiplied by constants,
        # 1178 while each partition expanded its own Jacobi-Trudi determinant,
        # 1037 while the Chern classes summed the exp series, 1040 while
        # Newton's identities multiplied p_k by the constant one
        report, count = self._count_cold_products(monkeypatch, lambda: sweep(6, 8))
        assert report.failed == 0
        assert count == 982

    @pytest.mark.parametrize("dual", [False, True], ids=["h", "e"])
    def test_newton_entry_k_makes_k_minus_1_products(self, monkeypatch, dual):
        # the term p_k h_0 is p_k itself, as h_0 = e_0 = 1
        bundle = generic_bundle(3, 4)
        p = [adams(bundle, j) for j in range(7)]
        fam = (bundle.ring.one(),)
        for k in range(1, 7):
            entry, count = self._count_cold_products(monkeypatch, lambda: newton_next(p, fam, dual))
            assert count == k - 1, k
            assert entry == schur_of((1,) * k if dual else (k,), bundle), k
            fam += (entry,)

    def test_d_k_product_count(self, monkeypatch):
        # d_k(a, k) is Delta_k scaled, so it runs the recurrence to degree k
        # alone: one product at k = 2, none for degrees 3..5
        value, count = self._count_cold_products(monkeypatch, lambda: d_k(base_bundle(3, 5), 2))
        assert value == ch_ring(5).parse("e2 - 1/6*e1^2")
        assert count == 1

    @pytest.mark.parametrize(
        "argv, products",
        [
            ("ch --rank 2 --partition 64 --max-degree 5 --method oracle", 2030),
            ("delta --rank 16 --partition 8,8,8,8,8,8,8,8 --k 5", 1227),
            ("delta --rank 16 --partition 12,11,9,8,6,5,4,3,2,2,1,1 --k 5", 494),
            ("delta --rank 16 --partition 13,9,7,6,6,5,3,3,3,2,2,2,2 --k 5", 581),
            ("delta --rank 16 --partition 14,5,5,5,5,5,5,5,4,3,3,2,2,1 --k 5", 668),
        ],
        ids=["ch-64", "delta-8x8", "delta-12-rows", "delta-13-rows", "delta-14-rows"],
    )
    def test_slowest_command_product_count(self, monkeypatch, argv, products):
        # every product of these costly in-bounds commands goes through
        # GradedPoly.__mul__, where the benchmark counts it.  Giambelli's
        # determinant is at most 8x8 (the Durfee square at size <= 64), so
        # the many-row partitions cost a few hundred products; the costliest
        # known is ch-64, whose cost is its Newton family up to h_64
        code, count = self._count_cold_products(monkeypatch, lambda: main(argv.split()))
        assert (code, count) == (0, products)
