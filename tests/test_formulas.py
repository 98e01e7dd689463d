import itertools
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from logchern import formulas
from logchern.characters import base_bundle, ch_ring
from logchern.formulas import (
    delta2_dot,
    delta3_dot,
    delta_tilde2,
    delta_tilde3,
    ext_power_ch3,
    f4_sym,
    hc_shift_check,
    schur_ch3,
    schur_coefficients,
    sym_power_ch,
)
from logchern.symfunc import binomial, enumerate_partitions
from witness import (
    delta2_x,
    delta2_x_sums,
    delta3_dot_sums,
    delta3_x,
    delta3_x_sums,
    exterior_table_by_fractions,
    table_by_fractions,
)


class TestCasimirPolynomials:
    def test_standard_rep_quadratic(self):
        for r in (2, 3, 4, 7):
            assert delta2_dot((1,), r) == r * r - 1

    def test_single_row_quadratic(self):
        for r in (2, 3, 5):
            for m in range(6):
                assert delta2_dot((m,), r) == (r - 1) * m * (m + r)

    def test_column_quadratic(self):
        # (1,1) gives 2(r-2)(r+1), the wedge-square factor
        for r in (2, 3, 4, 6):
            assert delta2_dot((1, 1), r) == 2 * (r - 2) * (r + 1)

    def test_standard_rep_cubic(self):
        for r in (3, 4, 5):
            assert delta3_dot((1,), r) == (r - 2) * (r - 1) * (r + 1) * (r + 2)

    def test_single_row_cubic(self):
        for r in (3, 4, 5):
            for m in range(6):
                assert delta3_dot((m,), r) == (r - 2) * (r - 1) * m * (m + r) * (2 * m + r)

    def test_column_cubic_reproduces_exterior_factor(self):
        # f3 for (1^n) must be n(2n^2-3rn+r^2)/((r-2)(r-1)) * r_n/r
        for r in (3, 4, 5):
            for n in range(1, r + 1):
                sc = schur_coefficients((1,) * n, r)
                expect = Fraction(
                    n * (2 * n * n - 3 * r * n + r * r), (r - 2) * (r - 1)
                ) * Fraction(binomial(r, n), r)
                assert sc.f3 == expect

    def test_quadratic_nonnegative_on_partitions(self):
        for r in range(2, 6):
            for size in range(9):
                for alpha in enumerate_partitions(size, r):
                    assert delta2_dot(alpha, r) >= 0

    def test_tilde_guards(self):
        with pytest.raises(ValueError):
            delta_tilde2((1,), 1)
        with pytest.raises(ValueError):
            delta_tilde3((1,), 2)


class TestSchurCoefficients:
    def test_identity_functor(self):
        for r in (3, 4, 5):
            sc = schur_coefficients((1,), r)
            assert sc.f1 == sc.f2 == sc.f3 == 1

    def test_sym_square_rank_two(self):
        sc = schur_coefficients((2,), 2)
        # Delta_2 factor dt2 * (r_a/r)^2 = (r+1)(r+2)/2 = 6 at r = 2
        assert sc.delta2_tilde * Fraction(sc.r_alpha, 2) ** 2 == 6
        assert sc.delta3_tilde is None and sc.f3 is None

    def test_wedge_square_rank_four(self):
        sc = schur_coefficients((1, 1), 4)
        assert sc.delta2_tilde * Fraction(sc.r_alpha, 4) ** 2 == 3

    def test_f2_matches_sym_power_formula(self):
        for r in (2, 3, 4):
            for m in range(7):
                sc = schur_coefficients((m,), r)
                rm = binomial(m + r - 1, r - 1)
                assert sc.f2 == Fraction(m * (m + r), r + 1) * Fraction(rm, r)

    def test_f3_matches_sym_power_formula(self):
        for r in (3, 4, 5):
            for m in range(7):
                sc = schur_coefficients((m,), r)
                rm = binomial(m + r - 1, r - 1)
                expect = Fraction(m * (m + r) * (2 * m + r), (r + 1) * (r + 2))
                assert sc.f3 == expect * Fraction(rm, r)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            schur_coefficients((1,), 0)


class TestSymPowerSum:
    def test_m_one_is_base(self):
        for r in (2, 4):
            assert sym_power_ch(1, r, 3) == base_bundle(r, 3)

    def test_m_zero_is_trivial_line(self):
        ch = sym_power_ch(0, 3, 3)
        assert ch.constant() == 1
        assert all(ch.component(k).is_zero() for k in range(1, ch.ring.truncation + 1))

    def test_sym_square_rank_two(self):
        ring = ch_ring(2)
        ch = sym_power_ch(2, 2, 2)
        assert ch.constant() == 3
        assert ch.component(1) == ring.parse("3*e1")
        assert ch.component(2) == ring.parse("1/2*e1^2 + 4*e2")

    def test_ch2_line_of_sym_table(self):
        # 1/2 (m-1)m/(r+1) (r_m/r) e1^2 + m(m+r)/(r+1) (r_m/r) e2 at (2,3)
        ring = ch_ring(3)
        ch = sym_power_ch(2, 3, 3)
        w = Fraction(6, 3)
        c_sq = Fraction(2 * 1, 2 * 4) * w
        c_e2 = Fraction(2 * 5, 4) * w
        assert ch.component(2) == ring.parse(f"{c_sq}*e1^2 + {c_e2}*e2")

    def test_ch3_coefficients_from_double_sum(self):
        # independently derived: coefficient of e1*e2 in ch3(S^m E) is
        # C(m+r-1, m-2) + C(m+r-1, m-3); of e3 is sum over beta of
        # C(m+r-1, m-b) (b-1)! S(3, b)
        for m in (2, 3, 4):
            for r in (2, 3):
                ch = sym_power_ch(m, r, 3)
                n = m + r - 1
                mixed = binomial(n, m - 2) + binomial(n, m - 3)
                pure = (
                    binomial(n, m - 1)
                    + 3 * binomial(n, m - 2)
                    + 2 * binomial(n, m - 3)
                )
                e1e2 = (1, 1, 0)
                e3 = (0, 0, 1)
                assert ch.component(3).coefficient(e1e2) == mixed
                assert ch.component(3).coefficient(e3) == pure

    def test_rank_is_weyl_dimension(self):
        from logchern.symfunc import weyl_dim

        for m in range(6):
            for r in (2, 3, 4):
                assert sym_power_ch(m, r, 2).constant() == weyl_dim((m,), r)


class TestTables:
    def test_ext_n_one_is_base(self):
        assert ext_power_ch3(1, 4) == base_bundle(4, 3)

    def test_ext_determinant_line(self):
        ch = ext_power_ch3(3, 3)
        ring = ch_ring(3)
        assert ch.constant() == 1
        assert ch.component(1) == ring.parse("e1")
        assert ch.component(2) == ring.parse("1/2*e1^2")

    def test_ext_top_rank_two(self):
        ch = ext_power_ch3(2, 2)
        ring = ch_ring(2)
        assert ch.constant() == 1
        assert ch.component(1) == ring.parse("e1")
        assert ch.component(2) == ring.parse("1/2*e1^2")

    def test_ext_degenerate_ch3_rejected(self):
        with pytest.raises(ValueError):
            ext_power_ch3(2, 2, up_to=3)

    def test_schur_alpha_one_is_base(self):
        for r in (3, 5):
            assert schur_ch3((1,), r) == base_bundle(r, 3)

    def test_schur_row_matches_sym_power_sum(self):
        for r in (3, 4):
            for m in range(6):
                up_to = 3
                assert schur_ch3((m,), r) == sym_power_ch(m, r, up_to)

    def test_schur_column_matches_ext(self):
        for r in (3, 4, 5):
            for n in range(1, r + 1):
                assert schur_ch3((1,) * n, r) == ext_power_ch3(n, r)

    def test_integer_tables_equal_the_fraction_rows(self):
        for r in range(1, 9):
            alphas = [a for size in range(9) for a in enumerate_partitions(size, r)]
            for up_to in range(1, min(r, 3) + 1):
                for alpha in alphas:
                    sc = schur_coefficients(alpha, r)
                    assert sc.table(up_to) == table_by_fractions(sc, up_to)
                for n in range(r + 1):
                    assert ext_power_ch3(n, r, up_to) == exterior_table_by_fractions(n, r, up_to)

    def test_schur_rank_two_truncates_at_two(self):
        ch = schur_ch3((2,), 2)
        assert ch.ring.truncation == 2
        assert ch.constant() == 3


class TestF4:
    def test_trivial_rep(self):
        assert f4_sym(0, 3) == 0

    def test_printed_value_at_m_one(self):
        for r in (2, 3, 4, 6):
            assert f4_sym(1, r) == Fraction((r + 1) ** 2, (r + 2) * (r + 3))


class TestHCShift:
    def test_quadratic_constant_balances(self):
        # at x = (0,-1,...,1-r) (alpha = 0) both sides must give 0
        for r in (2, 3, 4):
            x = [-(i) for i in range(r)]
            assert delta2_x(x, r) == delta2_dot((), r) == 0
            if r >= 3:
                assert delta3_x(x, r) == delta3_dot((), r) == 0

    def test_origin_value(self):
        # delta2_x(0) is the negated constant of the shift
        for r in (2, 3, 5):
            assert delta2_x([0] * r, r) == -Fraction(r * r * (r * r - 1), 12)

    def test_grid_small_ranks(self):
        for k in (2, 3):
            for r in (2, 3):
                assert hc_shift_check(k, r) == ()

    @pytest.mark.parametrize("k", [2, 3])
    def test_enough_shifts_to_prove_translation_for_every_shift(self, k):
        # for fixed x, delta_x(x - a*1) - delta_x(x) has degree <= k in a, so
        # k + 1 distinct roots a_j make it vanish for every a
        assert len(set(formulas._SHIFTS)) >= k + 1

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            hc_shift_check(4, 3)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda r: st.lists(
                st.one_of(
                    st.integers(-50, 50),
                    st.fractions(max_denominator=12).filter(lambda f: abs(f) <= 50),
                ),
                min_size=r,
                max_size=r,
            )
        )
    )
    def test_power_sum_forms_equal_the_literal_sums(self, xs):
        r = len(xs)
        assert delta2_x(xs, r) == delta2_x_sums(xs, r)
        assert delta3_x(xs, r) == delta3_x_sums(xs, r)
        assert type(delta2_x(xs, r)) is type(delta3_x(xs, r)) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda r: st.lists(
                st.one_of(
                    st.integers(-50, 50),
                    st.fractions(min_value=-50, max_value=50, max_denominator=12),
                ),
                min_size=r,
                max_size=r,
            )
        )
    )
    def test_delta3_dot_equals_the_literal_sums(self, a):
        # unordered vectors: the identity is between polynomials, and the
        # simplex proof of hc-check evaluates delta3_dot off the partitions
        r = len(a)
        got = delta3_dot(a, r)
        assert got == delta3_dot_sums(a, r)
        if all(type(x) is int for x in a):
            assert type(got) is int

    @pytest.mark.parametrize("k", [2, 3])
    def test_wrong_printed_polynomial_is_a_shift_mismatch(self, monkeypatch, k):
        printed = formulas._DELTA_DOT[k]
        monkeypatch.setitem(formulas._DELTA_DOT, k, lambda a, r: printed(a, r) + 1)
        failures = hc_shift_check(k, 3)
        expected = []
        for x in list(formulas._simplex_points(k, 3))[:6]:
            val = printed(tuple(x[i] + i for i in range(3)), 3)
            expected.append(f"shift mismatch at x={x}: {val} != {val + 1}")
        assert failures[0].startswith("shift mismatch at x=(0, 0, 0): ")
        assert failures == tuple(expected)

    @pytest.mark.parametrize("k", [2, 3])
    def test_translation_variant_part_breaks_translation(self, monkeypatch, k):
        # add p_1^k to the degree-k part and the same polynomial, written in
        # alpha = x + (0, 1, ..., r-1), to the printed one: check (a) still
        # holds, while p_1 moves under translation
        part, printed = formulas._delta_x_part, formulas._DELTA_DOT[k]
        monkeypatch.setattr(
            formulas, "_delta_x_part", lambda k, xs, r: part(k, xs, r) + sum(xs) ** k
        )
        monkeypatch.setitem(
            formulas._DELTA_DOT,
            k,
            lambda a, r: printed(a, r) + (sum(a) - r * (r - 1) // 2) ** k,
        )
        failures = hc_shift_check(k, 3)
        # every shift moves p_1 at the origin, and the first two again at
        # (1, 0, 0), where the list is cut at six
        assert failures == (
            "translation by 1 broken at x=(0, 0, 0)",
            "translation by -2 broken at x=(0, 0, 0)",
            "translation by 1/2 broken at x=(0, 0, 0)",
            "translation by 7/3 broken at x=(0, 0, 0)",
            "translation by 1 broken at x=(1, 0, 0)",
            "translation by -2 broken at x=(1, 0, 0)",
        )

    @pytest.mark.parametrize("k", [2, 3])
    def test_simplex_is_the_degree_k_unisolvent_set(self, k):
        for r in range(1, 17):
            points = list(formulas._simplex_points(k, r))
            assert len(points) == len(set(points)) == comb(r + k, k)
            assert all(len(x) == r and min(x) >= 0 and sum(x) <= k for x in points)

    def test_passing_check_evaluates_only_the_simplex(self, monkeypatch):
        part, calls = formulas._delta_x_part, []

        def counted(k, xs, r):
            calls.append(xs)
            return part(k, xs, r)

        monkeypatch.setattr(formulas, "_delta_x_part", counted)
        assert hc_shift_check(3, 4) == ()
        # one evaluation for the shift, four for the translations, per point
        assert len(calls) == 5 * comb(4 + 3, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]).flatmap(
            lambda kr: st.tuples(
                st.just(kr[0]),
                st.just(kr[1]),
                st.dictionaries(
                    st.sampled_from(
                        [e for e in itertools.product(range(4), repeat=kr[1]) if sum(e) <= kr[0]]
                    ),
                    st.integers(-3, 3),
                ),
            )
        )
    )
    # x_1(x_1 - 1)...(x_1 - k + 1) vanishes on the degree-(k-1) simplex but
    # not on the degree-k one, so these need every point of the latter
    @example((2, 2, {(2, 0): 1, (1, 0): -1}))
    @example((3, 3, {(3, 0, 0): 1, (2, 0, 0): -3, (1, 0, 0): 2}))
    def test_proof_fails_exactly_when_the_printed_polynomial_is_perturbed(self, case):
        # poly maps exponent vectors to coefficients: an integer polynomial of
        # degree <= k in alpha, added to the printed delta_dot
        k, r, poly = case

        def perturbation(a):
            return sum(c * prod(ai**e for ai, e in zip(a, exps)) for exps, c in poly.items())

        printed = formulas._DELTA_DOT[k]
        expected = []
        for x in formulas._simplex_points(k, r):
            alpha = tuple(x[i] + i for i in range(r))
            extra = perturbation(alpha)
            if extra and len(expected) < 6:
                val = printed(alpha, r)
                expected.append(f"shift mismatch at x={x}: {val} != {val + extra}")
        original = dict(formulas._DELTA_DOT)
        formulas._DELTA_DOT[k] = lambda a, r: printed(a, r) + perturbation(a)
        try:
            failures = hc_shift_check(k, r)
        finally:
            formulas._DELTA_DOT.update(original)
        assert failures == tuple(expected)
        assert bool(failures) is any(poly.values())
