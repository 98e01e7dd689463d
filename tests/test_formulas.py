import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from logchern import formulas
from logchern.characters import base_bundle, ch_ring
from logchern.formulas import (
    closed_ch,
    delta2_dot,
    delta3_dot,
    ext_power_ch3,
    f4_sym,
    hc_shift_check,
    schur_ch3,
    sym_power_ch,
)
from logchern.oracle import oracle_schur_ch
from logchern.ring import PolyRing
from logchern.symfunc import binomial, enumerate_partitions
from witness import (
    delta2_dot_sums,
    delta2_x,
    delta2_x_sums,
    delta3_dot_sums,
    delta3_x,
    delta3_x_sums,
    exterior_table_by_fractions,
    sym_power_by_double_sum,
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

    def test_casimir_reading_in_the_centred_alpha_plus_rho(self):
        # with rho_i = (r+1)/2 - i and l_i = a_i - |a|/r + rho_i:
        # d2dot = r (sum l_i^2 - sum rho_i^2) and d3dot = 2 r^2 sum l_i^3
        cases = 0
        for r in range(2, 9):
            rho = [Fraction(r + 1, 2) - i for i in range(1, r + 1)]
            for size in range(9):
                for alpha in enumerate_partitions(size, r):
                    ell = [a - Fraction(size, r) + p for a, p in zip(alpha.padded(r), rho)]
                    squares = sum(x * x for x in ell) - sum(p * p for p in rho)
                    assert delta2_dot(alpha, r) == r * squares
                    assert delta3_dot(alpha, r) == 2 * r * r * sum(x**3 for x in ell)
                    cases += 1
        assert cases == 376

    def test_column_cubic_reproduces_exterior_factor(self):
        # f3 for (1^n) must be n(2n^2-3rn+r^2)/((r-2)(r-1)) * r_n/r
        for r in (3, 4, 5):
            for n in range(1, r + 1):
                expect = Fraction(
                    n * (2 * n * n - 3 * r * n + r * r), (r - 2) * (r - 1)
                ) * Fraction(binomial(r, n), r)
                assert table_f((1,) * n, r, 3) == expect

    def test_quadratic_nonnegative_on_partitions(self):
        for r in range(2, 6):
            for size in range(9):
                for alpha in enumerate_partitions(size, r):
                    assert delta2_dot(alpha, r) >= 0


def table_f(alpha, r, k):
    """f_k = dt_k r_a/r (dt_1 = |alpha|), the e_k coefficient of the Schur table."""
    return schur_ch3(alpha, r, k).coefficient(tuple(int(i == k - 1) for i in range(k)))


class TestSchurCoefficients:
    """The printed f_k, read off the Schur table ``schur_ch3``."""

    def test_identity_functor(self):
        for r in (3, 4, 5):
            assert table_f((1,), r, 1) == table_f((1,), r, 2) == table_f((1,), r, 3) == 1

    def test_sym_square_rank_two(self):
        table = schur_ch3((2,), 2)
        # Delta_2 factor f2 * r_a/r = (r+1)(r+2)/2 = 6 at r = 2
        assert table.coefficient((0, 1)) * table.constant() / 2 == 6
        # there is no e3 coefficient at r = 2
        assert table.ring.truncation == 2
        with pytest.raises(ValueError):
            schur_ch3((2,), 2, 3)

    def test_wedge_square_rank_four(self):
        table = schur_ch3((1, 1), 4, 2)
        assert table.coefficient((0, 1)) * table.constant() / 4 == 3

    def test_f2_matches_sym_power_formula(self):
        for r in (2, 3, 4):
            for m in range(7):
                rm = binomial(m + r - 1, r - 1)
                assert table_f((m,), r, 2) == Fraction(m * (m + r), r + 1) * Fraction(rm, r)

    def test_f3_matches_sym_power_formula(self):
        for r in (3, 4, 5):
            for m in range(7):
                rm = binomial(m + r - 1, r - 1)
                expect = Fraction(m * (m + r) * (2 * m + r), (r + 1) * (r + 2))
                assert table_f((m,), r, 3) == expect * Fraction(rm, r)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            schur_ch3((1,), 0)


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

    def test_equals_the_double_sum_enumerated_per_call(self):
        for D in range(1, 7):
            for r in range(1, 7):
                for m in range(9):
                    assert sym_power_ch(m, r, D) == sym_power_by_double_sum(m, r, D), (m, r, D)

    def test_rank_is_weyl_dimension(self):
        from logchern.symfunc import weyl_dim

        for m in range(6):
            for r in (2, 3, 4):
                assert sym_power_ch(m, r, 2).constant() == weyl_dim((m,), r)

    @pytest.mark.parametrize("r", [0, -1])
    def test_refuses_a_rank_below_one(self, r):
        with pytest.raises(ValueError, match="^rank must be a positive integer$"):
            sym_power_ch(2, r, 3)


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
                    assert schur_ch3(alpha, r, up_to) == table_by_fractions(alpha, r, up_to)
                for n in range(r + 1):
                    assert ext_power_ch3(n, r, up_to) == exterior_table_by_fractions(n, r, up_to)

    def test_tables_refuse_a_rank_below_one(self):
        with pytest.raises(ValueError, match="^rank must be a positive integer$"):
            ext_power_ch3(0, 0, 1)
        with pytest.raises(ValueError, match="^rank must be a positive integer$"):
            schur_ch3((), 0, 1)

    def test_schur_ch2_line_at_rank_one(self):
        # dt2 = 0 at r = 1, where the exterior table's 2(r-1) has no inverse
        for m in range(7):
            assert schur_ch3((m,), 1, 2) == oracle_schur_ch((m,), 1, 2)
        with pytest.raises(ValueError, match="degenerates for r = 1"):
            ext_power_ch3(1, 1, 2)

    def test_schur_rank_two_truncates_at_two(self):
        ch = schur_ch3((2,), 2)
        assert ch.ring.truncation == 2
        assert ch.constant() == 3


class TestClosedCh:
    def test_equals_the_oracle_or_refuses_over_its_domain(self):
        # r <= 6, |alpha| <= 6, D <= 5: a single row answers in every degree,
        # two or more rows answer exactly through degree min(r, 3)
        answered = 0
        for r in range(1, 7):
            for alpha in (a for size in range(7) for a in enumerate_partitions(size, r)):
                for D in range(1, 6):
                    if len(alpha) >= 2 and (D > 3 or D == 3 and r <= 2):
                        with pytest.raises(ValueError):
                            closed_ch(alpha, r, D)
                        continue
                    assert closed_ch(alpha, r, D) == oracle_schur_ch(alpha, r, D)
                    answered += 1
        assert answered == 471  # of 660 cases


class TestF4:
    def test_trivial_rep(self):
        assert f4_sym(0, 3) == 0

    def test_printed_value_at_m_one(self):
        for r in (2, 3, 4, 6):
            assert f4_sym(1, r) == Fraction((r + 1) ** 2, (r + 2) * (r + 3))


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: delta2_dot((1, 1, 1), 2), ValueError, "(1, 1, 1) has more than 2 coordinates"),
        (lambda: sym_power_ch(-1, 2, 2), ValueError, "m must be non-negative"),
        (lambda: ext_power_ch3(3, 2), ValueError, "need 0 <= n <= r"),
        (lambda: f4_sym(-1, 2), ValueError, "need m >= 0 and r >= 1"),
        (lambda: hc_shift_check(2, 1), ValueError, "need r >= 2"),
    ],
    ids=["delta2_dot-parts", "sym_power_ch-m", "ext_power_ch3-n", "f4_sym-m", "hc_shift_check-r"],
)
def test_refuses_an_argument_out_of_range(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


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
    def test_proved_at_every_rank_the_cli_takes(self, k):
        for r in range(2, 17):
            assert hc_shift_check(k, r) == (), r

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            hc_shift_check(4, 3)

    # one int and one Fraction point, for the types the forms return on numbers
    POINTS = ((3, -1, 4, 0, 5), (Fraction(7, 2), -2, Fraction(-1, 3)))

    @staticmethod
    def free_coordinates(r):
        """x1..xr, free of degree 1; every form here has degree <= 3."""
        ring = PolyRing([(f"x{i}", 1) for i in range(1, r + 1)], 3)
        return [ring.gen(name) for name in ring.names]

    def test_power_sum_forms_equal_the_literal_sums(self):
        # the identities are between polynomials: each is expanded over free
        # coordinates, the way hc-check proves its own, at every rank up to 12
        for r in range(1, 13):
            xs = self.free_coordinates(r)
            part2 = formulas._delta_x_part(2, xs, r) - formulas._delta2_constant(r)
            assert part2 == delta2_x_sums(xs, r), r
            assert formulas._delta_x_part(3, xs, r) == delta3_x_sums(xs, r), r
        for xs in self.POINTS:
            r = len(xs)
            assert delta2_x(xs, r) == delta2_x_sums(xs, r)
            assert delta3_x(xs, r) == delta3_x_sums(xs, r)
            assert type(delta2_x(xs, r)) is type(delta3_x(xs, r)) is Fraction

    def test_delta3_dot_equals_the_literal_sums(self):
        # unordered coordinates: hc-check expands delta3_dot over free
        # generators, not partitions; delta2_dot is the same kind of power-sum
        # form, checked the same way
        forms = ((delta2_dot, delta2_dot_sums), (delta3_dot, delta3_dot_sums))
        for r in range(1, 13):
            a = self.free_coordinates(r)
            for dot, sums in forms:
                assert dot(a, r) == sums(a, r), (dot.__name__, r)
        for a, kind in zip(self.POINTS, (int, Fraction)):
            for dot, sums in forms:
                got = dot(a, len(a))
                assert got == sums(a, len(a)), dot.__name__
                assert type(got) is kind

    @pytest.mark.parametrize("k", [2, 3])
    def test_wrong_printed_polynomial_is_a_shift_mismatch(self, monkeypatch, k):
        printed = formulas._DELTA_DOT[k]
        monkeypatch.setitem(formulas._DELTA_DOT, k, lambda a, r: printed(a, r) + 1)
        assert hc_shift_check(k, 3) == ("shift residual term: -1",)

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
        # the residual is (p_1 - 3a)^k - p_1^k, cut at six terms for k = 3
        expected = {
            2: ("-6*x1*a", "-6*x2*a", "-6*x3*a", "9*a^2"),
            3: ("-9*x1^2*a", "-18*x1*x2*a", "-18*x1*x3*a", "27*x1*a^2", "-9*x2^2*a", "-18*x2*x3*a"),
        }[k]
        assert hc_shift_check(k, 3) == tuple(f"translation residual term: {t}" for t in expected)

    @pytest.mark.parametrize("k", [2, 3])
    def test_term_above_degree_k_is_not_truncated(self, monkeypatch, k):
        # the ring keeps degree k + 1, so a stray x1^(k+1) in delta_x shows in
        # both residuals instead of vanishing in the truncation
        part = formulas._delta_x_part
        monkeypatch.setattr(
            formulas, "_delta_x_part", lambda k, xs, r: part(k, xs, r) + xs[0] ** (k + 1)
        )
        expected = {
            2: ("x1^3", "-3*x1^2*a", "3*x1*a^2", "-a^3"),
            3: ("x1^4", "-4*x1^3*a", "6*x1^2*a^2", "-4*x1*a^3", "a^4"),
        }[k]
        names = ["shift"] + ["translation"] * (len(expected) - 1)
        assert hc_shift_check(k, 3) == tuple(
            f"{name} residual term: {t}" for name, t in zip(names, expected)
        )

    def test_wrong_constant_is_a_constant_shift_residual(self, monkeypatch):
        const = formulas._delta2_constant
        monkeypatch.setattr(formulas, "_delta2_constant", lambda r: const(r) + 1)
        assert hc_shift_check(2, 4) == ("shift residual term: -1",)
        assert hc_shift_check(3, 4) == ()

    @pytest.mark.parametrize("k", [2, 3])
    def test_changed_coefficient_of_delta_x_fails(self, monkeypatch, k):
        # one more unit of p_k in the degree-k part
        part = formulas._delta_x_part
        monkeypatch.setattr(
            formulas, "_delta_x_part", lambda k, xs, r: part(k, xs, r) + sum(x**k for x in xs)
        )
        failures = hc_shift_check(k, 4)
        assert failures[:4] == tuple(f"shift residual term: x{i}^{k}" for i in range(1, 5))
        assert failures[4].startswith("translation residual term: ")

    def test_changed_coefficient_of_delta3_dot_fails(self, monkeypatch):
        # 13 r (p1 s1 - s2) in place of the printed 12 r (p1 s1 - s2)
        def mutated(a, r):
            s1 = sum(i * x for i, x in enumerate(a, 1))
            s2 = sum(i * x * x for i, x in enumerate(a, 1))
            return delta3_dot(a, r) + r * (sum(a) * s1 - s2)

        monkeypatch.setitem(formulas._DELTA_DOT, 3, mutated)
        failures = hc_shift_check(3, 4)
        assert failures and all(f.startswith("shift residual term: ") for f in failures)

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
    # a_1(a_1 - 1)...(a_1 - k + 1) vanishes at every integer a_1 in 0..k-1,
    # and its residual is still not zero
    @example((2, 2, {(2, 0): 1, (1, 0): -1}))
    @example((3, 3, {(3, 0, 0): 1, (2, 0, 0): -3, (1, 0, 0): 2}))
    def test_proof_fails_exactly_when_the_printed_polynomial_is_perturbed(self, case):
        # poly maps exponent vectors to coefficients: an integer polynomial of
        # degree <= k in alpha, added to the printed delta_dot
        k, r, poly = case

        def perturbation(a):
            return sum(c * prod(ai**e for ai, e in zip(a, exps)) for exps, c in poly.items())

        # the shift residual is minus the perturbation at a_i = x_i + i - 1
        ring = PolyRing([*((f"x{i}", 1) for i in range(1, r + 1)), ("a", 1)], k + 1)
        residual = ring.zero() - perturbation([ring.gen(f"x{i + 1}") + i for i in range(r)])
        printed = formulas._DELTA_DOT[k]
        original = dict(formulas._DELTA_DOT)
        formulas._DELTA_DOT[k] = lambda a, r: printed(a, r) + perturbation(a)
        try:
            failures = hc_shift_check(k, r)
        finally:
            formulas._DELTA_DOT.update(original)
        prefix = "shift residual term: "
        assert all(f.startswith(prefix) for f in failures)
        terms = [ring.parse(f[len(prefix):]) for f in failures]
        assert all(len(t.terms) == 1 and t.items()[0] in residual.items() for t in terms)
        assert len(set(failures)) == len(failures) == min(6, len(residual.terms))
        assert bool(failures) is any(poly.values())
