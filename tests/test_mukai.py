from fractions import Fraction

import pytest

from logchern.mukai import MukaiVector, is_primitive, mukai_schur


class TestMukaiSchur:
    def test_sym_square_of_the_example(self):
        for d in range(1, 13):
            v = MukaiVector(2, 1, 2, d)
            got = mukai_schur(v, (2,))
            assert (got.r, got.c, got.s) == (3, 3, d + 3)

    def test_identity_functor(self):
        v = MukaiVector(2, 1, 2, 4)
        got = mukai_schur(v, (1,))
        assert (got.r, got.c, got.s) == (2, 1, 2)

    def test_determinant_line(self):
        # wedge^2 E = det E with c1 = H: v = (1, 1, d + 1)
        for d in (1, 3, 7):
            v = MukaiVector(2, 1, 2, d)
            got = mukai_schur(v, (1, 1))
            assert (got.r, got.c, got.s) == (1, 1, d + 1)

    def test_rank_and_c_follow_the_scaling_theorem(self):
        from logchern.symfunc import weyl_dim

        v = MukaiVector(3, 2, 5, 2)
        for alpha in ((2,), (1, 1), (2, 1), (3,)):
            got = mukai_schur(v, alpha)
            ra = weyl_dim(alpha, 3)
            assert got.r == ra
            assert got.c == sum(alpha) * Fraction(ra, 3) * 2

    def test_first_chern_factor_is_an_integer(self):
        # f1 = |alpha| r_a/r is c_1(S^alpha E)/c_1(E), so mukai_schur's c is integral
        from logchern.formulas import schur_coefficients
        from logchern.symfunc import enumerate_partitions

        for r in range(1, 7):
            for size in range(9):
                for alpha in enumerate_partitions(size, r):
                    f1 = schur_coefficients(alpha, r).f1
                    assert f1.denominator == 1, (alpha, r, f1)
                    got = mukai_schur(MukaiVector(r, 3, 1, 2), alpha)
                    assert got.c == 3 * f1

    def test_s_is_a_fraction_and_values_compare(self):
        v = MukaiVector(2, 1, 2, 3)
        assert type(v.s) is Fraction and v.s == 2
        w = MukaiVector(2, 1, Fraction(4, 2), 3)
        assert v == w and hash(v) == hash(w)
        assert v != MukaiVector(2, 1, 3, 3)

    def test_str_form(self):
        assert str(MukaiVector(3, 3, Fraction(8), 5)) == "(3, 3*H, 8)"


class TestPrimitivity:
    def test_example_iff_d_not_divisible_by_three(self):
        for d in range(1, 13):
            got = mukai_schur(MukaiVector(2, 1, 2, d), (2,))
            assert is_primitive(got) == (d % 3 != 0)

    def test_trivial_vector(self):
        assert is_primitive(MukaiVector(1, 0, 1, 1))

    def test_non_integral_rejected(self):
        v = MukaiVector(2, 1, Fraction(1, 2), 3)
        with pytest.raises(ValueError):
            is_primitive(v)

    def test_bad_inputs(self):
        for r, d in ((0, 1), (-2, 1), (2, 0), (2, -3)):
            with pytest.raises(ValueError):
                MukaiVector(r, 1, 1, d)
