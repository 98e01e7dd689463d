from fractions import Fraction
from itertools import product

import pytest

from logchern.cli import main
from logchern.formulas import schur_ch3
from logchern.mukai import MukaiVector, is_primitive, mukai_schur
from logchern.oracle import oracle_schur_ch
from logchern.report import schur_factor
from logchern.symfunc import Partition, enumerate_partitions
from witness import mukai_schur_by_eigenvalue


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
        for r in range(1, 7):
            for size in range(9):
                for alpha in enumerate_partitions(size, r):
                    f1 = schur_ch3(alpha, r, 1).coefficient((1,))
                    assert f1.denominator == 1, (alpha, r, f1)
                    # at r = 1 the line bundle with c = 3, d = 2 has s = 3^2 * 2 + 1
                    got = mukai_schur(MukaiVector(r, 3, 1 if r > 1 else 19, 2), alpha)
                    assert got.c == 3 * f1

    def test_s_is_a_fraction_and_values_compare(self):
        v = MukaiVector(2, 1, 2, 3)
        assert type(v.s) is Fraction and v.s == 2
        w = MukaiVector(2, 1, Fraction(4, 2), 3)
        assert v == w and hash(v) == hash(w)
        assert v != MukaiVector(2, 1, 3, 3)

    def test_values_are_immutable_tuples(self):
        v = MukaiVector(2, 1, 2, 3)
        with pytest.raises(AttributeError):
            v.r = 5
        p = Partition((2, 1))
        for name in ("size", "parts", "anything"):
            with pytest.raises(AttributeError):
                setattr(p, name, (3,))
        with pytest.raises(TypeError):
            p[0] = 1
        assert {Partition((2, 1)): 1}[(2, 1)] == 1
        assert v == (2, 1, 2, 3) and hash(v) == hash((2, 1, 2, 3))

    @pytest.mark.parametrize("s", [3, -40])
    def test_rank_one_takes_only_a_line_bundles_vector(self, s):
        # at r = 1 the table has no e2 term: without the check every s printed (1, 2*H, 5)
        with pytest.raises(ValueError, match=r"^a rank-1 Mukai vector .* s must be c\^2 d \+ 1$"):
            mukai_schur(MukaiVector(1, 1, s, 1), (2,))
        assert mukai_schur(MukaiVector(1, 1, 2, 1), (2,)) == (1, 2, 5, 1)

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

    @pytest.mark.parametrize("field", [0, 1, 3])
    def test_refuses_a_field_that_is_not_an_int(self, field):
        fields = [2, 1, 2, 3]
        fields[field] = float(fields[field])
        with pytest.raises(ValueError, match="^Mukai vector r, c and d must be integers: ") as exc:
            mukai_schur(MukaiVector(*fields), (2,))
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("field", [0, 1, 3])
    def test_refuses_a_bool_field(self, field):
        # bool is an int subclass, but True is no rank, degree or multiple of H
        fields = [2, 1, 2, 3]
        fields[field] = True
        with pytest.raises(ValueError, match="^Mukai vector r, c and d must be integers: "):
            MukaiVector(*fields)

    def test_refuses_a_bool_s(self):
        # s goes through rat, which refuses a bool as it refuses a float
        with pytest.raises(TypeError, match="not an exact rational: True"):
            MukaiVector(2, 1, True, 3)

    def test_bad_inputs(self):
        for r, d in ((0, 1), (-2, 1), (2, 0), (2, -3)):
            with pytest.raises(ValueError):
                MukaiVector(r, 1, 1, d)


def _on_k3(ch, v):
    """The Mukai vector of a character over e1, e2 under e1 -> c*H, e1^2 -> 2d c^2, e2 -> s - r."""
    ra = ch.constant()
    s = ch.coefficient((2, 0)) * 2 * v.d * v.c**2 + ch.coefficient((0, 1)) * (v.s - v.r) + ra
    return MukaiVector(int(ra), int(ch.coefficient((1, 0)) * v.c), s, v.d)


class TestMukaiAgainstOracle:
    """mukai_schur against the oracle's degree-2 character and the former closed form."""

    # at r = 1, where only a line bundle's vector (1, c, c^2 d + 1) is accepted, s is that one
    GRID = [
        (MukaiVector(r, c, s if r > 1 else c * c * d + 1, d), alpha)
        for r in range(1, 7)
        for c, s, d in ((1, 2, 3), (-2, 5, 1), (3, -4, 7))
        for size in range(5)
        for alpha in enumerate_partitions(size, r)
    ]

    def test_equals_the_oracle_on_a_k3(self):
        for v, alpha in self.GRID:
            assert mukai_schur(v, alpha) == _on_k3(oracle_schur_ch(alpha, v.r, 2), v), (v, alpha)

    def test_equals_the_former_closed_form(self):
        for v, alpha in self.GRID:
            assert mukai_schur(v, alpha) == mukai_schur_by_eigenvalue(v, alpha), (v, alpha)

    def test_a_wrong_ch2_row_changes_the_printed_vector(self, capsys, monkeypatch):
        # one more e1^2 in ch_2 adds 2d c^2 = 6 to the last entry
        import logchern.mukai

        def wrong_ch2(alpha, r, up_to=None):
            table = schur_ch3(alpha, r, up_to)
            return table + table.ring.parse("e1^2") if table.ring.truncation >= 2 else table

        monkeypatch.setattr(logchern.mukai, "schur_ch3", wrong_ch2)
        assert main(["mukai", "--v", "2,1,2", "--d", "3", "--partition", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "v(S^(2) E) = (3, 3*H, 12)"


def mukai_square(v):
    """The Mukai pairing v^2 = 2d c^2 - 2r s on a K3 with Pic = Z*H and H^2 = 2d."""
    return 2 * v.d * v.c**2 - 2 * v.r * v.s


class TestMukaiPairing:
    """v(S^alpha E)^2 = lambda_2 (v(E)^2 + 2r^2) - 2 r_alpha^2.

    Not a claim of the paper: a consequence of the Delta_2 factor that the
    sweep checks, Delta_2(S^alpha E) = lambda_2 Delta_2(E).  On a K3 the
    class Delta_2 = 2r c_2 - (r - 1) c_1^2 integrates to v^2 + 2r^2.
    """

    def test_pairing_scales_with_the_oracle_delta2_factor(self):
        cases = 0
        for r in range(2, 6):
            for alpha in (a for n in range(6) for a in enumerate_partitions(n, r)):
                ok, lam = schur_factor(alpha, r, 2)
                assert ok and lam is not None, (alpha, r)
                for c, s, d in product((-1, 0, 1, 3), (-2, 0, 5), (1, 5)):
                    v = MukaiVector(r, c, s, d)
                    w = mukai_schur(v, alpha)
                    expect = lam * (mukai_square(v) + 2 * r**2) - 2 * w.r**2
                    assert mukai_square(w) == expect, (v, alpha)
                    cases += 1
        assert cases == 1560

    def test_the_worked_example(self):
        # v(E) = (2, H, 2) with d = 5: v^2 = 2 and lambda_2 = 6 for S^2, so
        # v(S^2 E)^2 = 6 * (2 + 8) - 2 * 9 = 42, the square of (3, 3H, 8)
        v = MukaiVector(2, 1, 2, 5)
        w = mukai_schur(v, (2,))
        assert (mukai_square(v), w, mukai_square(w)) == (2, (3, 3, 8, 5), 42)
