import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from logchern.characters import chern_classes
from logchern.formulas import schur_ch3
from logchern.oracle import _adams_family, _adams_power_sum, oracle_schur_ch
from logchern.ring import PolyRing, graded_generators, root_generators
from logchern.symfunc import (
    Partition,
    enumerate_partitions,
    is_symmetric,
    jacobi_trudi,
    jacobi_trudi_form,
    newton_family,
    power_sum_poly,
    powersum_ring,
    schur_from_power_sums,
    schur_in_roots,
    stirling2,
    sym_to_power_sums,
    weyl_dim,
)
from witness import det_by_cofactors, det_by_permutations, powersums_to_roots, ssyt_count


def roots(r, D):
    ring = PolyRing(root_generators(r), D)
    return ring, [ring.gen(n) for n in ring.names]


def roots_character(qs):
    """The character with ch_k = p_k/k! of the roots qs; its c_k are their sigma_k."""
    ring = qs[0].ring
    comps = tuple(power_sum_poly(k, qs) / factorial(k) for k in range(1, ring.truncation + 1))
    return sum(comps, ring.scalar(len(qs)))


def ssyt_fillings(shape, r):
    """All SSYT of the given shape with entries <= r (test-side oracle)."""
    rows = [p for p in shape if p]
    if not rows:
        yield []
        return

    def rec(grid, i, j):
        if i == len(rows):
            yield [row[:] for row in grid]
            return
        ni, nj = (i, j + 1) if j + 1 < rows[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, r + 1):
            grid[i][j] = v
            yield from rec(grid, ni, nj)
        grid[i][j] = 0

    yield from rec([[0] * p for p in rows], 0, 0)


class TestPartition:
    def test_normalization_and_size(self):
        p = Partition((3, 1, 0, 0))
        assert p == (3, 1) and p.size == 4 and len(p) == 2

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    @pytest.mark.parametrize("parts", [(1, 0, 1), (0, 2), (2, 0, 0, 1)])
    def test_rejects_zero_before_a_part(self, parts):
        # only trailing zeros are padding; (1, 0, 1) is not (1, 1)
        with pytest.raises(ValueError):
            Partition(parts)

    def test_rejects_a_negative_part(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: weyl_dim((2.0,), 3),
            lambda: schur_ch3((2.0,), 3),
            lambda: oracle_schur_ch((1.5,), 2, 2),
        ],
        ids=["weyl_dim", "schur_ch3", "oracle_schur_ch"],
    )
    def test_rejects_a_part_that_is_not_an_int(self, call):
        # a float part is refused up front, before any arithmetic reads it
        with pytest.raises(ValueError, match="^partition parts must be integers: ") as exc:
            call()
        assert "\n" not in str(exc.value)

    def test_trailing_zeros_are_the_same_key(self):
        padded, plain = Partition((2, 1, 0)), Partition((2, 1))
        assert padded == plain and hash(padded) == hash(plain)
        assert {plain: "found"}[padded] == "found"
        assert padded != Partition((2,)) and padded == (2, 1)

    def test_str(self):
        assert str(Partition(())) == "0"
        assert str(Partition((2, 1))) == "2,1"

    def test_enumerate_empty(self):
        assert enumerate_partitions(0, 3) == [Partition(())]

    def test_enumerate_three_two(self):
        assert enumerate_partitions(3, 2) == [(3,), (2, 1)]

    def test_enumerate_count_p4(self):
        # p(4) = 5 by hand: (4),(3,1),(2,2),(2,1,1),(1,1,1,1)
        assert len(enumerate_partitions(4, 4)) == 5


class TestStirling:
    def test_diagonal(self):
        for n in range(6):
            assert stirling2(n, n) == 1

    def test_small_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25

    def test_out_of_range(self):
        assert stirling2(2, 5) == 0
        assert stirling2(3, 0) == 0


class TestDimensions:
    def test_single_row_is_binomial(self):
        from math import comb

        for r in (2, 3, 5):
            for m in range(7):
                assert weyl_dim((m,), r) == comb(m + r - 1, r - 1)

    def test_wedge_square_of_c4(self):
        assert weyl_dim((1, 1), 4) == 6

    def test_two_one_rank_three(self):
        assert weyl_dim((2, 1), 3) == 8
        assert ssyt_count((2, 1), 3) == 8

    def test_ssyt_standard_rep(self):
        for r in (1, 2, 5):
            assert ssyt_count((1,), r) == r

    def test_ssyt_sym_square_rank_two(self):
        assert ssyt_count((2,), 2) == 3

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError):
            weyl_dim((1, 1, 1), 2)
        with pytest.raises(ValueError):
            ssyt_count((1, 1, 1), 2)

    def test_weyl_equals_ssyt_small_sweep(self):
        for r in (2, 3, 4):
            for size in range(5):
                for alpha in enumerate_partitions(size, r):
                    assert weyl_dim(alpha, r) == ssyt_count(alpha, r)


class TestFamilies:
    def test_power_sum(self):
        ring, qs = roots(2, 2)
        assert power_sum_poly(2, qs) == ring.parse("a1^2 + a2^2")

    def test_elementary(self):
        ring, qs = roots(3, 2)
        assert schur_in_roots((1, 1), 3, qs) == ring.parse("a1*a2 + a1*a3 + a2*a3")
        ring, qs = roots(3, 4)
        assert chern_classes(roots_character(qs))[3].is_zero()

    def test_complete_degree_two(self):
        ring, qs = roots(2, 2)
        assert schur_in_roots((2,), 2, qs) == ring.parse("a1^2 + a1*a2 + a2^2")

    def test_against_direct_monomial_expansion(self):
        # independent oracle: sums over (strictly/weakly) increasing index tuples
        for r in (2, 3, 4):
            for k in range(1, 5):
                ring, qs = roots(r, k)
                sigma = ring.zero()
                for idx in combinations(range(r), k) if k <= r else ():
                    term = ring.one()
                    for i in idx:
                        term = term * qs[i]
                    sigma = sigma + term
                h = ring.zero()
                for idx in combinations_with_replacement(range(r), k):
                    term = ring.one()
                    for i in idx:
                        term = term * qs[i]
                    h = h + term
                power_sums = [power_sum_poly(j, qs) for j in range(k + 1)]
                assert chern_classes(roots_character(qs))[k - 1] == sigma
                assert newton_family(power_sums)[k] == h
                if k <= r:
                    assert schur_in_roots((1,) * k, r, qs) == sigma
                assert schur_in_roots((k,), r, qs) == h

    def test_homogeneous_and_symmetric(self):
        ring, qs = roots(3, 3)
        for k, val in (
            (3, power_sum_poly(3, qs)),
            (3, schur_in_roots((3,), 3, qs)),
            (2, schur_in_roots((1, 1), 3, qs)),
        ):
            assert val.is_homogeneous(k)
            assert is_symmetric(val)


class TestSchur:
    def test_single_box(self):
        ring, qs = roots(3, 1)
        assert schur_in_roots((1,), 3, qs) == ring.parse("a1 + a2 + a3")

    def test_column_is_elementary(self):
        ring, qs = roots(2, 2)
        assert schur_in_roots((1, 1), 2, qs) == ring.parse("a1*a2")

    def test_two_one_two_vars(self):
        ring, qs = roots(2, 3)
        assert schur_in_roots((2, 1), 2, qs) == ring.parse("a1^2*a2 + a1*a2^2")

    def test_empty_partition(self):
        ring, qs = roots(2, 2)
        assert schur_in_roots((), 2, qs) == ring.one()

    def test_against_tableau_sum(self):
        # independent oracle: sum of q^content over all SSYT
        for r in (2, 3):
            for size in range(1, 5):
                for alpha in enumerate_partitions(size, r):
                    ring, qs = roots(r, size)
                    expect = ring.zero()
                    for tab in ssyt_fillings(alpha.padded(r), r):
                        term = ring.one()
                        for row in tab:
                            for v in row:
                                term = term * qs[v - 1]
                        expect = expect + term
                    assert schur_in_roots(alpha, r, qs) == expect

    def test_pieri_square(self):
        ring, qs = roots(3, 2)
        lhs = schur_in_roots((1,), 3, qs) * schur_in_roots((1,), 3, qs)
        rhs = schur_in_roots((2,), 3, qs) + schur_in_roots((1, 1), 3, qs)
        assert lhs == rhs

    def test_dimension_via_ones(self):
        # s_alpha(1,...,1) = weyl_dim: third independent dimension count
        for r in (2, 3, 4, 5):
            for size in range(5):
                for alpha in enumerate_partitions(size, r):
                    ring = PolyRing(root_generators(1), 1)
                    ones = [ring.one()] * r
                    val = schur_in_roots(alpha, r, ones).constant()
                    assert val == weyl_dim(alpha, r)

    def test_homogeneous_and_symmetric(self):
        for alpha in enumerate_partitions(4, 3):
            ring, qs = roots(3, 4)
            s = schur_in_roots(alpha, 3, qs)
            assert s.is_homogeneous(4)
            assert is_symmetric(s)


    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([
            alpha
            for n in range(3, 9)
            for alpha in enumerate_partitions(n, n)
            if alpha[0] < len(alpha)
        ])
    )
    def test_dual_form_equals_h_determinant(self, alpha):
        # schur_from_power_sums takes the e-form det(e_{alpha'_i - i + j})
        # for these; the h-form det(h_{alpha_i - i + j}) is built here on
        # free power sums
        ring = powersum_ring(alpha.size)
        ps = [ring.one()] + [ring.gen(f"p{k}") for k in range(1, alpha.size + 1)]
        hs = newton_family(ps)
        ell = len(alpha)
        matrix = [
            [
                hs[k] if (k := alpha[i] - i + j) >= 0 else ring.zero()
                for j in range(ell)
            ]
            for i in range(ell)
        ]
        assert schur_from_power_sums(alpha, ps) == det_by_cofactors(matrix, ring)


def conjugate(alpha):
    first = alpha[0] if alpha else 0
    return tuple(sum(1 for p in alpha if p > j) for j in range(first))


class TestJacobiTrudiSteps:
    def test_both_forms_equal_the_root_ring_witness(self):
        # the h-form det(h_{alpha_i - i + j}) and the e-form
        # det(e_{alpha'_i - i + j}), each from the family step and the
        # determinant step, whichever form schur_in_roots picks
        forms = set()
        for r in range(1, 5):
            for size in range(7):
                ring, qs = roots(r, max(size, 1))
                ps = [power_sum_poly(k, qs) for k in range(size + 1)]
                hs, es = newton_family(ps), newton_family(ps, dual=True)
                for alpha in enumerate_partitions(size, r):
                    expect = schur_in_roots(alpha, r, qs)
                    assert jacobi_trudi(alpha, hs) == expect
                    assert jacobi_trudi(conjugate(alpha), es) == expect
                    rows, dual, top = jacobi_trudi_form(alpha)
                    assert rows == (conjugate(alpha) if dual else alpha)
                    assert top == (alpha[0] + len(alpha) - 1 if alpha else 0)
                    forms.add(dual)
        assert forms == {False, True}

    def test_cached_family_is_the_newton_family_prefix(self):
        for r, D in ((1, 3), (2, 3), (3, 4), (5, 2)):
            ps = [_adams_power_sum(r, D, j) for j in range(9)]
            omega = [p if k % 2 else -p for k, p in enumerate(ps)]
            for dual, sums in ((False, ps), (True, omega)):
                full = _adams_family(r, D, dual, 8)
                for n in range(9):
                    assert _adams_family(r, D, dual, n) == full[: n + 1]
                    assert list(full[: n + 1]) == newton_family(sums[: n + 1])

    @pytest.mark.parametrize("dual", [False, True], ids=["h-form", "e-form"])
    def test_one_minor_table_serves_every_partition(self, dual):
        # one table per rank and form, filled by the partitions of size <= 8
        # in a shuffled order: each value is the determinant of that
        # partition's own matrix, and the value with no sharing
        rng = random.Random(8)
        for r in range(1, 7):
            fam = _adams_family(r, 3, dual, 8)
            zero = fam[0].ring.zero()
            alphas = [a for n in range(9) for a in enumerate_partitions(n, r)]
            rng.shuffle(alphas)
            minors = {}
            for alpha in alphas:
                rows = conjugate(alpha) if dual else alpha
                n = len(rows)
                matrix = [
                    [fam[k] if (k := rows[i] - i + j) >= 0 else zero for j in range(n)]
                    for i in range(n)
                ]
                shared = jacobi_trudi(rows, fam, minors)
                assert shared == det_by_cofactors(matrix, fam[0].ring)
                assert shared == jacobi_trudi(rows, fam)
            assert minors or (r == 1 and not dual)


class TestDeterminant:
    """The witness cofactor expansion, which skips zero entries, against the permutation sum."""

    RING = PolyRing(graded_generators("e", 3), 3)
    ENTRIES = [
        RING.zero(),
        RING.one(),
        RING.scalar(-2),
        RING.gen("e1"),
        RING.parse("e1 - 1/2*e2"),
        RING.parse("3 + e1^2 - 5/3*e3"),
        RING.parse("-1/7 + e2 + e1*e2"),
    ]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_permutation_sum(self, data):
        n = data.draw(st.integers(0, 4))
        entry = st.sampled_from(self.ENTRIES)
        matrix = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        assert det_by_cofactors(matrix, self.RING) == det_by_permutations(matrix, self.RING)

    def test_one_by_one_is_its_entry(self):
        for a in self.ENTRIES:
            assert det_by_cofactors([[a]], self.RING) is a

    def test_zero_rows_and_unit_triangles(self):
        z, one, e1 = self.ENTRIES[0], self.ENTRIES[1], self.ENTRIES[3]
        assert det_by_cofactors([[e1, one], [z, z]], self.RING).is_zero()
        assert det_by_cofactors([[one, e1, e1], [z, one, e1], [z, z, one]], self.RING) == one
        assert det_by_cofactors([[z, one], [one, z]], self.RING) == -one


class TestPowerSumConversion:
    def test_square_sum(self):
        ring, a = roots(3, 2)
        p = a[0] ** 2 + a[1] ** 2 + a[2] ** 2
        out = sym_to_power_sums(p, 3)
        assert out == powersum_ring(2).parse("p2")

    def test_product_two_vars(self):
        ring, a = roots(2, 2)
        out = sym_to_power_sums(a[0] * a[1], 2)
        assert out == powersum_ring(2).parse("1/2*p1^2 - 1/2*p2")

    def test_sigma3_three_vars(self):
        ring, a = roots(3, 3)
        out = sym_to_power_sums(schur_in_roots((1, 1, 1), 3, a), 3)
        assert out == powersum_ring(3).parse("1/6*p1^3 - 1/2*p1*p2 + 1/3*p3")

    def test_rejects_asymmetric(self):
        ring, a = roots(2, 2)
        with pytest.raises(ValueError):
            sym_to_power_sums(a[0], 2)

    def test_section_prefers_small_parts(self):
        # degree 3 in 2 roots: dependent system; section must use p1, p2 only
        ring, a = roots(2, 3)
        out = sym_to_power_sums(power_sum_poly(3, a), 2)
        assert out.coefficient((0, 0, 1)) == 0
        assert powersums_to_roots(out, 2) == power_sum_poly(3, a)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random_symmetric(self, data):
        r = data.draw(st.integers(2, 4))
        D = min(r, 4)
        ring, a = roots(r, D)
        poly = ring.zero()
        for k in range(1, D + 1):
            for alpha in enumerate_partitions(k, r):
                c = Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4)))
                if c:
                    # m_alpha built symmetrically from the Schur basis is
                    # overkill; orbit sums keep the input honest instead
                    poly = poly + c * schur_in_roots(alpha, r, a)
        out = sym_to_power_sums(poly, r)
        assert powersums_to_roots(out, r) == poly

    def test_round_trip_above_rank(self):
        # degrees above r exercise the chosen section
        ring, a = roots(2, 5)
        poly = schur_in_roots((3, 2), 2, a) + schur_in_roots((4,), 2, a)
        out = sym_to_power_sums(poly, 2)
        assert powersums_to_roots(out, 2) == poly
