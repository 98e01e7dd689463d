import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from logchern.ring import (
    PolyRing,
    _SumRow,
    graded_generators,
    proportion,
    rat,
    root_generators,
)
from witness import (
    proportion_by_scaling,
    reference_product,
    reference_sum,
    series_log,
    substitute_by_products,
)


def roots_ring(r, D):
    return PolyRing(root_generators(r), D)


@st.composite
def poly_strategy(draw, ring, max_terms=6, zero_constant=False):
    n = len(ring.names)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = []
        budget = ring.truncation
        for d in ring.degrees:
            e = draw(st.integers(0, budget // d))
            exps.append(e)
            budget -= e * d
        if zero_constant and not any(exps):
            continue
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 6))
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + Fraction(num, den)
    return ring.from_terms(terms)


RING23 = roots_ring(2, 3)
RING35 = roots_ring(3, 5)


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            PolyRing([("x", 1), ("x", 2)], 3)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            PolyRing([("x", 0)], 3)

    def test_zero_coefficients_dropped(self):
        p = RING23.from_terms({(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert (1, 0) not in p.terms

    def test_overflow_monomial_rejected(self):
        with pytest.raises(ValueError):
            RING23.monomial((4, 0))


class TestAdd:
    def test_additive_inverse(self):
        x = RING23.gen("a1")
        assert (x + (-x)).is_zero()

    def test_truncated_sum(self):
        ring = roots_ring(1, 2)
        x = ring.gen("a1")
        p = ring.one() + x
        q = x * x
        assert (p + q) == ring.parse("1 + a1 + a1^2")

    def test_exact_rational_addition(self):
        ring = roots_ring(1, 2)
        half_sq = ring.monomial((2,), Fraction(1, 2))
        assert half_sq + half_sq == ring.parse("a1^2")

    def test_int_or_fraction_is_a_constant_on_either_side(self):
        ring = roots_ring(1, 2)
        x = ring.gen("a1")
        assert x + 1 == 1 + x == ring.parse("1 + a1")
        assert x - Fraction(1, 2) == ring.parse("a1 - 1/2")
        assert 2 - x == ring.parse("2 - a1")
        assert Fraction(1, 3) - x * x == ring.parse("1/3 - a1^2")
        # so sum() and accumulators that start at 0 run on ring elements
        assert sum([x, x * x]) == ring.parse("a1 + a1^2")
        with pytest.raises(TypeError):
            x + 0.5

    def test_a_bool_is_no_rational(self):
        # bool is an int subclass, so only an explicit test keeps True out
        with pytest.raises(TypeError, match="not an exact rational: True"):
            rat(True)
        with pytest.raises(TypeError, match="not an exact rational: False"):
            RING23.gen("a1").scale(False)
        with pytest.raises(TypeError):
            RING23.one() + True

    def test_int_or_fraction_compares_as_a_constant(self):
        # == reads a scalar as + and * do, and equal values hash alike
        ring = roots_ring(1, 2)
        x = ring.gen("a1")
        assert ring.zero() == 0 and 0 == ring.zero()
        assert ring.one() == 1 and Fraction(1) == ring.one()
        assert (x + 1 - x) == 1
        assert ring.scalar(Fraction(-3, 4)) == Fraction(-3, 4)
        for value in (0, 1, -7, Fraction(-3, 4), Fraction(5, 2)):
            assert hash(ring.scalar(value)) == hash(value)
            assert ring.scalar(value) in {value}
        assert x != 0 and x + 1 != 1 and ring.one() != 2
        assert ring.one() != 1.0 and ring.zero() != 0.0

    def test_mismatched_rings_rejected(self):
        with pytest.raises(ValueError):
            RING23.gen("a1") + RING35.gen("a1")
        with pytest.raises(ValueError):
            RING23.gen("a1") + roots_ring(2, 4).gen("a1")


class TestMul:
    def test_difference_of_squares(self):
        ring = roots_ring(1, 2)
        x = ring.gen("a1")
        assert (ring.one() + x) * (ring.one() - x) == ring.parse("1 - a1^2")

    def test_binomial_square(self):
        ring = roots_ring(2, 2)
        s = ring.gen("a1") + ring.gen("a2")
        assert s * s == ring.parse("a1^2 + 2*a1*a2 + a2^2")

    def test_truncation_kills_high_degree(self):
        ring = roots_ring(1, 1)
        x = ring.gen("a1")
        assert (x * x).is_zero()

    def test_scalar_multiplication(self):
        x = RING23.gen("a1")
        assert 3 * x == x + x + x
        assert (x / 2) * 2 == x


# roots of degree 1, e_k of degree k, and mixed degrees (2, 3, 1)
KERNEL_RINGS = [
    roots_ring(3, 5),
    PolyRing(graded_generators("e", 4), 5),
    PolyRing((("x", 2), ("y", 3), ("z", 1)), 6),
]


@st.composite
def wide_poly_strategy(draw, ring):
    """Polynomials of degree <= D with large numerators and unequal denominators."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        exps = []
        budget = ring.truncation
        for d in ring.degrees:
            e = draw(st.integers(0, budget // d))
            exps.append(e)
            budget -= e * d
        num = draw(st.integers(-(10**30), 10**30))
        den = draw(st.sampled_from([1, 2, 3, 7, 12, 10**12, 2**61 - 1, 3**40]))
        terms[tuple(exps)] = Fraction(num, den)
    return ring.from_terms(terms)


def assert_canonical(p):
    """The stored form: nonzero int numerators over a positive int denominator
    with no common factor, and zero as 1 over no terms."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1


def assert_same_value(got, ref):
    """Equal coefficient by coefficient, read through the Fraction view."""
    assert_canonical(got)
    assert dict(got.items()) == dict(ref.items())
    assert (got.den, got.terms) == (ref.den, ref.terms)


def fresh_copy(p):
    """p in a new ring equal to p's, whose product table is still empty."""
    ring = p.ring
    return PolyRing(zip(ring.names, ring.degrees), ring.truncation).from_terms(dict(p.items()))


def assert_kernel_matches(x, y):
    """x * y on a cold ring, then twice on x's ring, whose table is warm the second time."""
    ref = reference_product(x, y)
    cold_x = fresh_copy(x)
    assert not cold_x.ring._sums
    assert_same_value(cold_x * cold_x.ring.from_terms(dict(y.items())), ref)
    assert_same_value(x * y, ref)
    assert_same_value(x * y, ref)


class TestProductKernel:
    """The integer kernel of GradedPoly.__mul__ and its product table against
    the Fraction double loop."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_fraction_loop(self, data):
        ring = data.draw(st.sampled_from(KERNEL_RINGS))
        a = data.draw(wide_poly_strategy(ring))
        b = data.draw(wide_poly_strategy(ring))
        # (a + b)(a - b) cancels its cross terms; b with its constant term
        # dropped leaves every term of a at degree D with nothing to meet
        b0 = b - b.constant()
        pairs = ((a, b), (a + b, a - b), (a, ring.zero()), (ring.zero(), b), (a, b0), (b0, b0))
        for x, y in pairs:
            assert_kernel_matches(x, y)

    def test_cancellation_stores_no_zero(self):
        ring = KERNEL_RINGS[2]
        p = ring.parse("1 + 3/7*x")
        q = ring.parse("5/12*z - 2/9*y")
        prod = (p + q) * (p - q)
        assert prod == p * p - q * q
        assert (p * q).terms.keys().isdisjoint(prod.terms)
        assert_kernel_matches(p + q, p - q)

    def test_terms_at_degree_d(self):
        ring = KERNEL_RINGS[2]
        top = ring.parse("-4/3*y^2 + 5/2*x^3 + 7*z^6 + x*z")
        low = ring.parse("-9/14 + 2/5*z")
        # every degree-6 term times the constant stays; times z it drops
        assert top * low == ring.parse(
            "-9/14*x*z + 2/5*x*z^2 + 6/7*y^2 - 45/28*x^3 - 9/2*z^6"
        )
        assert_kernel_matches(top, low)
        # without the constant only x*z meets a term of degree <= 2
        assert top * (low + Fraction(9, 14)) == ring.parse("2/5*x*z^2")
        assert_kernel_matches(top, low + Fraction(9, 14))

    def test_row_made_by_one_operand_serves_another(self, monkeypatch):
        # the cold p * q fills p's rows on first lookup, one miss per pair of
        # terms; p * s then reads them with s's terms, of which only the two
        # not in q are new to each row
        misses = []
        fill = _SumRow.__missing__
        monkeypatch.setattr(_SumRow, "__missing__", lambda row, eb: misses.append(eb) or fill(row, eb))
        ring = PolyRing((("x", 2), ("y", 3), ("z", 1)), 6)
        p = ring.parse("2 + 3/7*x - y + z^2")
        q = ring.parse("5*z - 1/2*x*z + x^2")
        s = ring.parse("-4/3*y + x^2 + 7*z^4 + 5*z")
        assert_same_value(p * q, reference_product(p, q))
        assert len(misses) == len(p.terms) * len(q.terms)
        assert all(ring._sums[ea].keys() == q.terms.keys() for ea in p.terms)
        misses.clear()
        assert_same_value(p * s, reference_product(p, s))
        assert len(misses) == 2 * len(p.terms)
        assert all(ring._sums[ea].keys() == q.terms.keys() | s.terms.keys() for ea in p.terms)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_table_holds_sums_or_the_marker(self, data):
        # every entry is ea + eb when that has degree <= D and None otherwise,
        # and rows and columns are exponent vectors of stored terms
        ring = data.draw(st.sampled_from(KERNEL_RINGS))
        a = fresh_copy(data.draw(wide_poly_strategy(ring)))
        b = a.ring.from_terms(dict(data.draw(wide_poly_strategy(ring)).items()))
        for x, y in ((a, b), (b, a), (a * b, a)):
            x * y
        table = a.ring._sums
        D, wdeg = ring.truncation, ring.wdeg
        for ea, row in table.items():
            assert wdeg(ea) <= D
            for eb, s in row.items():
                total = tuple(i + j for i, j in zip(ea, eb))
                assert s == (total if wdeg(total) <= D else None)
        pairs = sum(len(row) for row in table.values())
        assert pairs <= len({*a.terms, *b.terms, *(a * b).terms}) ** 2


@st.composite
def wide_scalar(draw):
    num = draw(st.integers(-(10**30), 10**30).filter(bool))
    den = draw(st.sampled_from([1, 2, 3, 12, 10**12, 3**40]))
    return Fraction(num, den)


class TestIntegerSum:
    """+, - and scale on integer numerators against the Fraction term loop."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_fraction_loop(self, data):
        ring = data.draw(st.sampled_from(KERNEL_RINGS))
        a = data.draw(wide_poly_strategy(ring))
        b = data.draw(wide_poly_strategy(ring))
        c = data.draw(wide_scalar())
        assert_same_value(a + b, reference_sum(a, b))
        assert_same_value(a - b, reference_sum(a, b, -1))
        assert_same_value(a.scale(c), reference_sum(ring.zero(), a, c))
        assert_same_value(a + b.scale(c), reference_sum(a, b, c))
        assert_same_value(a / c, reference_sum(ring.zero(), a, 1 / c))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_full_cancellation_is_the_canonical_zero(self, data):
        ring = data.draw(st.sampled_from(KERNEL_RINGS))
        a = data.draw(wide_poly_strategy(ring))
        c = data.draw(wide_scalar())
        for z in (a - a, a + (-a), a.scale(c) - a.scale(c), a.scale(0)):
            assert (z.den, z.terms) == (1, {})
            assert z == ring.zero()

    def test_unequal_denominators_reduce(self):
        ring = KERNEL_RINGS[2]
        a = ring.parse("1/6*x + 1/4*z")
        b = ring.parse("1/3*x - 1/4*z + 5/12")
        total = a + b
        # 1/6 + 1/3 = 1/2 and the z terms cancel: 1/2 x + 5/12 over 12
        assert (total.den, total.terms) == (12, {(1, 0, 0): 6, (0, 0, 0): 5})
        assert_same_value(total, reference_sum(a, b))
        half = ring.parse("1/2*x + 1/2*z")
        assert (half + half).den == 1


class TestSubstitute:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_a_product_per_factor(self, data):
        # the powers start at the image and the coefficient scales the
        # product of powers, where the former loop multiplied by constants
        ring = data.draw(st.sampled_from(KERNEL_RINGS))
        target = data.draw(st.sampled_from(KERNEL_RINGS))
        p = data.draw(wide_poly_strategy(ring))
        images = {name: data.draw(wide_poly_strategy(target)) for name in ring.names}
        assert_same_value(p.substitute(target, images), substitute_by_products(p, target, images))


class TestSeries:
    def test_exp_of_zero(self):
        assert RING23.zero().exp() == RING23.one()

    def test_exp_taylor(self):
        ring = roots_ring(1, 3)
        assert ring.gen("a1").exp() == ring.parse("1 + a1 + 1/2*a1^2 + 1/6*a1^3")

    def test_exp_of_sum(self):
        ring = roots_ring(2, 2)
        s = ring.gen("a1") + ring.gen("a2")
        expect = ring.one() + s + (s * s) / 2
        assert s.exp() == expect

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            RING23.one().exp()

    def test_log_of_one(self):
        assert series_log(RING23.one()) == RING23.zero()

    def test_log_taylor(self):
        ring = roots_ring(1, 2)
        x = ring.gen("a1")
        assert series_log(ring.one() + x) == ring.parse("a1 - 1/2*a1^2")

    def test_log_rejects_bad_constant(self):
        # 0 is the case with no stored constant term
        for constant in (0, 2, -1):
            for p in (RING23.scalar(constant), RING23.scalar(constant) + RING23.gen("a1")):
                with pytest.raises(ValueError, match="log needs constant term 1"):
                    series_log(p)

    def test_log_of_a_constant_one_over_a_denominator(self):
        # (3 + a1)/3 stores its constant 1 as the numerator 3 over den 3
        p = RING23.parse("3 + a1").scale(Fraction(1, 3))
        assert (p.den, p.terms[(0, 0)]) == (3, 3)
        assert series_log(p) == RING23.parse("1/3*a1 - 1/18*a1^2 + 1/81*a1^3")

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_exp_log_inverse(self, data):
        for D in (1, 2, 3, 4, 5, 6):
            ring = PolyRing(root_generators(2), D)
            p = ring.one() + data.draw(poly_strategy(ring, zero_constant=True))
            assert series_log(p).exp() == p
            q = data.draw(poly_strategy(ring, zero_constant=True))
            assert series_log(q.exp()) == q


class TestRingAxioms:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_commutative_associative_distributive(self, data):
        ring = RING35
        a = data.draw(poly_strategy(ring))
        b = data.draw(poly_strategy(ring))
        c = data.draw(poly_strategy(ring))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_coefficients_stay_reduced(self, data):
        a = data.draw(poly_strategy(RING35))
        b = data.draw(poly_strategy(RING35))
        c = data.draw(st.fractions(max_denominator=12))
        for p in (a * b, a + b, a - b, -a, a.scale(c), *(a.component(k) for k in range(6))):
            assert_canonical(p)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_equal_values_share_one_representation(self, data):
        ring = data.draw(st.sampled_from(KERNEL_RINGS))
        a = data.draw(wide_poly_strategy(ring))
        b = data.draw(wide_poly_strategy(ring))
        c = data.draw(wide_scalar())
        for same in ((a + b) - b, a * ring.one(), (a / 3) * 3, a.scale(c).scale(1 / c)):
            assert (same.den, same.terms) == (a.den, a.terms)
            assert hash(same) == hash(a)


class TestCanonicalForm:
    def test_example_from_interface(self):
        ring = PolyRing([("c1", 1), ("ch2", 2)], 3)
        p = ring.parse("1 - 11/10*c1^2 + 5*ch2")
        assert p.text() == "1 - 11/10*c1^2 + 5*ch2"
        assert p.compact() == "1-11/10*c1^2+5*ch2"

    def test_graded_lex_order(self):
        ring = PolyRing(graded_generators("e", 3), 3)
        p = ring.parse("e3 + e1*e2 + e1^3 + e1 + 2")
        assert p.text() == "2 + e1 + e1^3 + e1*e2 + e3"

    def test_unit_coefficients_and_powers(self):
        ring = roots_ring(2, 4)
        p = ring.parse("-a1 + a1^2*a2")
        assert p.text() == "-a1 + a1^2*a2"

    def test_parse_roundtrip(self):
        ring = PolyRing(graded_generators("e", 4), 4)
        for s in ("0", "e4", "1/2*e1^2 + 4*e2", "-e1 - 2*e3 + 3/7*e1*e3"):
            assert ring.parse(s).text() == s

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            RING23.parse("a1 + q7")
        with pytest.raises(ValueError):
            RING23.parse("a1 ** 2")
        # numbers are ASCII digits only: an Arabic-Indic 3 and 2 are refused
        with pytest.raises(ValueError):
            RING23.parse("\u0663*a1")
        with pytest.raises(ValueError):
            RING23.parse("a1^\u0662")


class TestProportion:
    def test_scalar_multiple_found(self):
        ring = roots_ring(2, 2)
        y = ring.parse("a1^2 - 4*a1*a2")
        ok, lam = proportion(y.scale(Fraction(-7, 3)), y)
        assert ok and lam == Fraction(-7, 3)

    def test_not_proportional(self):
        ring = roots_ring(2, 2)
        ok, lam = proportion(ring.parse("a1^2"), ring.parse("a1^2 + a2^2"))
        assert not ok and lam is None

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_multiples_and_outsiders(self, data):
        # the pivot is whichever term y stores first, so draw y at random
        ring = data.draw(st.sampled_from(KERNEL_RINGS))
        y = data.draw(wide_poly_strategy(ring))
        c = data.draw(wide_scalar())
        zero = ring.zero()
        outside = [
            exps
            for exps in itertools.product(*(range(ring.truncation // d + 1) for d in ring.degrees))
            if ring.wdeg(exps) <= ring.truncation and exps not in y.terms
        ]
        stray = ring.monomial(data.draw(st.sampled_from(outside)), data.draw(wide_scalar()))
        assert proportion(y.scale(c) + stray, y) == (False, None)
        if y.is_zero():
            assert proportion(zero, y) == (True, None)
        else:
            assert proportion(y.scale(c), y) == (True, c)
            assert proportion(zero, y) == (True, 0)
            assert proportion(y, zero) == (False, None)

    def test_zero_cases(self):
        ring = roots_ring(2, 2)
        z = ring.zero()
        assert proportion(z, z) == (True, None)
        assert proportion(ring.gen("a1"), z) == (False, None)
        ok, lam = proportion(z, ring.gen("a1"))
        assert ok and lam == 0


class TestProportionWitness:
    """proportion's cross-multiplied numerators against x == y.scale(lam)."""

    @staticmethod
    def assert_same_decision(x, y):
        ok, lam = proportion(x, y)
        assert (ok, lam) == proportion_by_scaling(x, y)
        assert lam is None or type(lam) is Fraction

    def test_named_cases(self):
        ring = roots_ring(2, 2)
        # a1 is the pivot: it is the first term y stores
        y = ring.from_terms({(1, 0): 1, (0, 1): Fraction(-3, 2)})
        assert next(iter(y.terms)) == (1, 0)
        cases = {
            "x = 0": (ring.zero(), (True, 0)),
            "zero pivot coefficient, x != 0": (ring.parse("a2"), (False, None)),
            "zero pivot, x a multiple of y off the pivot": (ring.parse("-3*a2"), (False, None)),
            "support of x inside that of y": (ring.parse("2*a1"), (False, None)),
            "support of x beyond that of y": (y.scale(5) + ring.parse("a1*a2"), (False, None)),
            "same support, not a multiple": (ring.parse("a1 + a2"), (False, None)),
            "negative lambda": (y.scale(Fraction(-7, 3)), (True, Fraction(-7, 3))),
            "lambda with a large denominator": (y / 3**40, (True, Fraction(1, 3**40))),
        }
        for name, (x, expect) in cases.items():
            assert proportion(x, y) == expect, name
            self.assert_same_decision(x, y)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_scaling_decision(self, data):
        ring = data.draw(st.sampled_from(KERNEL_RINGS))
        y = data.draw(wide_poly_strategy(ring))
        c = data.draw(wide_scalar())
        other = data.draw(wide_poly_strategy(ring))
        for x in (ring.zero(), y, y.scale(c), -y.scale(c), other, y.scale(c) + other):
            self.assert_same_decision(x, y)
            self.assert_same_decision(y, x)
