"""Closed formulas: Casimir eigenvalue polynomials and character tables.

The quadratic/cubic eigenvalue polynomials evaluated on a partition control
how the discriminants of a bundle scale under Schur functors:

    Delta_1(S^a E) = |a| (r_a/r) Delta_1(E)
    Delta_2(S^a E) = dt2 (r_a/r)^2 Delta_2(E)
    Delta_3(S^a E) = dt3 (r_a/r)^3 Delta_3(E)

with dt2 = d2dot/((r-1)(r+1)) and dt3 = d3dot/((r-2)(r-1)(r+1)(r+2)).
The Schur table ``schur_ch3`` is the one reader of these eigenvalues: its
e_k coefficient is dt_k r_a/r (dt1 = |a|), so each factor above is that
coefficient times (r_a/r)^(k-1).

In the centred a + rho, l_i = a_i - |a|/r + rho_i with rho_i = (r+1)/2 - i,
d2dot = r (sum l_i^2 - sum rho_i^2) and d3dot = 2 r^2 sum l_i^3: the
quadratic and cubic Casimir eigenvalues of sl_r on V_a through the
Harish-Chandra shift, as the tests check on a grid of partitions.

Also here: the symmetric-power Chern character as an explicit double sum over
partitions (Stirling numbers and binomials), the degree-<=3 character tables
for exterior powers and general Schur functors, ``closed_ch``, which picks
the closed formula that answers each input, the degree-4 symmetric-power
coefficient, and ``hc_shift_check``, which proves the shifted-variable
identities relating the two forms of the eigenvalue polynomials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from logchern.characters import ch_ring, normal_form
from logchern.ring import GradedPoly, PolyRing, _reduced
from logchern.symfunc import Partition, binomial, enumerate_partitions, stirling2, weyl_dim


def _as_vector(alpha, r: int) -> tuple:
    """Pad a coordinate vector, a partition among them, with zeros to length r."""
    vec = tuple(alpha)
    if len(vec) > r:
        raise ValueError(f"{vec} has more than {r} coordinates")
    return vec + (0,) * (r - len(vec))


def delta2_dot(alpha, r: int) -> int:
    """(r-1) sum a_i^2 - 2 sum_{i<j} a_i a_j + r sum (r+1-2i) a_i.

    A plain polynomial evaluation: partitions are the intended input, but any
    integer (or rational) coordinate vector is accepted.  Evaluated in O(r)
    through the power sums: the pair sum is (p1^2 - p2)/2, so the quadratic
    part is r p2 - p1^2.
    """
    a = _as_vector(alpha, r)
    lin = sum((r + 1 - 2 * i) * x for i, x in enumerate(a, 1))
    return r * sum(x * x for x in a) - sum(a) ** 2 + r * lin


def delta3_dot(alpha, r: int) -> int:
    """The cubic eigenvalue polynomial on a partition.

    2(r-2)(r-1) sum a_i^3 - 6(r-2) sum_{i!=j} a_i^2 a_j
    + 24 sum_{i<j<k} a_i a_j a_k + 3r(r-2) sum (r+1-2i) a_i^2
    - 12r sum_{i<j} (r+1-i-j) a_i a_j
    + r^2 sum (6i^2 - 6i(r+1) + r^2 + 3r + 2) a_i.

    Evaluated in O(r), without division, through the power sums p_1, p_2,
    p_3 and the weighted sums s1 = sum i a_i, s2 = sum i a_i^2 and
    t1 = sum i^2 a_i: the double sums are p1 p2 - p3 and
    (r+1)(p1^2 - p2)/2 - (p1 s1 - s2), and the triple sum is
    (p1^3 - 3 p1 p2 + 2 p3)/6.
    """
    a = _as_vector(alpha, r)
    p1 = p2 = p3 = s1 = s2 = t1 = 0
    for i, x in enumerate(a, 1):
        x2 = x * x
        p1 += x
        p2 += x2
        p3 += x2 * x
        s1 += i * x
        s2 += i * x2
        t1 += i * i * x
    return (
        2 * (r - 2) * (r - 1) * p3
        - 6 * (r - 2) * (p1 * p2 - p3)
        + 4 * (p1**3 - 3 * p1 * p2 + 2 * p3)
        + 3 * r * (r - 2) * ((r + 1) * p2 - 2 * s2)
        - 6 * r * (r + 1) * (p1 * p1 - p2)
        + 12 * r * (p1 * s1 - s2)
        + r * r * (6 * t1 - 6 * (r + 1) * s1 + (r * r + 3 * r + 2) * p1)
    )


def delta_tilde2(alpha, r: int) -> Fraction:
    if r < 2:
        raise ValueError("delta_tilde2 needs r >= 2")
    return Fraction(delta2_dot(alpha, r), (r - 1) * (r + 1))


def delta_tilde3(alpha, r: int) -> Fraction:
    if r < 3:
        raise ValueError("delta_tilde3 needs r >= 3 (factor r-2)")
    return Fraction(delta3_dot(alpha, r), (r - 2) * (r - 1) * (r + 1) * (r + 2))


# -- symmetric powers: the double-sum character ------------------------------


def sym_power_ch(m: int, r: int, D: int) -> GradedPoly:
    """ch(S^m E) through degree D as an explicit combinatorial double sum.

    Summing over partitions alpha with nonzero parts (|alpha| <= D) and over
    integer vectors beta with 1 <= beta_i <= alpha_i:

        ch(S^m E) = sum_alpha 1/||alpha|| sum_beta
                    C(m+r-1, m-|beta|) prod_i (beta_i - 1)! S(alpha_i, beta_i)
                    prod_i ch_{alpha_i}(E)

    where ||alpha|| is the product of the factorials of the part
    multiplicities and S is the Stirling number of the second kind.  The
    empty partition contributes the rank C(m+r-1, m).
    """
    if r < 1:
        raise ValueError("rank must be a positive integer")
    if m < 0:
        raise ValueError("m must be non-negative")
    n = m + r - 1
    den, skeleton = _sym_power_skeleton(D)
    terms = {(0,) * D: binomial(n, m) * den}
    for exps, scale, weights in skeleton:
        coeff = sum(binomial(n, m - size) * w for size, w in weights)
        if coeff:
            terms[exps] = coeff * scale
    return _reduced(ch_ring(D), den, terms)


@lru_cache(maxsize=None)
def _sym_power_skeleton(D: int) -> tuple[int, tuple]:
    """The part of ``sym_power_ch``'s double sum that depends on D alone.

    (L, entries): L is the lcm of the ||alpha||, and there is one entry
    (exponent vector, L / ||alpha||, ((|beta|, weight), ...)) per partition
    alpha with 1 <= |alpha| <= D, where weight sums
    prod_i (beta_i - 1)! S(alpha_i, beta_i) over the beta of that size.
    """
    skeleton = []
    for size in range(1, D + 1):
        for alpha in enumerate_partitions(size, size):
            norm = 1
            for _, group in itertools.groupby(alpha):
                norm *= factorial(sum(1 for _ in group))
            weights = {}
            for beta in itertools.product(*(range(1, p + 1) for p in alpha)):
                term = 1
                for ai, bi in zip(alpha, beta):
                    term *= factorial(bi - 1) * stirling2(ai, bi)
                s = sum(beta)
                weights[s] = weights.get(s, 0) + term
            exps = [0] * D
            for part in alpha:
                exps[part - 1] += 1
            skeleton.append((tuple(exps), norm, tuple(weights.items())))
    den = lcm(*(norm for _, norm, _ in skeleton))
    return den, tuple((exps, den // norm, weights) for exps, norm, weights in skeleton)


# -- degree <= 3 character tables ---------------------------------------------


# The table monomials of degrees 0..3 as exponent vectors over e1, e2, e3:
# ch0 = r, ch1 = A e1, ch2 = B e1^2 + C e2, ch3 = D e1^3 + E e1 e2 + F e3.
_TABLE_MONOMIALS = (
    ((0, 0, 0),),
    ((1, 0, 0),),
    ((2, 0, 0), (0, 1, 0)),
    ((3, 0, 0), (1, 1, 0), (0, 0, 1)),
)


def _table_character(rank: int, r: int, den: int, rows) -> GradedPoly:
    """The table shape through degree len(rows), all times rank/r.

    rows[k-1] holds the printed coefficients of the degree-k monomials as
    integer numerators over den; the degree-0 coefficient is r.
    """
    up_to = len(rows)
    terms = {
        exps[:up_to]: n * rank
        for monos, nums in zip(_TABLE_MONOMIALS, ((r * den,), *rows))
        for exps, n in zip(monos, nums)
        if n
    }
    return _reduced(ch_ring(up_to), den * r, terms)


def _resolve_up_to(up_to: int | None, r: int, what: str) -> int:
    if r < 1:
        raise ValueError("rank must be positive")
    if up_to is None:
        up_to = min(r, 3)
    if not 1 <= up_to <= 3:
        raise ValueError(
            f"{what} covers degree <= 3 only, not degree {up_to}; the oracle covers every degree"
        )
    if up_to == 3 and r < 3:
        raise ValueError(
            f"the ch3 line of {what} degenerates for rank <= 2 (factor r-2); the oracle covers it"
        )
    return up_to


def ext_power_ch3(n: int, r: int, up_to: int | None = None) -> GradedPoly:
    """ch(wedge^n E) through degree <= 3 from the closed table."""
    if not 0 <= n <= r:
        raise ValueError("need 0 <= n <= r")
    up_to = _resolve_up_to(up_to, r, "the exterior table")
    if up_to >= 2 and r < 2:
        raise ValueError("the ch2 line of the exterior table degenerates for r = 1 (factor r-1)")
    # ch2: (n-1)n/(2(r-1)), n(r-n)/(r-1);  ch3: (n-2)(n-1)n/(6(r-2)(r-1)),
    # (n-1)n(r-n)/((r-2)(r-1)), n(2n^2 - 3rn + r^2)/((r-2)(r-1));  all over
    # den = 2(r-1)g with g = 3(r-2) when ch3 is built, else 1
    den = 1
    rows = [(n,)]
    if up_to >= 2:
        g = 3 * (r - 2) if up_to >= 3 else 1
        den = 2 * (r - 1) * g
        rows = [(n * den,), ((n - 1) * n * g, 2 * n * (r - n) * g)]
    if up_to >= 3:
        rows.append((
            (n - 2) * (n - 1) * n,
            6 * (n - 1) * n * (r - n),
            6 * n * (2 * n * n - 3 * r * n + r * r),
        ))
    return _table_character(binomial(r, n), r, den, rows)


def schur_ch3(alpha, r: int, up_to: int | None = None) -> GradedPoly:
    """ch(S^alpha E) through degree up_to (1..min(r, 3)) from the Schur table.

    The printed rows, all times r_a/r, are

        ch1: |a|,  ch2: (|a|^2 - dt2)/(2r), dt2,
        ch3: (|a|^3 - 3|a| dt2 + 2 dt3)/(6r^2), (|a| dt2 - dt3)/r, dt3,

    with dt2 = 0 at r = 1.  Built on ints: with dt2 = a2/L and dt3 = a3/L over
    one common denominator L, every coefficient is an integer over 6 r^2 L.
    """
    alpha = Partition(alpha)
    up_to = _resolve_up_to(up_to, r, "the Schur table")
    ra, size = weyl_dim(alpha, r), alpha.size
    dt2 = delta_tilde2(alpha, r) if r >= 2 else Fraction(0)
    L = dt2.denominator
    if up_to >= 3:
        dt3 = delta_tilde3(alpha, r)
        L = lcm(L, dt3.denominator)
        a3 = dt3.numerator * (L // dt3.denominator)
    a2 = dt2.numerator * (L // dt2.denominator)
    den = 6 * r * r * L
    rows = [(size * den,)]
    if up_to >= 2:
        rows.append((3 * r * (size * size * L - a2), 6 * r * r * a2))
    if up_to >= 3:
        rows.append((
            size**3 * L - 3 * size * a2 + 2 * a3,
            6 * r * (size * a2 - a3),
            6 * r * r * a3,
        ))
    return _table_character(ra, r, den, rows)


def closed_ch(alpha, r: int, D: int) -> GradedPoly:
    """ch(S^alpha E) over e1..eD from a closed formula, in normal form.

    A single row (or the empty partition) goes through the symmetric-power
    double sum in every degree, any other partition through the Schur table,
    which covers D <= min(r, 3) and raises ValueError beyond it.
    """
    alpha = Partition(alpha)
    if len(alpha) <= 1:
        return normal_form(sym_power_ch(alpha.size, r, D), r)
    return schur_ch3(alpha, r, D)


def f4_sym(m: int, r: int) -> Fraction:
    """The degree-4 symmetric-power coefficient, exactly as printed.

    f4 = m(m+r)(m^2 + rm + r(r+1)) / ((r+1)(r+2)(r+3)).  Note that at m = 1
    this evaluates to (r+1)^2/((r+2)(r+3)) although S^1 V = V forces the
    measured ratio to be 1; the discrepancy report records both values.
    """
    if m < 0 or r < 1:
        raise ValueError("need m >= 0 and r >= 1")
    return Fraction(
        m * (m + r) * (m * m + r * m + r * (r + 1)),
        (r + 1) * (r + 2) * (r + 3),
    )


# -- shifted-variable identities ----------------------------------------------


def _delta_x_part(k: int, xs, r: int):
    """The degree-k part of delta_x at xs, from the power sums p_1, p_2, p_3.

    A symmetric polynomial of degree <= 3 is a polynomial in p_1, p_2, p_3, so
    this is O(r) work; integer coordinates give an integer.
    """
    if len(xs) != r:
        raise ValueError("need exactly r coordinates")
    p1 = sum(xs)
    p2 = sum(x * x for x in xs)
    if k == 2:
        return r * p2 - p1 * p1
    p3 = sum(x * x * x for x in xs)
    return (
        2 * (r - 2) * (r - 1) * p3
        - 6 * (r - 2) * (p1 * p2 - p3)
        + 4 * (p1**3 - 3 * p1 * p2 + 2 * p3)
    )


def _delta2_constant(r: int) -> int:
    """r^2(r^2-1)/12, an integer for every r."""
    return r * r * (r * r - 1) // 12


_DELTA_DOT = {2: delta2_dot, 3: delta3_dot}


def hc_shift_check(k: int, r: int) -> tuple[str, ...]:
    """Prove the change of variables x_i = a_i - i + 1 and translation invariance:

      (a) delta_x(x) == delta_dot(a) for a_i = x_i + i - 1;
      (b) delta_x(x - a*1) == delta_x(x) for every shift a.

    Both sides of each are expanded over free generators x1..xr and a by the
    code that evaluates them on numbers, so an identity holds exactly when its
    residual, lhs - rhs, is zero.  Returns at most six strings, each naming
    its identity and one residual term in canonical order; () proves both.

    Each side is a sum of products of at most k coordinates, so no term
    reaches the truncation, which drops only degrees above k + 1.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    if r < 2:
        raise ValueError("need r >= 2")
    ring = PolyRing([*((f"x{i}", 1) for i in range(1, r + 1)), ("a", 1)], k + 1)
    *xs, a = map(ring.gen, ring.names)
    part = _delta_x_part(k, xs, r)
    const = _delta2_constant(r) if k == 2 else 0
    residuals = (
        ("shift", part - const - _DELTA_DOT[k]([x + i for i, x in enumerate(xs)], r)),
        ("translation", _delta_x_part(k, [x - a for x in xs], r) - part),
    )
    lines = [
        f"{name} residual term: {ring.monomial(exps, c).text()}"
        for name, residual in residuals
        for exps, c in residual._ordered_items()
    ]
    return tuple(lines[:6])
