"""Partitions and the classical symmetric polynomial families.

This is the combinatorial substrate shared by the closed formulas and the
oracle: partition enumeration, Stirling numbers, the Weyl dimension product,
and ``PowerSumSchur``, the one Schur evaluator on a sequence of power sums:
Newton's identities (``newton_next``) feed Giambelli's determinant
(``giambelli``, over the Durfee square, with Pieri's rule for its hooks).

The evaluation at explicit roots (``schur_in_roots``) and the change of basis
from symmetric polynomials in degree-1 roots to power sums
(``sym_to_power_sums``) form the root-ring witness: the tests compare the
oracle against them, and no production path calls them.

It parses no text: the command line reads partitions in ``logchern.cli``.

The functions are pure and their memo tables (Stirling numbers, power-sum
expansion data) sit behind lru_cache, keyed on every input; a
``PowerSumSchur`` only grows its tables, so concurrent use is safe and
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from logchern.ring import GradedPoly, PolyRing, graded_generators, root_generators


class Partition(tuple):
    """Weakly decreasing tuple of positive int parts (trailing zeros normalized away).

    A tuple, so immutable by type and equal to (and hashed as) the plain tuple
    of its parts: ``Partition((2, 1, 0)) == (2, 1)``.
    """

    __slots__ = ()

    def __new__(cls, parts):
        if type(parts) is cls:
            return parts  # checked when it was built, and immutable since
        parts = tuple(parts)
        if not all(isinstance(p, int) and not isinstance(p, bool) for p in parts):
            raise ValueError(f"partition parts must be integers: {parts}")
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be non-negative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        return super().__new__(cls, (p for p in parts if p))

    def __repr__(self) -> str:
        return f"Partition({tuple(self)})"

    @property
    def size(self) -> int:
        return sum(self)

    def padded(self, r: int) -> tuple[int, ...]:
        if len(self) > r:
            raise ValueError(f"partition {tuple(self)} has more than {r} parts")
        return tuple(self) + (0,) * (r - len(self))

    def __str__(self) -> str:
        return ",".join(map(str, self)) if self else "0"


def enumerate_partitions(size: int, max_parts: int) -> list[Partition]:
    """All partitions of ``size`` into at most ``max_parts`` parts.

    Deterministic order: decreasing lexicographic, e.g. (3) before (2,1).
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if max_parts < 0:
        raise ValueError("max_parts must be non-negative")
    out: list[Partition] = []

    def rec(remaining, cap, nparts, prefix):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        if nparts == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            rec(remaining - first, first, nparts - 1, prefix + [first])

    rec(size, size if size else 1, max_parts, [])
    return out


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be non-negative")
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def weyl_dim(alpha, r: int) -> int:
    """Dimension of the Schur module: prod over i<j of (a_i-a_j+j-i)/(j-i)."""
    a = Partition(alpha).padded(r)
    num = den = 1
    for i in range(r):
        for j in range(i + 1, r):
            num *= a[i] - a[j] + j - i
            den *= j - i
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("Weyl product did not clear denominators")
    return q


# -- symmetric polynomial families evaluated at given ring elements ---------


def _check_values(values) -> PolyRing:
    if not values:
        raise ValueError("need at least one value")
    ring = values[0].ring
    for v in values:
        if v.ring != ring:
            raise ValueError("values live in different rings")
    return ring


def power_sum_poly(k: int, values) -> GradedPoly:
    """p_k = v_1^k + ... + v_r^k."""
    ring = _check_values(values)
    if k == 0:
        return ring.scalar(len(values))
    acc = ring.zero()
    for v in values:
        acc = acc + v**k
    return acc


def newton_next(power_sums, fam, dual: bool = False) -> GradedPoly:
    """The next Newton entry h_k, k = len(fam), from p_1..p_k and h_0 = 1, h_1..h_(k-1).

    k h_k = sum_i p_i h_(k-i).  With ``dual`` the power sums are read through
    omega, p_i -> (-1)^(i-1) p_i, which makes e_0, e_1, ... (Chern classes on k! ch_k).
    Entry k reads p_1..p_k only, so a family extends one entry at a time.
    The term i = k is p_k itself, as h_0 = 1, so entry k makes k - 1 products.
    """
    k = len(fam)
    acc = -power_sums[k] if dual and k % 2 == 0 else power_sums[k]
    for i in range(1, k):
        term = power_sums[i] * fam[k - i]
        acc = acc - term if dual and i % 2 == 0 else acc + term
    return acc / k


def giambelli(alpha, h, e, minors: dict) -> GradedPoly:
    """s_alpha = det( s_(a_i|b_j) ) over the d x d Durfee square: the determinant step.

    a_i = alpha_i - i and b_j = alpha'_j - j are alpha's Frobenius
    coordinates (Macdonald, ch. I, Sec. 3, Example 9).  Each hook comes from
    Pieri's rule, s_(a|b) = h_{a+1} e_b - s_(a+1|b-1) with s_(a|0) = h_{a+1},
    so h must reach alpha_1 + alpha'_1 - 1 and e must reach alpha'_1 - 1.
    Expanded along the last row.  The minor on the first k arms and a set of
    legs reads only those, so it is stored in ``minors`` under the key
    (arms[:k], legs), and a hook is its own 1x1 minor; one ``minors`` dict
    may serve every call on the same h and e, in any order.  A zero minor
    contributes no term.
    """
    alpha = Partition(alpha)
    d = sum(1 for i, p in enumerate(alpha) if p > i)
    arms = tuple(alpha[i] - i - 1 for i in range(d))
    legs = tuple(sum(1 for p in alpha if p > j) - j - 1 for j in range(d))

    def hook(a: int, b: int) -> GradedPoly:
        if b == 0:
            return h[a + 1]
        key = ((a,), (b,))
        got = minors.get(key)
        if got is None:
            got = minors[key] = h[a + 1] * e[b] - hook(a + 1, b - 1)
        return got

    def minor(k: int, cols: tuple[int, ...]) -> GradedPoly:
        if k == 1:
            return hook(arms[0], cols[0])
        key = (arms[:k], cols)
        got = minors.get(key)
        if got is not None:
            return got
        i = k - 1
        acc = h[0].ring.zero()
        for pos, b in enumerate(cols):
            sub = minor(i, cols[:pos] + cols[pos + 1 :])
            if not sub.terms:
                continue
            term = hook(arms[i], b) * sub
            # the cofactor sign of entry (i, pos) in a k x k minor
            acc = acc - term if (i + pos) % 2 else acc + term
        minors[key] = acc
        return acc

    return minor(d, legs) if d else h[0].ring.one()


class PowerSumSchur:
    """s_alpha, for any alpha, on one sequence of power sums p_j = ``power_sum(j)``.

    It runs ``giambelli`` on the Newton families h and e (``newton_next``),
    growing on demand three tables that every partition evaluated on the
    object shares: p, the families and Giambelli's minors.  p_0 fixes the
    ring.  A sequence is a tuple replaced whole when it grows, so threads
    sharing an object at most recompute an entry.
    """

    def __init__(self, power_sum):
        self._power_sum = power_sum
        self._p = (power_sum(0),)
        one = self._p[0].ring.one()
        self._families = {False: (one,), True: (one,)}
        self._minors = {}

    def _family(self, dual: bool, n: int) -> tuple[GradedPoly, ...]:
        """h_0, h_1, ... through at least h_n (the e's when ``dual``); p grows as they read it."""
        fam = self._families[dual]
        while len(fam) <= n:
            p = self._p
            while len(p) <= len(fam):
                p = self._p = p + (self._power_sum(len(p)),)
            fam = self._families[dual] = fam + (newton_next(p, fam, dual),)
        return fam

    def __call__(self, alpha) -> GradedPoly:
        alpha = Partition(alpha)
        ell = len(alpha)
        h = self._family(False, alpha[0] + ell - 1 if alpha else 0)
        return giambelli(alpha, h, self._family(True, ell - 1), self._minors)


def schur_in_roots(alpha, r: int, values) -> GradedPoly:
    """Schur polynomial s_alpha at the given r values.

    The root-ring witness: the oracle runs the same evaluator on the Adams
    power sums over e1..eD, and tests compare the two.
    """
    alpha = Partition(alpha)
    if len(values) != r:
        raise ValueError(f"expected {r} values, got {len(values)}")
    _check_values(values)
    if len(alpha) > r:
        raise ValueError(f"partition {tuple(alpha)} has more than {r} parts")
    return PowerSumSchur(lambda k: power_sum_poly(k, values))(alpha)


# -- power-sum basis conversion ---------------------------------------------


def powersum_ring(D: int) -> PolyRing:
    """Ring of power-sum generators p1..pD with deg p_k = k."""
    return PolyRing(graded_generators("p", D), D)


def is_symmetric(p: GradedPoly) -> bool:
    """Invariance under adjacent transpositions of the (degree-1) generators."""
    n = len(p.ring.names)
    for i in range(n - 1):
        swapped = {}
        for exps, c in p.terms.items():
            e = list(exps)
            e[i], e[i + 1] = e[i + 1], e[i]
            swapped[tuple(e)] = c
        if swapped != p.terms:
            return False
    return True


@lru_cache(maxsize=None)
def _powersum_matrix(r: int, k: int):
    """Expansion data of all products p_mu, |mu| = k, over r roots.

    Returns (row index: partitions of k with <= r parts, candidate mu list in
    ascending lex order, matrix columns keyed by mu as coefficient tuples).
    """
    ring = PolyRing(root_generators(r), k)
    roots = [ring.gen(name) for name in ring.names]
    rows = [lam.padded(r) for lam in enumerate_partitions(k, r)]
    candidates = sorted(enumerate_partitions(k, k))
    cols = []
    for mu in candidates:
        poly = ring.one()
        for part in mu:
            poly = poly * power_sum_poly(part, roots)
        cols.append(tuple(poly.coefficient(m) for m in rows))
    return rows, candidates, cols


def _solve_preferring(cols, rhs):
    """Solve sum_j g_j * cols[j] = rhs, pivoting on the earliest columns.

    Free coordinates are set to zero, so the solution is supported on the
    first linearly independent subset of columns.  Raises if inconsistent.
    """
    nrows = len(rhs)
    ncols = len(cols)
    m = [[cols[j][i] for j in range(ncols)] + [rhs[i]] for i in range(nrows)]
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for j in range(ncols):
        sel = next((i for i in range(rank, nrows) if m[i][j]), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        inv = Fraction(1) / m[rank][j]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][j]:
                f = m[i][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivot_of_col[j] = rank
        rank += 1
    for i in range(rank, nrows):
        if m[i][ncols]:
            raise ArithmeticError("inconsistent power-sum system")
    sol = [Fraction(0)] * ncols
    for j, i in pivot_of_col.items():
        sol[j] = m[i][ncols]
    return sol


def sym_to_power_sums(p: GradedPoly, r: int) -> GradedPoly:
    """Rewrite a symmetric polynomial in r Chern roots in power sums p1..pD.

    The input must be symmetric (checked).  In degrees <= r the power-sum
    monomials are a basis and the answer is unique; above that they are
    dependent and the result is the deterministic section supported on the
    lexicographically earliest independent products (small parts first).
    Substituting p_k -> p_k(a_1..a_r) always recovers the input exactly.
    With p_k -> k! e_k that section is ``characters.normal_form``, which the
    production code uses; this rewrite is kept as the tests' witness.
    """
    if len(p.ring.names) != r or set(p.ring.degrees) - {1}:
        raise ValueError("input must live in a ring of r degree-1 roots")
    if not is_symmetric(p):
        raise ValueError("input polynomial is not symmetric")
    D = p.ring.truncation
    target = powersum_ring(D)
    result = target.scalar(p.constant())
    for k in range(1, D + 1):
        comp = p.component(k)
        if comp.is_zero():
            continue
        rows, candidates, cols = _powersum_matrix(r, k)
        rhs = [comp.coefficient(m) for m in rows]
        sol = _solve_preferring(cols, rhs)
        for mu, g in zip(candidates, sol):
            if not g:
                continue
            exps = [0] * D
            for part in mu:
                exps[part - 1] += 1
            result = result + target.monomial(tuple(exps), g)
    return result


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the usual range."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)
