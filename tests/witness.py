"""Root-ring witness for the oracle: Schur characters from explicit Chern roots.

The library computes every Schur character over e1..eD through the Adams
operations and a normal form.  This module recomputes it the long way, in the
ring of r Chern roots: s_alpha(exp a_1, ..., exp a_r), rewritten in power
sums by linear algebra on monomial coefficients, then p_k -> k! e_k.  It shares
only Newton's identities and Giambelli's determinant with the library, and its
cost grows like C(r+D, D), so the tests use it at small r and D.

It also keeps the shifted-variable eigenvalue polynomials, delta2_dot and
delta3_dot as the literal sums over index pairs and triples; the library
evaluates them through power sums.  Over those sums it keeps the scaling
factors dt2 and dt3 as Fractions, which the Schur table reads as integers
over its own denominators.  It keeps the ring's former product and
sum too, Fraction loops with one multiply or add per term, as the references
for the integer arithmetic, and the former forms of the sweep's per-case
steps (the proportionality test, the determinant by cofactors of one matrix,
the restriction to e1..et, Delta_{4,t}, substitution and the Schur and
exterior tables), which made the products and Fractions the library now skips
or shares, the truncated log series and the log character, d_k and the
discriminants from it, which the library now reads off an integer
recurrence, the truncated exp series and the Chern classes from it, which
the library now runs through Newton's identities, the Mukai vector's closed
form in the quadratic eigenvalue, which the library now reads off the Schur
table, the Adams character summed from scaled generators, and the
symmetric-power double sum enumerated in full on every call, which the
library now builds from its terms and from a per-degree skeleton.
The rest are helpers only the tests use: the Newton family as a list, the
shifted-variable polynomials at rational points, Schur characters from the
tableau definition of s_alpha, which shares no Schur identity with the
oracle, the horizontal strips of Pieri's rule, the tableau count of the
Schur rank, and two verifications over the oracle.  The library's records
are namedtuples, so a test that needs a changed copy calls their
``_replace``.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

from logchern.characters import ch_ring
from logchern.formulas import (
    _TABLE_MONOMIALS,
    _as_vector,
    _delta2_constant,
    _delta_x_part,
    closed_ch,
)
from logchern.mukai import MukaiVector
from logchern.oracle import exp_roots, oracle_schur_ch, root_ring
from logchern.report import Claim, _equality_check, schur_factor
from logchern.ring import rat
from logchern.symfunc import (
    Partition,
    binomial,
    enumerate_partitions,
    power_sum_poly,
    schur_in_roots,
    stirling2,
    sym_to_power_sums,
    weyl_dim,
)


def reference_product(a, b):
    """a * b as a Fraction double loop over both operands' degree-sorted terms."""
    if a.ring != b.ring:
        raise ValueError("mixed generator sets or truncations")
    D = a.ring.truncation
    wdeg = a.ring.wdeg
    xs = sorted((wdeg(e), e, c) for e, c in a.items())
    ys = sorted((wdeg(e), e, c) for e, c in b.items())
    out = {}
    for dx, ex, cx in xs:
        for dy, ey, cy in ys:
            if dx + dy > D:
                break
            key = tuple(x + y for x, y in zip(ex, ey))
            s = out.get(key, Fraction(0)) + cx * cy
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return a.ring.from_terms(out)


def reference_sum(a, b, c=1):
    """a + c * b as a Fraction loop over b's terms, one add per term."""
    if a.ring != b.ring:
        raise ValueError("mixed generator sets or truncations")
    c = Fraction(c)
    out = dict(a.items())
    for exps, v in b.items():
        s = out.get(exps, Fraction(0)) + c * v
        if s:
            out[exps] = s
        else:
            out.pop(exps, None)
    return a.ring.from_terms(out)


def monomials_of_degree(ring, k):
    """The exponent vectors of weighted degree k in the ring's generators, in a fixed order."""
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


def newton_family(power_sums):
    """h_0..h_n from p_0..p_n by Newton's identities, k h_k = sum_i p_i h_(k-i).

    The e-family is this on ``omega(power_sums)``.  p_0 only fixes the ring.
    """
    ring = power_sums[0].ring
    fam = [ring.one()]
    for k in range(1, len(power_sums)):
        fam.append(sum((power_sums[i] * fam[k - i] for i in range(1, k + 1)), ring.zero()) / k)
    return fam


def omega(power_sums):
    """The involution omega on a list p_0, p_1, ...: p_i -> (-1)^(i-1) p_i."""
    return [p if i % 2 else -p for i, p in enumerate(power_sums)]


def conjugate(alpha):
    """The conjugate partition, as a tuple: its parts are alpha's column lengths."""
    first = alpha[0] if alpha else 0
    return tuple(sum(1 for p in alpha if p > j) for j in range(first))


def horizontal_strips(alpha, k):
    """Every partition nu with nu/alpha a horizontal k-strip, at most one box per column.

    Those are the nu of size |alpha| + k that interlace alpha:
    nu_1 >= alpha_1 >= nu_2 >= alpha_2 >= ... (Macdonald, ch. I, Sec. 1).
    The vertical strips are the conjugates of the horizontal strips on the
    conjugate of alpha.
    """
    rows = list(alpha) + [0]
    out = []

    def grow(i, left, parts):
        if i == len(rows):
            if not left:
                out.append(Partition(parts))
            return
        room = left if i == 0 else min(left, rows[i - 1] - rows[i])
        for add in range(room + 1):
            grow(i + 1, left - add, parts + [rows[i] + add])

    grow(0, k, [])
    return out


def witness_schur_total(alpha, r, D):
    """s_alpha(exp a_1, ..., exp a_r) in the root ring."""
    return schur_in_roots(alpha, r, exp_roots(root_ring(r, D)))


def roots_to_e_poly(p, r):
    """Express a symmetric root-ring polynomial over the free symbols e_k.

    Rewrites in power sums (symmetry is checked degree by degree) and then
    substitutes p_k -> k! e_k, since ch_k(E) = p_k(a)/k!.  Above degree r the
    power-sum rewriting is the deterministic section documented in symfunc.
    """
    in_powersums = sym_to_power_sums(p, r)
    target = ch_ring(p.ring.truncation)
    terms = {}
    for exps, c in in_powersums.items():
        scale = 1
        for j, e in enumerate(exps, start=1):
            if e:
                scale *= factorial(j) ** e
        terms[exps] = c * scale
    return target.from_terms(terms)


def roots_to_ch_basis(total, r):
    """Bundle character over e1..eD from a symmetric root-ring total."""
    return roots_to_e_poly(total, r)


def powersums_to_roots(q, r):
    """Substitute p_k -> p_k(a_1..a_r); inverse check for sym_to_power_sums."""
    ring = root_ring(r, q.ring.truncation)
    roots = [ring.gen(name) for name in ring.names]
    images = {f"p{k}": power_sum_poly(k, roots) for k in range(1, ring.truncation + 1)}
    return q.substitute(ring, images)


def delta2_x_sums(xs, r):
    """(r-1) sum x_i^2 - 2 sum_{i<j} x_i x_j - r^2(r^2-1)/12, term by term.

    Like the other literal sums here, it takes numbers or ring elements.
    """
    sq = sum(x * x for x in xs)
    cross = sum(xs[i] * xs[j] for i in range(r) for j in range(i + 1, r))
    return (r - 1) * sq - 2 * cross - Fraction(r * r * (r * r - 1), 12)


def delta3_x_sums(xs, r):
    """2(r-2)(r-1) sum x_i^3 - 6(r-2) sum_{i!=j} x_i^2 x_j + 24 sum_{i<j<k} x_i x_j x_k."""
    cubes = sum(x**3 for x in xs)
    sq_lin = sum(xs[i] ** 2 * xs[j] for i in range(r) for j in range(r) if i != j)
    triple = sum(
        xs[i] * xs[j] * xs[k]
        for i in range(r)
        for j in range(i + 1, r)
        for k in range(j + 1, r)
    )
    return 2 * (r - 2) * (r - 1) * cubes - 6 * (r - 2) * sq_lin + 24 * triple


def delta2_x(xs, r: int) -> Fraction:
    """(r-1) sum x_i^2 - 2 sum_{i<j} x_i x_j - r^2(r^2-1)/12."""
    return Fraction(_delta_x_part(2, [rat(x) for x in xs], r) - _delta2_constant(r))


def delta3_x(xs, r: int) -> Fraction:
    """2(r-2)(r-1) sum x_i^3 - 6(r-2) sum_{i!=j} x_i^2 x_j + 24 sum_{i<j<k} x_i x_j x_k."""
    return Fraction(_delta_x_part(3, [rat(x) for x in xs], r))


def delta2_dot_sums(alpha, r):
    """delta2_dot as the literal sum over index pairs, O(r^2)."""
    a = _as_vector(alpha, r)
    sq = sum(x * x for x in a)
    cross = sum(a[i] * a[j] for i in range(r) for j in range(i + 1, r))
    lin = sum((r + 1 - 2 * (i + 1)) * a[i] for i in range(r))
    return (r - 1) * sq - 2 * cross + r * lin


def delta3_dot_sums(alpha, r):
    """delta3_dot as the literal sums over index pairs and triples, O(r^3)."""
    a = _as_vector(alpha, r)
    cubes = sum(x**3 for x in a)
    sq_lin = sum(a[i] ** 2 * a[j] for i in range(r) for j in range(r) if i != j)
    triple = sum(
        a[i] * a[j] * a[k]
        for i in range(r)
        for j in range(i + 1, r)
        for k in range(j + 1, r)
    )
    weighted_sq = sum((r + 1 - 2 * (i + 1)) * a[i] ** 2 for i in range(r))
    weighted_cross = sum(
        (r + 1 - (i + 1) - (j + 1)) * a[i] * a[j]
        for i in range(r)
        for j in range(i + 1, r)
    )
    lin = sum(
        (6 * (i + 1) ** 2 - 6 * (i + 1) * (r + 1) + r * r + 3 * r + 2) * a[i]
        for i in range(r)
    )
    return (
        2 * (r - 2) * (r - 1) * cubes
        - 6 * (r - 2) * sq_lin
        + 24 * triple
        + 3 * r * (r - 2) * weighted_sq
        - 12 * r * weighted_cross
        + r * r * lin
    )


def delta_tilde2(alpha, r):
    """dt2 = d2dot/((r-1)(r+1)) from the literal sums, and 0 at r = 1."""
    return Fraction(delta2_dot_sums(alpha, r), (r - 1) * (r + 1)) if r >= 2 else Fraction(0)


def delta_tilde3(alpha, r):
    """dt3 = d3dot/((r-2)(r-1)(r+1)(r+2)) from the literal sums, for r >= 3."""
    return Fraction(delta3_dot_sums(alpha, r), (r - 2) * (r - 1) * (r + 1) * (r + 2))


def proportion_by_scaling(x, y):
    """proportion's former decision: pivot on y's first term, then x == y.scale(lam)."""
    if x.ring != y.ring:
        raise ValueError("mixed generator sets or truncations")
    if y.is_zero():
        return (x.is_zero(), None)
    exps, n = next(iter(y.terms.items()))
    lam = Fraction(x.terms.get(exps, 0) * y.den, x.den * n)
    if x == y.scale(lam):
        return (True, lam)
    return (False, None)


def det_by_permutations(matrix, ring):
    """sum over permutations s of sign(s) * prod_i matrix[i][s(i)]."""
    total = ring.zero()
    for perm in itertools.permutations(range(len(matrix))):
        term = ring.one()
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        total = total - term if inversions % 2 else total + term
    return total


def det_by_cofactors(matrix, ring):
    """Determinant of one matrix by column-subset expansion along the first row.

    The cofactors are memoized for this matrix only.  A zero entry
    contributes no term, and the 1x1 minors are the last row's entries
    themselves.
    """
    n = len(matrix)
    if not n:
        return ring.one()
    last = matrix[-1]
    cache = {}

    def minor(cols):
        if len(cols) == 1:
            return last[cols[0]]
        got = cache.get(cols)
        if got is not None:
            return got
        row = matrix[n - len(cols)]
        acc = ring.zero()
        for pos, c in enumerate(cols):
            entry = row[c]
            if not entry.terms:
                continue
            term = entry * minor(cols[:pos] + cols[pos + 1 :])
            acc = acc - term if pos % 2 else acc + term
        cache[cols] = acc
        return acc

    return minor(tuple(range(n)))


def substitute_by_products(p, target, images):
    """p.substitute(target, images) as a product per factor, starting from the coefficient."""
    powers = {}
    names = p.ring.names
    result = target.zero()
    for exps, c in p.items():
        term = target.scalar(c)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            cache = powers.setdefault(i, [target.one()])
            while len(cache) <= e:
                cache.append(cache[-1] * images[names[i]])
            term = term * cache[e]
        result = result + term
    return result


def power_sum_character_by_generators(d, rank, D):
    """psi^d E as rank + sum_k d^k e_k, summed from scaled generators."""
    ring = ch_ring(D)
    gens = (ring.gen(f"e{k}").scale(d**k) for k in range(1, D + 1))
    return sum(gens, ring.scalar(rank))


def sym_power_by_double_sum(m, r, D):
    """ch(S^m E) from the double sum of ``sym_power_ch``, every partition, beta,
    factorial and Stirling number enumerated afresh."""
    terms = {(0,) * D: binomial(m + r - 1, m)}
    for size in range(1, D + 1):
        for alpha in enumerate_partitions(size, size):
            norm = prod(factorial(len(list(group))) for _, group in itertools.groupby(alpha))
            coeff = 0
            for beta in itertools.product(*(range(1, p + 1) for p in alpha)):
                coeff += binomial(m + r - 1, m - sum(beta)) * prod(
                    factorial(bi - 1) * stirling2(ai, bi) for ai, bi in zip(alpha, beta)
                )
            exps = [0] * D
            for part in alpha:
                exps[part - 1] += 1
            terms[tuple(exps)] = Fraction(coeff, norm)
    return ch_ring(D).from_terms(terms)


def _fraction_table(rank, r, rows):
    """The degree <= len(rows) table shape from Fraction rows, all times rank/r."""
    up_to = len(rows)
    return ch_ring(up_to).from_terms({
        exps[:up_to]: c
        for monos, coeffs in zip(_TABLE_MONOMIALS, ((r,), *rows))
        for exps, c in zip(monos, coeffs)
    })._times(rank, r)


def table_by_fractions(alpha, r, up_to):
    """schur_ch3(alpha, r, up_to) with one Fraction per printed coefficient."""
    alpha = Partition(alpha)
    size = alpha.size
    dt2 = delta_tilde2(alpha, r)
    dt3 = delta_tilde3(alpha, r) if up_to >= 3 else None
    rows = [(size,)]
    if up_to >= 2:
        rows.append((Fraction(size * size - dt2, 2 * r), dt2))
    if up_to >= 3:
        rows.append((
            (size**3 - 3 * size * dt2 + 2 * dt3) / (6 * r * r),
            (size * dt2 - dt3) / r,
            dt3,
        ))
    return _fraction_table(weyl_dim(alpha, r), r, rows)


def exterior_table_by_fractions(n, r, up_to):
    """ext_power_ch3(n, r, up_to) with one Fraction per printed coefficient."""
    rows = [(n,)]
    if up_to >= 2:
        rows.append((Fraction((n - 1) * n, 2 * (r - 1)), Fraction(n * (r - n), r - 1)))
    if up_to >= 3:
        den = (r - 2) * (r - 1)
        rows.append((
            Fraction((n - 2) * (n - 1) * n, 6 * den),
            Fraction((n - 1) * n * (r - n), den),
            Fraction(n * (2 * n * n - 3 * r * n + r * r), den),
        ))
    return _fraction_table(comb(r, n), r, rows)


def over_e_from_terms(a, t):
    """ch_0..ch_t of a character over e1..eD, rebuilt over e1..et from its Fractions."""
    wdeg = a.ring.wdeg
    return ch_ring(t).from_terms({e[:t]: c for e, c in a.items() if wdeg(e) <= t})


def series_log(p):
    """The truncated logarithm q - q^2/2 + q^3/3 - ... of p = 1 + q; p's
    constant term must be 1."""
    if p.constant() != 1:
        raise ValueError("log needs constant term 1")
    q = p - p.ring.one()
    result = power = q
    for j in range(2, p.ring.truncation + 1):
        power = power * q
        if power.is_zero():
            break
        result = result + power.scale(Fraction((-1) ** (j + 1), j))
    return result


def series_exp(p):
    """The truncated exponential 1 + p + p^2/2! + ...; p's constant term must be 0."""
    if p.constant():
        raise ValueError("exp needs a zero constant term")
    result = power = p.ring.one()
    fact = 1
    for j in range(1, p.ring.truncation + 1):
        power = power * p
        if power.is_zero():
            break
        fact *= j
        result = result + power / fact
    return result


def chern_classes_by_series(a):
    """c_1..c_D as the graded pieces of exp(sum_k (-1)^(k-1) (k-1)! ch_k)."""
    D = a.ring.truncation
    exponent = sum(
        (a.component(k).scale((-1) ** (k - 1) * factorial(k - 1)) for k in range(1, D + 1)),
        a.ring.zero(),
    )
    total = series_exp(exponent)
    return tuple(total.component(k) for k in range(1, D + 1))


def log_by_series(a):
    """log(ch/ch_0) as the series log in q = ch/ch_0 - 1."""
    return series_log(a / a.constant())


def d_k_by_series(a, k):
    """d_k as ch_0 times the degree-k part of the series log."""
    return log_by_series(a).component(k).scale(a.constant())


def discriminants_by_fractions(a, up_to):
    """Delta_1..Delta_up_to, each component of the series log scaled by the
    Fraction (-1)^(k+1) k rank^k."""
    rank = a.constant()
    log = log_by_series(a)
    return tuple(
        log.component(k).scale(Fraction((-1) ** (k + 1)) * k * rank**k)
        for k in range(1, up_to + 1)
    )


def delta4t_by_products(a, t):
    """Delta_{4,t} as printed, with the rank as a constant polynomial in every product."""
    t = rat(t)
    r = a.ring.scalar(a.constant())
    c = a.component
    return (
        c(1) ** 4 * t
        - 4 * t * r * c(1) ** 2 * c(2)
        + 2 * r**2 * (c(2) ** 2 * (t + 1) + 2 * (t - 1) * c(1) * c(3))
        - 4 * (t - 1) * r**3 * c(4)
    )


def mukai_schur_by_eigenvalue(v, alpha):
    """mukai_schur's former closed form, from dt2 and the Schur rank r_a:

        v(S^alpha E) = ( r_a,
                         |alpha| (r_a/r) c,
                         ((|alpha|^2 - dt2)/r) (r_a/r) c^2 d
                           + dt2 (s - r) (r_a/r) + r_a )
    """
    alpha = Partition(alpha)
    r, size = v.r, alpha.size
    ra = weyl_dim(alpha, r)
    dt2 = delta_tilde2(alpha, r)
    weight = Fraction(ra, r)
    s_new = (
        Fraction(size * size - dt2, r) * weight * v.c**2 * v.d
        + dt2 * (v.s - r) * weight
        + ra
    )
    return MukaiVector(ra, int(size * weight) * v.c, s_new, v.d)


def ssyt_contents(alpha, r: int) -> Counter:
    """The Kostka numbers K_{alpha,w}: the semistandard tableaux of shape alpha
    with entries in 1..r, counted by their content w (w_i entries equal to i).

    Direct backtracking enumeration; intentionally independent of weyl_dim
    and of every symmetric-function identity.
    """
    rows = [p for p in Partition(alpha).padded(r) if p]
    cells = [(i, j) for i, row in enumerate(rows) for j in range(row)]
    grid = [[0] * row for row in rows]
    content = [0] * r
    kostka = Counter()

    def fill(pos):
        if pos == len(cells):
            kostka[tuple(content)] += 1
            return
        i, j = cells[pos]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, r + 1):
            grid[i][j] = v
            content[v - 1] += 1
            fill(pos + 1)
            content[v - 1] -= 1
        grid[i][j] = 0

    fill(0)
    return kostka


def ssyt_count(alpha, r: int) -> int:
    """Number of semistandard tableaux of shape alpha, entries in 1..r."""
    return sum(ssyt_contents(alpha, r).values())


def tableau_schur_total(alpha, r, D):
    """s_alpha(exp a_1, ..., exp a_r) in the root ring from the definition of s_alpha:
    the sum of x^T over the tableaux T, sum_w K_{alpha,w} prod_i exp(a_i)^{w_i}.
    It uses neither Newton's identities nor Giambelli's determinant."""
    ring = root_ring(r, D)
    xs = exp_roots(ring)
    total = ring.zero()
    for w, kostka in ssyt_contents(alpha, r).items():
        total = total + kostka * prod((x**wi for x, wi in zip(xs, w)), start=ring.one())
    return total


def verify_sym_power_full(m: int, r: int, D: int) -> Claim:
    """Full-degree check of the symmetric-power double sum against the oracle."""
    total = oracle_schur_ch((m,), r, D)
    return _equality_check(f"S^{m}, r={r}, D={D}", total, closed_ch((m,), r, D))


def plain_delta4_witnesses() -> list[tuple[int, int]]:
    """(m, r) pairs with 2 <= m, r <= 4 where the unmodified Delta_4(S^m V)
    is NOT a multiple of Delta_4(V)."""
    return [
        (m, r)
        for r in range(2, 5)
        for m in range(2, 5)
        if not schur_factor((m,), r, 4)[0]
    ]
