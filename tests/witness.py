"""Root-ring witness for the oracle: Schur characters from explicit Chern roots.

The library computes every Schur character over e1..eD through the Adams
operations and a normal form.  This module recomputes it the long way, in the
ring of r Chern roots: s_alpha(exp a_1, ..., exp a_r), rewritten in power
sums by linear algebra on monomial coefficients, then p_k -> k! e_k.  It shares
only the Jacobi-Trudi determinant with the library, and its cost grows like
C(r+D, D), so the tests use it at small r and D.

It also keeps the shifted-variable eigenvalue polynomials as the literal sums
over index pairs and triples; the library evaluates them through power sums.
"""

from fractions import Fraction
from math import factorial

from logchern.characters import BundleCharacter, ch_ring
from logchern.oracle import exp_roots, root_ring
from logchern.symfunc import power_sum_poly, schur_in_roots, sym_to_power_sums


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
    for exps, c in in_powersums.terms.items():
        scale = 1
        for j, e in enumerate(exps, start=1):
            if e:
                scale *= factorial(j) ** e
        terms[exps] = c * scale
    return target.from_terms(terms)


def roots_to_ch_basis(total, r):
    """Bundle character over e1..eD from a symmetric root-ring total."""
    e_total = roots_to_e_poly(total, r)
    return BundleCharacter.from_total(e_total.ring, e_total)


def powersums_to_roots(q, r):
    """Substitute p_k -> p_k(a_1..a_r); inverse check for sym_to_power_sums."""
    ring = root_ring(r, q.ring.truncation)
    roots = [ring.gen(name) for name in ring.names]
    images = {f"p{k}": power_sum_poly(k, roots) for k in range(1, ring.truncation + 1)}
    return q.substitute(ring, images)


def delta2_x_sums(xs, r):
    """(r-1) sum x_i^2 - 2 sum_{i<j} x_i x_j - r^2(r^2-1)/12, term by term."""
    xs = [Fraction(x) for x in xs]
    sq = sum(x * x for x in xs)
    cross = sum(xs[i] * xs[j] for i in range(r) for j in range(i + 1, r))
    return (r - 1) * sq - 2 * cross - Fraction(r * r * (r * r - 1), 12)


def delta3_x_sums(xs, r):
    """2(r-2)(r-1) sum x_i^3 - 6(r-2) sum_{i!=j} x_i^2 x_j + 24 sum_{i<j<k} x_i x_j x_k."""
    xs = [Fraction(x) for x in xs]
    cubes = sum(x**3 for x in xs)
    sq_lin = sum(xs[i] ** 2 * xs[j] for i in range(r) for j in range(r) if i != j)
    triple = sum(
        xs[i] * xs[j] * xs[k]
        for i in range(r)
        for j in range(i + 1, r)
        for k in range(j + 1, r)
    )
    return 2 * (r - 2) * (r - 1) * cubes - 6 * (r - 2) * sq_lin + 24 * triple
