"""Splitting-principle oracle: the single source of truth.

A Schur functor of a bundle A with Chern roots a_i has total character
s_alpha(exp a_1, exp a_2, ...) -- no formula involved beyond the definition.
Its power sums are the Adams operations ch(psi^j A), the graded scaling
``characters.adams``, so ``schur_of`` evaluates s_alpha on them with
``symfunc.PowerSumSchur``, for any character.  ``oracle_schur_ch`` is the
one guarded entry: it refuses a bad rank or partition, runs ``schur_of`` on
the generic rank-r bundle and checks the result's rank against the Weyl
dimension.  The generic bundle is in normal form; ``normal_form`` is a
graded ring map fixing e1..er, so the result is in normal form too, and
equality above the rank is plain ``==``.  Like every character in the
package, the result is one ``GradedPoly``, the total ch_0 + ... + ch_D.
``report`` verifies the closed formulas against these values, and nothing
is compared with a tolerance.  Its sweep calls ``schur_of`` on the generic
bundle itself, without the rank guard: there a wrong oracle rank is a
failing check against the Schur table, recorded like any other.
This module imports no closed formula: from the package it reads only
``characters``, ``ring`` and ``symfunc``, so nothing it computes can agree
with a formula by calling it.

``schur_of`` keeps one ``PowerSumSchur`` per character, so every partition
evaluated on a character shares its Adams power sums, Newton families and
Giambelli minors.  Sharing cannot change an answer: each table only gains
entries, each the one value any evaluation computes.

``root_ring``, ``exp_roots``, ``base_in_roots`` and ``char_to_roots`` build
the same objects in the ring of r Chern roots.  They are the independent
witness the tests compare the oracle against; no production path calls them.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from logchern.characters import adams, generic_bundle
from logchern.ring import GradedPoly, PolyRing, root_generators
from logchern.symfunc import Partition, PowerSumSchur, power_sum_poly, weyl_dim


@lru_cache(maxsize=64)  # bounded: any character can be a key
def _schur_evaluator(a: GradedPoly) -> PowerSumSchur:
    """s_alpha on the Adams power sums psi^j a, for every alpha, sharing one set of tables."""
    return PowerSumSchur(lambda j: adams(a, j))


def schur_of(alpha, a: GradedPoly) -> GradedPoly:
    """ch(S^alpha A) for the character a of any bundle A: s_alpha on its Adams power sums.

    The result lives in a's ring.  When a is a bundle's character in normal
    form, it is 0 for a partition with more parts than the rank, as s_alpha
    of that many roots is.
    """
    return _schur_evaluator(a)(alpha)


def oracle_schur_ch(alpha, r: int, D: int) -> GradedPoly:
    """ch(S^alpha E) over e1..eD, computed purely from the splitting principle.

    ``schur_of`` on the generic rank-r bundle, its rank checked against the
    Weyl dimension.
    """
    alpha = Partition(alpha)
    if r < 1:
        raise ValueError("rank must be a positive integer")
    if len(alpha) > r:
        raise ValueError(f"partition {tuple(alpha)} has more than {r} parts")
    out = schur_of(alpha, generic_bundle(r, D))
    if out.constant() != weyl_dim(alpha, r):
        raise ArithmeticError("oracle rank disagrees with the Weyl dimension")
    return out


# -- the root-ring witness ----------------------------------------------------


def root_ring(r: int, D: int) -> PolyRing:
    return PolyRing(root_generators(r), D)


def exp_roots(ring: PolyRing) -> list[GradedPoly]:
    degrees = range(ring.truncation + 1)  # exp(a_i) = sum_j a_i^j / j!
    return [sum(ring.gen(n) ** j / factorial(j) for j in degrees) for n in ring.names]


def base_in_roots(r: int, D: int) -> GradedPoly:
    """The generic bundle in the root ring: ch(E) = sum_i exp(a_i)."""
    ring = root_ring(r, D)
    return sum(exp_roots(ring), ring.zero())


def char_to_roots(a: GradedPoly, r: int) -> GradedPoly:
    """Interpret an e-ring character on the generic rank-r bundle of roots.

    Substitutes e_k -> p_k(a)/k!; agrees with ``normal_form`` equality, which
    the production code uses instead.
    """
    D = a.ring.truncation
    ring = root_ring(r, D)
    roots = [ring.gen(name) for name in ring.names]
    images = {
        f"e{k}": power_sum_poly(k, roots) / factorial(k) for k in range(1, D + 1)
    }
    return a.substitute(ring, images)
