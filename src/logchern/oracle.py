"""Splitting-principle oracle: the single source of truth.

A Schur functor of the generic rank-r bundle has total character
s_alpha(exp a_1, ..., exp a_r) -- no formula involved beyond the definition.
Its power sums are the Adams operations, p_j(exp a) = ch(psi^j E) =
r + sum_k j^k ch_k(E), so Newton's identities and Giambelli's determinant
give s_alpha directly over e1..eD, in a ring whose size depends on D only.
Each p_j is ``characters.power_sum_character(j, r, D)``, the character of
psi^j E, in normal form, so s_alpha is in normal form too (``normal_form``
is a ring map fixing e1..er) and equality above the rank is plain ``==``.
Like every character in the package, the result is one ``GradedPoly``, the
total ch_0 + ... + ch_D; ``oracle_schur_ch`` is ``oracle_schur_total`` with
its rank checked against the Weyl dimension.  ``report`` verifies the closed
formulas against these values, and nothing is compared with a tolerance.
This module imports no closed formula: from the package it reads only
``characters``, ``ring`` and ``symfunc``, so nothing it computes can agree
with a formula by calling it.

The Adams power sums and their Newton families depend only on (r, D), so
they are computed once per process and shared by every partition:
``_adams_power_sum`` per (r, D, j) and ``_adams_family`` per (r, D, h or e
family, top index), each family extending the next shorter one by one entry.
Sharing them cannot change an answer: each table is an lru_cache of
a pure function keyed on all of its inputs, and its values are
``GradedPoly``s (or tuples of them), which nothing mutates.  Only
Giambelli's determinant runs per partition, and it too shares its work:
``_adams_minors``, an lru_cache like the others, holds one dict per (r, D)
in which ``symfunc.giambelli`` keeps every hook and minor it expands, keyed
by the arms and legs the minor reads, so partitions with the same leading
arms expand those minors once.  The dict only gains entries, each the one
value any evaluation on those families computes.

``root_ring``, ``exp_roots``, ``base_in_roots`` and ``char_to_roots`` build
the same objects in the ring of r Chern roots.  They are the independent
witness the tests compare the oracle against; no production path calls them.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from logchern.characters import ch_ring, normal_form, power_sum_character
from logchern.ring import GradedPoly, PolyRing, root_generators
from logchern.symfunc import (
    Partition,
    giambelli,
    newton_next,
    power_sum_poly,
    weyl_dim,
)


@lru_cache(maxsize=None)
def _adams_power_sum(r: int, D: int, j: int) -> GradedPoly:
    """p_j = ch(psi^j E) = r + sum_k j^k e_k, in normal form on the generic rank-r bundle."""
    return normal_form(power_sum_character(j, r, D), r)


@lru_cache(maxsize=None)
def _adams_family(r: int, D: int, dual: bool, n: int) -> tuple[GradedPoly, ...]:
    """h_0..h_n (e_0..e_n when ``dual``) of the Adams power sums of ``_adams_power_sum``.

    Entry k reads p_0..p_k only, so each family is the one a step shorter
    plus one entry.
    """
    if n == 0:
        return (ch_ring(D).one(),)
    head = _adams_family(r, D, dual, n - 1)
    power_sums = [_adams_power_sum(r, D, j) for j in range(n + 1)]
    return head + (newton_next(power_sums, head, dual),)


@lru_cache(maxsize=None)
def _adams_minors(r: int, D: int) -> dict:
    """The hooks and Giambelli minors on the (r, D) Adams families, filled by ``giambelli``."""
    return {}


def oracle_schur_total(alpha, r: int, D: int) -> GradedPoly:
    """Total character of S^alpha E over e1..eD, in normal form.

    s_alpha evaluated on the power sums p_j = ch(psi^j E) of the generic
    rank-r bundle: Giambelli's determinant on their shared Newton families,
    with the minors shared by every partition at (r, D).
    """
    alpha = Partition(alpha)
    if r < 1:
        raise ValueError("rank must be a positive integer")
    if len(alpha) > r:
        raise ValueError(f"partition {tuple(alpha)} has more than {r} parts")
    if not alpha:
        return ch_ring(D).one()
    h = _adams_family(r, D, False, alpha[0] + len(alpha) - 1)
    return giambelli(alpha, h, _adams_family(r, D, True, len(alpha) - 1), _adams_minors(r, D))


def oracle_schur_ch(alpha, r: int, D: int) -> GradedPoly:
    """ch(S^alpha E) over e1..eD, computed purely from the splitting principle."""
    alpha = Partition(alpha)
    out = oracle_schur_total(alpha, r, D)
    if out.constant() != weyl_dim(alpha, r):
        raise ArithmeticError("oracle rank disagrees with the Weyl dimension")
    return out


# -- the root-ring witness ----------------------------------------------------


def root_ring(r: int, D: int) -> PolyRing:
    return PolyRing(root_generators(r), D)


def exp_roots(ring: PolyRing) -> list[GradedPoly]:
    return [ring.gen(name).exp() for name in ring.names]


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
