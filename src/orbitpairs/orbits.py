"""Core counting engine.

Every automorphism orbit of elements of the module with shape lambda is
labelled by an order ideal I.  Fixing the canonical representative of that
orbit splits the module into a distinguished part (one cyclic summand per
maximal point of I) and the rest; stabilizer orbits of a second element are
then classified by a pair of ideals (J, K) over the derived contexts.  The
census groups the cell sizes by the common orbit cardinality and divides
exactly, giving the number of orbits per cardinality as a polynomial in q.

Each cardinality alpha is one product: q**[J union K] times (1 - q**-m''_k)
over the maximal points (v, k) of K outside J, which stay maximal in J union K
and are reached iff a row-k coordinate of lambda'' has valuation exactly v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, MutableMapping, Optional

from .errors import DegreeMismatch
from .posets import OrderIdeal, Partition, Point, lattice, require_context
from .qpoly import ONE, QPolynomial, laurent_product, monomial


@dataclass(frozen=True)
class CanonicalSplit:
    """Decomposition data attached to a partition and an ideal.

    prime_parts are the maximal points (v_j, k_j) sorted by descending k;
    lambda_dprime is the source shape with one copy of each k_j removed, and
    quotient is the shape of the distinguished part modulo the canonical
    representative.
    """

    prime_parts: tuple[Point, ...]
    lambda_dprime: Partition
    quotient: Partition


@lru_cache(maxsize=None)
def orbit_size(lam: Partition, I: OrderIdeal) -> QPolynomial:
    """Cardinality of the orbit labelled by I, as a polynomial in q:
    q**[I] times (1 - q**-m_i) over the maximal rows.  Monic of degree [I]."""
    require_context(lam, I)
    return laurent_product(I.weighted_size(lam),
                           [lam.mult(p.k) for p in I.max_points])


@lru_cache(maxsize=None)
def canonical_split(lam: Partition, I: OrderIdeal) -> CanonicalSplit:
    require_context(lam, I)
    pts = I.max_points
    lam_dprime = lam.remove_one_of_each(p.k for p in pts)
    qparts = [pts[j].v + pts[j + 1].k - pts[j + 1].v for j in range(len(pts) - 1)]
    if pts:
        qparts.append(pts[-1].v)
    quotient = Partition.from_parts(p for p in qparts if p > 0)
    return CanonicalSplit(pts, lam_dprime, quotient)


def max_minus(K: OrderIdeal, J: OrderIdeal) -> tuple[Point, ...]:
    """Maximal points of K that are not absorbed anywhere inside J."""
    return tuple(p for p in K.max_points if not J.contains(p))


def sum_orbit_orbit(lam: Partition, I: OrderIdeal, J: OrderIdeal) -> list[OrderIdeal]:
    """Ideals K whose orbits make up orbit(I) + orbit(J).  Valid for residue
    fields with at least three elements (q >= 3)."""
    require_context(lam, I)
    require_context(lam, J)
    IJ = I.union(J)
    req = set(max_minus(I, J)) | set(max_minus(J, I))
    return [K for K in lattice(lam).ideals
            if K.is_subset_of(IJ) and req <= set(K.max_points)]


@lru_cache(maxsize=None)
def _alpha_core(exponent: int, factors: tuple[int, ...]) -> QPolynomial:
    """alpha's closed form, shared by all cells of equal cardinality."""
    return laurent_product(exponent, factors)


def alpha(lam: Partition, I: OrderIdeal, J: OrderIdeal, K: OrderIdeal) -> QPolynomial:
    """Cardinality of the stabilizer orbit of any second element with
    invariants (J, K): q**[J union K] over lambda's rows times (1 - q**-m''_k)
    for each maximal point (v, k) of K outside J, as such a point stays
    maximal in J union K and is reached iff a row-k coordinate of lambda''
    has valuation exactly v."""
    sp = canonical_split(lam, I)
    require_context(sp.quotient, J)
    require_context(sp.lambda_dprime, K)
    return _alpha_core(J.union(K).weighted_size(lam),
                       tuple(sp.lambda_dprime.mult(p.k) for p in max_minus(K, J)))


def x_count(lam: Partition, I: OrderIdeal, J: OrderIdeal, K: OrderIdeal) -> QPolynomial:
    """Number of second elements with invariants exactly (J, K)."""
    sp = canonical_split(lam, I)
    if sp.prime_parts:
        fiber = monomial(sp.prime_parts[0].k - sp.prime_parts[0].v)
    else:
        fiber = ONE
    return fiber * orbit_size(sp.quotient, J) * orbit_size(sp.lambda_dprime, K)


def orbit_census(lam: Partition, I: OrderIdeal) -> Dict[QPolynomial, QPolynomial]:
    """Map from orbit cardinality to number of stabilizer orbits of that
    cardinality.  The total mass sum(alpha * N_alpha) is asserted to be
    q**|lambda| exactly."""
    sp = canonical_split(lam, I)
    groups: Dict[QPolynomial, QPolynomial] = {}
    for J in lattice(sp.quotient).ideals:
        for K in lattice(sp.lambda_dprime).ideals:
            a = alpha(lam, I, J, K)
            groups[a] = groups.get(a, QPolynomial()) + x_count(lam, I, J, K)
    census = {a: total.exact_div(a) for a, total in groups.items()}
    mass = QPolynomial()
    for a, n in census.items():
        mass = mass + a * n
    if mass != monomial(lam.weight):
        raise DegreeMismatch(f"census mass for ({lam}; {I}) is {mass}")
    return census


def per_ideal_total(lam: Partition, I: OrderIdeal) -> QPolynomial:
    """Number of orbits of pairs whose first member has invariant I."""
    return sum(orbit_census(lam, I).values(), QPolynomial())


_N_LAMBDA: Dict[Partition, QPolynomial] = {}


def n_lambda(lam: Partition,
             store: Optional[MutableMapping[Partition, QPolynomial]] = None,
             cap: bool = True) -> QPolynomial:
    """Number of automorphism orbits of pairs in the module of shape lambda,
    monic of degree lambda_1 with integer coefficients.

    Multiplicities are capped at 2 first (the count is invariant under the
    cap); pass cap=False to run the full computation, e.g. to check that
    invariance.  Results are memoized in `store` (module-level by default).
    """
    if store is None:
        store = _N_LAMBDA
    capped = lam.cap(2) if cap else lam
    if cap:
        cached = store.get(capped)
        if cached is not None:
            return cached
    total = QPolynomial()
    for I in lattice(capped).ideals:
        total = total + per_ideal_total(capped, I)
    if capped and (not total.is_monic() or total.degree != capped.largest
                   or not total.is_integer_coefficients()):
        raise DegreeMismatch(f"n_lambda({lam}) = {total} fails monic/degree check")
    if cap:
        store[capped] = total
    return total
