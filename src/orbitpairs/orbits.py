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
Each cell count x_count is the fiber q**(k_0 - v_0) times the orbit sizes of
J and K.  So both censuses, orbit_census and refined.refined_census, work on
integer keys (e, sorted m's) standing for q**e * prod(1 - q**-m), read from
the shared census_tables, and build one polynomial per distinct key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, MutableMapping, Optional

from .errors import DegreeMismatch
from .posets import OrderIdeal, Partition, Point, lattice, require_context
from .qpoly import QPolynomial, laurent_product, monomial


@dataclass(frozen=True)
class CanonicalSplit:
    """Decomposition data attached to a partition and an ideal.

    prime_parts are the maximal points (v_j, k_j) sorted by descending k;
    lambda_dprime is the source shape with one copy of each k_j removed,
    quotient is the shape of the distinguished part modulo the canonical
    representative, and fiber is k_0 - v_0 (0 for the empty ideal).
    """

    prime_parts: tuple[Point, ...]
    lambda_dprime: Partition
    quotient: Partition
    fiber: int


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
    return CanonicalSplit(pts, lam_dprime, quotient, pts[0].k - pts[0].v if pts else 0)


@lru_cache(maxsize=None)
def _alpha_core(exponent: int, factors: tuple[int, ...]) -> QPolynomial:
    """q**exponent * prod(1 - q**-m for m in factors): the expansion of each
    distinct integer key, alpha or cell count or orbit size, in both censuses."""
    return laurent_product(exponent, factors)


def x_count(lam: Partition, I: OrderIdeal, J: OrderIdeal, K: OrderIdeal) -> QPolynomial:
    """Number of second elements with invariants exactly (J, K)."""
    sp = canonical_split(lam, I)
    return monomial(sp.fiber) * orbit_size(sp.quotient, J) * orbit_size(sp.lambda_dprime, K)


def census_tables(lam: Partition, sp: CanonicalSplit) -> tuple[list, list]:
    """Per J of lattice(quotient) and per K of lattice(lambda''), in lattice
    order: its boundaries on lambda's rows scaled by lambda's multiplicities
    and its orbit-size key (weighted size, sorted factors); for K also its
    maximal points as sorted (m''_k, row index, m_k * v)."""
    dprime, mult = sp.lambda_dprime, dict(lam.pairs)
    row = {k: i for i, k in enumerate(lam.rows)}

    def keys(X, mu):
        return (tuple(m * X.boundary(k) for k, m in lam.pairs), X.weighted_size(mu),
                tuple(sorted(mu.mult(k) for _, k in X.max_points)))

    js = [keys(J, sp.quotient) for J in lattice(sp.quotient).ideals]
    ks = [keys(K, dprime) + (sorted((dprime.mult(k), row[k], mult[k] * v)
                                    for v, k in K.max_points),)
          for K in lattice(dprime).ideals]
    return js, ks


def alpha_keys(weight: int, bJ: tuple, ks: list) -> list:
    """Alpha key of each cell (J, K) in J's row: [J union K]_lambda is
    |lambda| - sum(map(min, bJ, bK)), and K's point (v, k) lies outside J
    iff bJ[row k] > m_k * v; the sorted points give sorted factors."""
    return [(weight - sum(map(min, bJ, bK)), tuple([m for m, i, v in pK if bJ[i] > v]))
            for bK, _, _, pK in ks]


def orbit_census(lam: Partition, I: OrderIdeal) -> Dict[QPolynomial, QPolynomial]:
    """Map from orbit cardinality to number of stabilizer orbits of that
    cardinality.  The total mass sum(alpha * N_alpha) is asserted to be
    q**|lambda| exactly.

    A cell (J, K) has its alpha key and the x_count key (k_0 - v_0 + [J] + [K],
    the orbit-size factors of J and K).  Grouping by alpha key is grouping by
    alpha, as q**(e - sum m) * prod(q**m - 1) factors uniquely into
    cyclotomics."""
    sp = canonical_split(lam, I)
    weight = lam.weight
    js, ks = census_tables(lam, sp)
    cells: Dict[tuple, int] = {}
    for bJ, wJ, fJ in js:
        for akey, (_, wK, fK, _) in zip(alpha_keys(weight, bJ, ks), ks):
            key = (akey, sp.fiber + wJ + wK, tuple(sorted(fJ + fK)))
            cells[key] = cells.get(key, 0) + 1
    groups: Dict[tuple, list] = {}
    for (akey, ex, fx), c in cells.items():
        acc = groups.setdefault(akey, [0] * (weight + 1))
        for i, coeff in enumerate(_alpha_core(ex, fx).coeffs):
            acc[i] += c * coeff
    census = {}
    for key, acc in groups.items():
        a = _alpha_core(*key)
        census[a] = QPolynomial(acc).exact_div(a)
    # The divisions are exact, so the mass sum(alpha * N_alpha) is the totals' sum.
    mass = QPolynomial(map(sum, zip(*groups.values())))
    if mass != monomial(weight):
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
