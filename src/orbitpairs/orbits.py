"""Core counting engine.

Every automorphism orbit of elements of the module with shape lambda is
labelled by an order ideal I.  Fixing the canonical representative of that
orbit splits the module into a distinguished part (one cyclic summand per
maximal point of I) and the rest; stabilizer orbits of a second element are
then classified by a pair of ideals (J, K) over the derived contexts.  The
census groups the cells by their common orbit cardinality alpha and counts
N_alpha, the number of orbits of that cardinality, as a polynomial in q.

Both alpha and the cell count x_count are integer keys (e, sorted m's)
standing for q**e * prod(1 - q**-m).  Alpha is q**[J union K] times
(1 - q**-m''_k) over the maximal points (v, k) of K outside J, which stay
maximal in J union K and are reached iff a row-k coordinate of lambda'' has
valuation exactly v.  x_count is the fiber q**(k_0 - v_0) times the orbit
sizes of J and K, so alpha's factors are a sub-multiset of x_count's and
x/alpha is again a key, with factors J's plus those of K's points inside J:
a Laurent polynomial, as its exponent may fall below its factors' sum.
census_groups sums these Laurent keys per alpha into N_alpha, with no
division.  Three guards stand in for the mass check and exact division:

- per I, fiber + |quotient| + |lambda''| = |lambda|, and each key table's
  orbit sizes sum to q**|mu| when it is built; as the grid sum of x_count is
  q**fiber * (sum over J) * (sum over K), together these say that the cells
  partition the module;
- every alpha key is a polynomial: its exponent is at least its factors' sum;
- alpha divides its group total iff N_alpha, the group's Laurent sum, has no
  negative power, as alpha is monic.

orbit_census expands the alpha keys; n_lambda adds every group of every I.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
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
    representative, with the row quotient_rows[j] per prime part
    (v_j + k_{j+1} - v_{j+1}, and v_j for the last; 0 adds no row), and fiber
    is k_0 - v_0 (0 for the empty ideal).
    """

    prime_parts: tuple[Point, ...]
    lambda_dprime: Partition
    quotient: Partition
    fiber: int
    quotient_rows: tuple[int, ...]


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
    return CanonicalSplit(pts, lam_dprime, quotient, pts[0].k - pts[0].v if pts else 0,
                          tuple(qparts))


@lru_cache(maxsize=None)
def _alpha_core(exponent: int, factors: tuple[int, ...]) -> QPolynomial:
    """q**exponent * prod(1 - q**-m for m in factors), for exponent at least
    sum(factors): an alpha or orbit-size key, or at exponent sum(factors),
    prod(q**m - 1), the expansion of a Laurent key x/alpha of census_groups
    up to its shift by a power of q."""
    return laurent_product(exponent, factors)


def x_count(lam: Partition, I: OrderIdeal, J: OrderIdeal, K: OrderIdeal) -> QPolynomial:
    """Number of second elements with invariants exactly (J, K)."""
    sp = canonical_split(lam, I)
    return monomial(sp.fiber) * orbit_size(sp.quotient, J) * orbit_size(sp.lambda_dprime, K)


def key_table(lam: Partition, mu: Partition, points: bool) -> list:
    """Per ideal X of lattice(mu), in lattice order: its boundaries on
    lambda's rows scaled by lambda's multiplicities, its orbit-size key
    (weighted size, sorted factors) and, if points, its maximal points as
    sorted (m_k in mu, row index in lambda, m_k in lambda * v), for which
    mu's rows must be rows of lambda.  The orbit sizes must sum to q**|mu|."""
    mult = dict(lam.pairs)
    row = {k: i for i, k in enumerate(lam.rows)}
    table = []
    for X in lattice(mu).ideals:
        pts = sorted((mu.mult(k), row[k], mult[k] * v) for v, k in X.max_points) \
            if points else None
        table.append((tuple(m * X.boundary(k) for k, m in lam.pairs), X.weighted_size(mu),
                      tuple(sorted(mu.mult(k) for _, k in X.max_points)), pts))
    mass = [0] * (mu.weight + 1)
    for _, w, f, _ in table:
        mass[:w + 1] = map(add, mass[:w + 1], _alpha_core(w, f).coeffs)
    if mass != [0] * mu.weight + [1]:
        raise DegreeMismatch(f"orbit sizes of lattice({mu}) sum to {QPolynomial(mass)}")
    return table


def _table(tables: dict, lam: Partition, mu: Partition, points: bool) -> list:
    """key_table(lam, mu, points), built once per (mu, points) in tables."""
    table = tables.get((mu, points))
    if table is None:
        table = tables[mu, points] = key_table(lam, mu, points)
    return table


def _negative_power(lam: Partition, I: OrderIdeal, akey: tuple) -> DegreeMismatch:
    return DegreeMismatch(f"N_alpha has a negative power for alpha {_alpha_core(*akey)}"
                          f" in the census of ({lam}; {I})")


def census_groups(lam: Partition, I: OrderIdeal, tables: dict) -> Dict[tuple, list]:
    """Map from alpha key to the coefficients of N_alpha, in order of first
    appearance over the grid, J outer and K inner; tables holds the key
    tables of lambda's calls (see _table).

    Cell (J, K) has s = sum(map(min, bJ, bK)) = |lambda| - [J union K]_lambda,
    alpha key (|lambda| - s, m'' of K's points outside J), and x/alpha key
    (fiber + [J] + [K] - |lambda| + s, J's factors plus m'' of K's points
    inside J), kept with its exponent shifted up by |lambda|; K's point
    (v, k) lies outside J iff bJ[row k] > m_k * v."""
    sp = canonical_split(lam, I)
    weight = lam.weight
    if sp.fiber + sp.quotient.weight + sp.lambda_dprime.weight != weight:
        raise DegreeMismatch(f"split of ({lam}; {I}) does not partition the module")
    js = _table(tables, lam, sp.quotient, False)
    ks = _table(tables, lam, sp.lambda_dprime, True)
    cells: Dict[tuple, int] = {}
    for bJ, wJ, fJ, _ in js:
        base = sp.fiber + wJ
        for bK, wK, _, pK in ks:
            s = sum(map(min, bJ, bK))
            out, ins = [], list(fJ)
            for m, i, v in pK:
                (out if bJ[i] > v else ins).append(m)
            ins.sort()
            key = (weight - s, tuple(out), base + wK + s, tuple(ins))
            cells[key] = cells.get(key, 0) + 1
    # Coefficient i of acc stands for q**(i - |lambda|); a Laurent key's
    # shifted exponent e is at most 2 |lambda|, and its expansion is
    # prod(q**m - 1) over f shifted up by e - sum(f).
    groups: Dict[tuple, list] = {}
    for (ea, fa, e, f), c in cells.items():
        acc = groups.get((ea, fa))
        if acc is None:
            if ea < sum(fa):
                raise DegreeMismatch(f"alpha key {(ea, fa)} of ({lam}; {I}) is no polynomial")
            acc = groups[ea, fa] = [0] * (2 * weight + 1)
        sf = sum(f)
        if e < sf:
            raise _negative_power(lam, I, (ea, fa))
        if c == 1:  # most cells have a key of their own; this skips the products
            acc[e - sf:e + 1] = map(add, acc[e - sf:e + 1], _alpha_core(sf, f).coeffs)
        else:
            acc[e - sf:e + 1] = [a + c * b for a, b in
                                 zip(acc[e - sf:e + 1], _alpha_core(sf, f).coeffs)]
    for akey, acc in groups.items():
        if any(acc[:weight]):
            raise _negative_power(lam, I, akey)
        groups[akey] = acc[weight:]
    return groups


def orbit_census(lam: Partition, I: OrderIdeal) -> Dict[QPolynomial, QPolynomial]:
    """Map from orbit cardinality to number of stabilizer orbits of that
    cardinality, under census_groups' guards.  Grouping by alpha key is
    grouping by alpha, as q**(e - sum m) * prod(q**m - 1) factors uniquely
    into cyclotomics."""
    return {_alpha_core(*akey): QPolynomial(coeffs)
            for akey, coeffs in census_groups(lam, I, {}).items()}


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
    coeffs = [0] * (capped.weight + 1)
    tables: dict = {}
    for I in lattice(capped).ideals:
        for group in census_groups(capped, I, tables).values():
            coeffs = list(map(add, coeffs, group))
    total = QPolynomial(coeffs)
    if capped and (not total.is_monic() or total.degree != capped.largest
                   or not total.is_integer_coefficients()):
        raise DegreeMismatch(f"n_lambda({lam}) = {total} fails monic/degree check")
    if cap:
        store[capped] = total
    return total
