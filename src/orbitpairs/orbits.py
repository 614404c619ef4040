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

Two paths run all three.  census_groups, under orbit_census and
per_ideal_total (the census and verify commands), loops over one I's cells
in Python on key tables built per call by key_table, which refined shares.
n_lambda sums every cell of every I of a shape in one numpy batch
(_laurent_total) on arrays that ideal_arrays builds once per mu and process:
the weight identity is checked per I, the mass check once per mu, alpha's
exponent and that of x/alpha against their factors' sums per cell, and the
negative powers per (I, alpha) over the cells whose Laurent key reaches
below q**0, the only ones that can leave one.  n_lambda then checks that the total is monic of degree lambda_1 with
integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Dict, MutableMapping, NamedTuple, Optional

import numpy as np

from .errors import BudgetExceeded, DegreeMismatch
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
    _check_mass(mu, [(w, f) for _, w, f, _ in table])
    return table


def _check_mass(mu: Partition, keys: list):
    """Raise unless the orbit-size keys (weighted size, sorted factors) of
    lattice(mu) sum to q**|mu|."""
    mass = [0] * (mu.weight + 1)
    for w, f in keys:
        mass[:w + 1] = map(add, mass[:w + 1], _alpha_core(w, f).coeffs)
    if mass != [0] * mu.weight + [1]:
        raise DegreeMismatch(f"orbit sizes of lattice({mu}) sum to {QPolynomial(mass)}")


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


class IdealArrays(NamedTuple):
    """lattice(mu) as arrays, one row per ideal in lattice order: its maximal
    points (v, k) with their orbit-size factors m_k in mu, padded to mu's
    row count with v = _FAR, k = 0 and m = 0, and its weighted size."""

    v: np.ndarray
    k: np.ndarray
    m: np.ndarray
    w: np.ndarray


# A padded point's boundary candidate v + max(0, r - k) lies past every row r.
_FAR = 1 << 32
_INT64_MAX = 2 ** 63 - 1


def ideal_arrays(mu: Partition) -> IdealArrays:
    """The arrays of lattice(mu); its orbit sizes must sum to q**|mu|."""
    width = len(mu.pairs)
    vs, ks, ms, keys = [], [], [], []
    for X in lattice(mu).ideals:
        pts = X.max_points
        f = [mu.mult(p.k) for p in pts]
        pad = [0] * (width - len(pts))
        vs.append([p.v for p in pts] + [_FAR] * len(pad))
        ks.append([p.k for p in pts] + pad)
        ms.append(f + pad)
        keys.append((X.weighted_size(mu), tuple(sorted(f))))
    _check_mass(mu, keys)
    shape = (len(keys), width)
    return IdealArrays(*(np.array(a, dtype=np.int64).reshape(shape) for a in (vs, ks, ms)),
                       np.array([w for w, _ in keys], dtype=np.int64))


# ideal_arrays(mu) under mu, kept for the process like refined._S_COUNTS, so
# that the shapes of one process build each mu's arrays once.
_IDEAL_ARRAYS: Dict[Partition, IdealArrays] = {}


def _int64(bound: int, what: str, lam: Partition):
    if bound > _INT64_MAX:
        raise BudgetExceeded(f"{what} of n_lambda({lam}) reach {bound}, past int64")


class _Codes(NamedTuple):
    """Factor multisets of one shape as radix codes: digit r counts the
    factor values[r], values rising, and codes below span."""

    radix: int
    values: list

    @property
    def span(self) -> int:
        return self.radix ** len(self.values)

    def factors(self, code: int) -> tuple[int, ...]:
        out: list[int] = []
        for m in self.values:
            code, c = divmod(code, self.radix)
            out += [m] * c
        return tuple(out)


def _laurent_total(lam: Partition) -> list[int]:
    """Coefficients of n_lambda: the Laurent keys x/alpha of every cell
    (I, J, K) of census_groups, summed in one numpy batch.

    Every quotient and lambda'' of lambda's first ideals contributes its
    ideal_arrays once; one broadcast gives their boundaries on lambda's rows.
    The cells are index arrays into those rows, and factor multisets are
    radix codes: digit r counts the r-th smallest factor value of the shape,
    and the radix exceeds J's points plus K's, so codes add as multisets do.
    Every key and code is checked to fit in int64 before it is formed, and
    the coefficients are summed as Python ints."""
    weight = lam.weight
    ideals = lattice(lam).ideals
    index: Dict[Partition, int] = {}
    firsts = []
    for I in ideals:
        sp = canonical_split(lam, I)
        if sp.fiber + sp.quotient.weight + sp.lambda_dprime.weight != weight:
            raise DegreeMismatch(f"split of ({lam}; {I}) does not partition the module")
        firsts.append((sp.fiber, index.setdefault(sp.quotient, len(index)),
                       index.setdefault(sp.lambda_dprime, len(index))))
    parts = []
    for mu in index:
        arrays = _IDEAL_ARRAYS.get(mu)
        if arrays is None:
            arrays = _IDEAL_ARRAYS[mu] = ideal_arrays(mu)
        parts.append(arrays)

    # One row per ideal of every mu, padded to the widest antichain.
    sizes = np.array([len(a.w) for a in parts])
    starts = np.cumsum(sizes) - sizes
    width = max(a.v.shape[1] for a in parts)
    pv = np.full((int(sizes.sum()), width), _FAR, dtype=np.int64)
    pk = np.zeros_like(pv)
    pm = np.zeros_like(pv)
    for a, st in zip(parts, starts.tolist()):
        block = slice(st, st + len(a.w))
        pv[block, :a.v.shape[1]] = a.v
        pk[block, :a.k.shape[1]] = a.k
        pm[block, :a.m.shape[1]] = a.m
    w = np.concatenate([a.w for a in parts])
    rows = np.array(lam.rows, dtype=np.int64)
    bound = np.minimum((pv[:, :, None] + np.maximum(rows - pk[:, :, None], 0)).min(
        1, initial=_FAR), rows)
    scaled = bound * np.array([m for _, m in lam.pairs], dtype=np.int64)
    where = np.zeros(lam.largest + 1, dtype=np.int64)
    where[rows] = np.arange(rows.size)
    point_row = where[pk]  # read for K's points only, which lie on rows of lambda

    values, rank = np.unique(pm, return_inverse=True)
    codes = _Codes(2 * width + 1, values[values > 0].tolist())
    span = codes.span
    _int64(span - 1, "factor codes", lam)
    digit = np.array([0] * (values.size - len(codes.values)) +
                     [codes.radix ** r for r in range(len(codes.values))], dtype=np.int64)
    point_code = digit[rank.reshape(pm.shape)]
    code, sf = point_code.sum(1), pm.sum(1)

    # Cells, I outer, then J, then K.
    fiber, jmu, kmu = np.array(firsts, dtype=np.int64).T
    counts = sizes[jmu] * sizes[kmu]
    first, j0, k0, nk, off = np.repeat(np.stack(
        [np.arange(len(ideals)), starts[jmu], starts[kmu], sizes[kmu],
         np.cumsum(counts) - counts]), counts, axis=1)
    t = np.arange(off.size) - off
    J, K = j0 + t // nk, k0 + t % nk
    s = np.minimum(scaled[J], scaled[K]).sum(1)
    inside = bound[J[:, None], point_row[K]] <= pv[K]
    in_code = (point_code[K] * inside).sum(1)
    in_sf = (pm[K] * inside).sum(1)
    ea, a_code, a_sf = weight - s, code[K] - in_code, sf[K] - in_sf
    e, l_code, l_sf = fiber[first] + w[J] + w[K] + s, code[J] + in_code, sf[J] + in_sf

    def akey(c: int) -> tuple:
        return int(ea[c]), codes.factors(int(a_code[c]))

    bad = (ea < a_sf).nonzero()[0]
    if bad.size:
        raise DegreeMismatch(f"alpha key {akey(bad[0])} of ({lam}; {ideals[first[bad[0]]]})"
                             f" is no polynomial")
    low = e - l_sf  # lowest shifted power of the cell's Laurent key
    bad = (low < 0).nonzero()[0]
    if bad.size:
        raise _negative_power(lam, ideals[first[bad[0]]], akey(bad[0]))
    _check_groups(lam, ideals, codes, (low < weight).nonzero()[0], first, ea, a_code, l_code,
                  low, l_sf)

    top = int(e.max())
    _int64((top + 1) * span - 1, "packed Laurent keys", lam)
    keys, counts = np.unique(e * span + l_code, return_counts=True)
    total = [0] * (top + 1)  # coefficient i stands for q**(i - |lambda|)
    for key, c in zip(keys.tolist(), counts.tolist()):
        hi, lcode = divmod(key, span)
        f = codes.factors(lcode)
        lo = hi - sum(f)
        total[lo:hi + 1] = [a + c * b for a, b in zip(total[lo:hi + 1],
                                                       _alpha_core(sum(f), f).coeffs)]
    return total[weight:]


def _check_groups(lam, ideals, codes, cells, first, ea, a_code, l_code, low, l_sf):
    """Raise _negative_power unless every (I, alpha) group's Laurent sum has
    no negative power.  Only the cells whose key reaches below q**0 can
    leave one, so only those are grouped and summed."""
    if not cells.size:
        return
    weight = lam.weight
    span = codes.span
    _int64(len(ideals) * (weight + 1) * span - 1, "(I, alpha) keys", lam)
    groups, gid = np.unique((first[cells] * (weight + 1) + ea[cells]) * span + a_code[cells],
                            return_inverse=True)
    keys, cid = np.unique(l_code[cells], return_inverse=True)
    table = [_alpha_core(sum(f), f).coeffs for f in map(codes.factors, keys.tolist())]
    _int64(cells.size * max(abs(b) for cs in table for b in cs), "N_alpha coefficients", lam)
    expansions = np.zeros((len(table), max(map(len, table))), dtype=np.int64)
    for row, cs in zip(expansions, table):
        row[:len(cs)] = cs
    # Entry j of a cell is its key's power low + j, while below q**0.
    low = low[cells]
    n = np.minimum(l_sf[cells], weight - 1 - low) + 1
    cell = np.repeat(np.arange(cells.size), n)
    j = np.arange(cell.size) - np.repeat(np.cumsum(n) - n, n)
    acc = np.zeros((groups.size, weight), dtype=np.int64)
    np.add.at(acc, (gid[cell], low[cell] + j), expansions[cid[cell], j])
    bad = acc.any(1).nonzero()[0]
    if bad.size:
        rest, acode = divmod(int(groups[bad[0]]), span)
        i, a = divmod(rest, weight + 1)
        raise _negative_power(lam, ideals[i], (a, codes.factors(acode)))


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
    total = QPolynomial(_laurent_total(capped))
    if capped and (not total.is_monic() or total.degree != capped.largest
                   or not total.is_integer_coefficients()):
        raise DegreeMismatch(f"n_lambda({lam}) = {total} fails monic/degree check")
    if cap:
        store[capped] = total
    return total
