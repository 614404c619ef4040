"""Core counting engine.

Every automorphism orbit of elements of the module with shape lambda is
labelled by an order ideal I.  Fixing the canonical representative of that
orbit splits the module into a distinguished part (one cyclic summand per
maximal point of I) and the rest; stabilizer orbits of a second element are
then classified by a pair of ideals (J, K) over the derived contexts.  The
census groups the cells by their common orbit cardinality alpha and counts
N_alpha, the number of orbits of that cardinality, as a polynomial in q.

Both alpha and the cell count x are integer keys (e, sorted m's)
standing for q**e * prod(1 - q**-m).  Alpha is q**[J union K] times
(1 - q**-m''_k) over the maximal points (v, k) of K outside J, which stay
maximal in J union K and are reached iff a row-k coordinate of lambda'' has
valuation exactly v.  x is the fiber q**(k_0 - v_0) times the orbit
sizes of J and K, so alpha's factors are a sub-multiset of x's and
x/alpha is again a key, with factors J's plus those of K's points inside J:
a Laurent polynomial, as its exponent may fall below its factors' sum.
The census sums these Laurent keys per alpha into N_alpha, with no
division.  Three guards stand in for the mass check and exact division:

- per I, fiber + |quotient| + |lambda''| = |lambda|, and lattice(mu) checks
  that the orbit sizes of mu's ideals sum to q**|mu| as it is built; as the
  grid sum of x is q**fiber * (sum over J) * (sum over K), together these
  say that the cells partition the module;
- every alpha key is a polynomial: its exponent is at least its factors' sum;
- alpha divides its group total iff N_alpha, the group's Laurent sum, has no
  negative power, as alpha is monic.

One engine runs all three.  _cells takes first ideals as the rows (v, k) of
their maximal points, gets all their splits at once from split_arrays, and
builds the cells in one numpy batch from the lattices' int rows, checking
the weight identity per I and alpha's exponent and that of x/alpha against
their factors' sums per cell; _group_sums sums the Laurent keys per (I,
alpha) and checks the negative powers.  _laurent_total groups only the
cells whose key reaches below q**0, sums all keys into one total and checks
that it is monic of degree lambda_1; _censuses groups every cell.  n_lambda
and census_batch batch every row of lattice(lambda), building no OrderIdeal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, MutableMapping, NamedTuple, Optional

import numpy as np

from .errors import DegreeMismatch
from .posets import (OrderIdeal, Partition, Point, check_int64, lattice, require_context,
                     row_ideal)
from .qpoly import QPolynomial, laurent_product


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
    rows = {p.k for p in pts}
    lam_dprime = Partition((k, m - (k in rows)) for k, m in lam.pairs if m > (k in rows))
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
    prod(q**m - 1), the expansion of a Laurent key x/alpha up to its shift
    by a power of q."""
    return laurent_product(exponent, factors)


def _negative_power(lam: Partition, I: OrderIdeal, akey: tuple) -> DegreeMismatch:
    return DegreeMismatch(f"N_alpha has a negative power for alpha {_alpha_core(*akey)}"
                          f" in the census of ({lam}; {I})")


def split_arrays(lam: Partition, v: np.ndarray, k: np.ndarray) -> tuple:
    """canonical_split of every first ideal given as the rows (v, k) of its
    maximal points, padded with (0, 0): the fibers k_0 - v_0; the quotient
    rows v_j + k_{j+1} - v_{j+1}, v_j for the last point and 0 for a padded
    one, which fall strictly, so that a row's nonzero entries are the
    quotient's parts; and lambda'''s multiplicities on lambda's rows,
    lambda's less one for each k_j."""
    c, quotient = k - v, v.copy()
    quotient[:, :-1] += c[:, 1:]
    onehot = k[:, :, None] == np.array(lam.rows, dtype=np.int64)
    mults = np.array([m for _, m in lam.pairs], dtype=np.int64)
    # c[:, :1] is empty, and the fiber 0, when lambda has no rows.
    return c[:, :1].sum(1), quotient, mults - onehot.sum(1)


def _distinct(a: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct rows of a, as tuples in order of first appearance, and
    each row's index among them.  A dict of row tuples runs faster here than
    np.unique on a void view of the rows, on small shapes and large."""
    index: Dict[tuple, int] = {}
    inverse = [index.setdefault(row, len(index)) for row in map(tuple, a.tolist())]
    return list(index), np.array(inverse, dtype=np.int64)


class _Cells(NamedTuple):
    """A batch of cells (I, J, K): per cell, I's index, the alpha key (ea,
    a_code) and the Laurent key x/alpha (e shifted up by |lambda|, l_code,
    factors' sum l_sf).  Factor multisets are radix codes: digit r counts
    the factor values[r], values rising, and codes lie below span.  fv and
    fk are the first ideals' maximal points, padded as in IdealLattice."""

    fv: np.ndarray
    fk: np.ndarray
    first: np.ndarray
    ea: np.ndarray
    a_code: np.ndarray
    e: np.ndarray
    l_code: np.ndarray
    l_sf: np.ndarray
    radix: int
    values: list
    span: int

    def factors(self, code: int) -> tuple[int, ...]:
        out: list[int] = []
        for m in self.values:
            code, c = divmod(code, self.radix)
            out += [m] * c
        return tuple(out)

    def alpha(self, c: int) -> tuple:
        return int(self.ea[c]), self.factors(int(self.a_code[c]))

    def ideal(self, i: int) -> OrderIdeal:
        return row_ideal(self.fv[i].tolist(), self.fk[i].tolist())


def _cells(lam: Partition, fv: np.ndarray, fk: np.ndarray) -> _Cells:
    """The cells of the first ideals with maximal points (fv, fk), padded as
    in IdealLattice, I outer, then J, then K, in one numpy batch under every
    guard but _group_sums' negative powers.

    split_arrays gives every split at once; each distinct quotient and
    lambda'' row becomes a partition mu, which contributes the rows of
    lattice(mu) once; one broadcast gives their boundaries on
    lambda's rows.  The cells are index arrays into the ideals, and factor
    multisets are radix codes: digit r counts the r-th smallest factor
    value of the shape, and the radix exceeds J's points plus K's, so codes
    add as multisets do.  Every key and code is checked to fit in int64
    before it is formed.  With s = |lambda| - [J union K],
    the sum of min(bJ, bK) over lambda's rows scaled by multiplicities,
    alpha has exponent |lambda| - s and x/alpha fiber + [J] + [K] - |lambda| + s."""
    weight, rows = lam.weight, np.array(lam.rows, dtype=np.int64)
    fiber, qrows, dprime = split_arrays(lam, fv, fk)
    bad = (fiber + qrows.sum(1) + dprime @ rows != weight).nonzero()[0]
    if bad.size:
        I = row_ideal(fv[bad[0]].tolist(), fk[bad[0]].tolist())
        raise DegreeMismatch(f"split of ({lam}; {I}) does not partition the module")
    index: Dict[Partition, int] = {}
    qkeys, qrow = _distinct(qrows)
    dkeys, drow = _distinct(dprime)
    jmu = np.array([index.setdefault(Partition((p, 1) for p in row if p), len(index))
                    for row in qkeys])[qrow]
    kmu = np.array([index.setdefault(Partition((p, m) for p, m in zip(lam.rows, row) if m),
                                     len(index)) for row in dkeys])[drow]
    parts = [lattice(mu) for mu in index]

    # One row per ideal of every mu, padded to the widest antichain.
    sizes = np.array([len(a.w) for a in parts])
    starts = np.cumsum(sizes) - sizes
    width = max(a.v.shape[1] for a in parts)
    pv, pk, pm = (np.zeros((int(sizes.sum()), width), dtype=np.int64) for _ in range(3))
    for a, st in zip(parts, starts.tolist()):
        for padded, field in ((pv, a.v), (pk, a.k), (pm, a.m)):
            padded[st:st + len(a.w), :field.shape[1]] = field
    w = np.concatenate([a.w for a in parts])
    # Boundaries on lambda's rows; column[k] is row k's column, and a padded
    # point, which carries no factor, reads column 0.
    bound = np.minimum((pv[:, :, None] + np.maximum(rows - pk[:, :, None], 0)).min(
        1, initial=lam.largest), rows)
    scaled = bound * np.array([m for _, m in lam.pairs], dtype=np.int64)
    column = np.zeros(lam.largest + 1, dtype=np.int64)
    column[rows] = np.arange(rows.size)

    values, rank = np.unique(pm, return_inverse=True)
    radix, factor_values = 2 * width + 1, values[values > 0].tolist()
    span = radix ** len(factor_values)
    check_int64(span - 1, f"factor codes of the cells of {lam}")
    digit = np.array([0] * (values.size - len(factor_values)) +
                     [radix ** r for r in range(len(factor_values))], dtype=np.int64)
    point_code = digit[rank.reshape(pm.shape)]
    code, sf = point_code.sum(1), pm.sum(1)

    counts = sizes[jmu] * sizes[kmu]
    first, j0, k0, nk, off = np.repeat(np.stack(
        [np.arange(len(fv)), starts[jmu], starts[kmu], sizes[kmu],
         np.cumsum(counts) - counts]), counts, axis=1)
    t = np.arange(off.size) - off
    J, K = j0 + t // nk, k0 + t % nk
    # take and einsum run faster than fancy indexing and a product's sum.
    s = np.minimum(scaled.take(J, 0), scaled.take(K, 0)).sum(1)
    inside = bound.ravel().take(J[:, None] * rows.size + column[pk].take(K, 0)) <= pv.take(K, 0)
    in_code = np.einsum("cw,cw->c", point_code.take(K, 0), inside)
    in_sf = np.einsum("cw,cw->c", pm.take(K, 0), inside)
    ea, a_code, a_sf = weight - s, code[K] - in_code, sf[K] - in_sf
    e, l_code, l_sf = fiber[first] + w[J] + w[K] + s, code[J] + in_code, sf[J] + in_sf
    cells = _Cells(fv, fk, first, ea, a_code, e, l_code, l_sf, radix, factor_values, span)

    bad = (ea < a_sf).nonzero()[0]
    if bad.size:
        raise DegreeMismatch(f"alpha key {cells.alpha(bad[0])} of"
                             f" ({lam}; {cells.ideal(first[bad[0]])}) is no polynomial")
    bad = (e < l_sf).nonzero()[0]
    if bad.size:
        raise _negative_power(lam, cells.ideal(first[bad[0]]), cells.alpha(bad[0]))
    check_int64(len(fv) * (weight + 1) * span - 1, f"(I, alpha) keys of the cells of {lam}")
    check_int64((int(e.max()) + 1) * span - 1,
                f"packed Laurent keys of the cells of {lam}")
    return cells


def _group_sums(lam: Partition, cells: _Cells, sel: np.ndarray,
                width: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum the Laurent keys of the cells sel per (I, alpha), in int64 with
    column i standing for q**(i - |lambda|), i < width.  Returns each
    group's first cell, in order of first appearance over sel, and the
    group's row of sums.  Raises _negative_power unless every row is zero
    below q**0: alpha divides its group total iff N_alpha has no negative
    power."""
    weight = lam.weight
    _, seen, gid = np.unique(
        (cells.first[sel] * (weight + 1) + cells.ea[sel]) * cells.span + cells.a_code[sel],
        return_index=True, return_inverse=True)
    order = np.argsort(seen)
    gid = np.argsort(order)[gid]
    heads = sel[seen[order]]
    lcodes, cid = np.unique(cells.l_code[sel], return_inverse=True)
    table = [_alpha_core(sum(f), f).coeffs for f in map(cells.factors, lcodes.tolist())]
    check_int64(sel.size * max(abs(b) for cs in table for b in cs),
                f"N_alpha coefficients of the cells of {lam}")
    expansions = np.zeros((len(table), max(map(len, table))), dtype=np.int64)
    for row, cs in zip(expansions, table):
        row[:len(cs)] = cs
    # Column j of a cell's expansion is power e - l_sf + j, at flat index
    # low + j of acc; columns past width are cut.  One add.at on a flat
    # index runs faster than one per column.
    cols = width + expansions.shape[1]
    low = gid * cols + cells.e[sel] - cells.l_sf[sel]
    acc = np.zeros((heads.size, cols), dtype=np.int64)
    np.add.at(acc.ravel(), (low[:, None] + np.arange(expansions.shape[1])).ravel(),
              expansions[cid].ravel())
    acc = acc[:, :width]
    bad = acc[:, :weight].any(1).nonzero()[0]
    if bad.size:
        c = heads[bad[0]]
        raise _negative_power(lam, cells.ideal(cells.first[c]), cells.alpha(c))
    return heads, acc


def _laurent_total(lam: Partition, cells: _Cells) -> QPolynomial:
    """n_lambda on lambda itself, checked monic of degree lambda_1: the Laurent
    keys x/alpha of a batch of every first ideal, summed as Python ints.  Only
    the cells whose key reaches below q**0 can leave a negative power in their
    (I, alpha) group, so only those are grouped."""
    weight = lam.weight
    below = (cells.e - cells.l_sf < weight).nonzero()[0]
    if below.size:
        _group_sums(lam, cells, below, weight)
    keys, counts = np.unique(cells.e * cells.span + cells.l_code, return_counts=True)
    total = [0] * (int(cells.e.max()) + 1)  # coefficient i stands for q**(i - |lambda|)
    for key, c in zip(keys.tolist(), counts.tolist()):
        hi, lcode = divmod(key, cells.span)
        f = cells.factors(lcode)
        lo = hi - sum(f)
        total[lo:hi + 1] = [a + c * b for a, b in zip(total[lo:hi + 1],
                                                       _alpha_core(sum(f), f).coeffs)]
    poly = QPolynomial(total[weight:])
    if lam and (not poly.is_monic() or poly.degree != lam.largest):
        raise DegreeMismatch(f"n_lambda({lam}) = {poly} fails monic/degree check")
    return poly


def _censuses(lam: Partition, cells: _Cells) -> list[Dict[QPolynomial, QPolynomial]]:
    """The census of each first ideal of the batch; a shifted exponent e is
    at most 2 |lambda|, so 2 |lambda| + 1 columns hold every group."""
    weight = lam.weight
    heads, acc = _group_sums(lam, cells, np.arange(cells.first.size), 2 * weight + 1)
    censuses: list = [{} for _ in range(len(cells.fv))]
    for c, row in zip(heads.tolist(), acc[:, weight:].tolist()):
        censuses[cells.first[c]][_alpha_core(*cells.alpha(c))] = QPolynomial(row)
    return censuses


def census_batch(lam: Partition) -> tuple[QPolynomial, list[Dict[QPolynomial, QPolynomial]]]:
    """n_lambda's own sum on lambda, uncapped, and the census of every
    ideal of lattice(lambda), in lattice order, from one cell batch."""
    lat = lattice(lam)
    cells = _cells(lam, lat.v, lat.k)
    return _laurent_total(lam, cells), _censuses(lam, cells)


def orbit_census(lam: Partition, I: OrderIdeal) -> Dict[QPolynomial, QPolynomial]:
    """Map from orbit cardinality to number of stabilizer orbits of that
    cardinality, in order of first appearance over the grid, J outer and K
    inner.  Grouping by alpha key is grouping by alpha, as
    q**(e - sum m) * prod(q**m - 1) factors uniquely into cyclotomics."""
    require_context(lam, I)
    # No point, part or multiplicity of lambda exceeds |lambda|.
    check_int64(lam.weight, f"ideal weights of the cells of {lam}")
    v, k = np.array(I.max_points + ((0, 0),) * (len(lam.pairs) - len(I.max_points)),
                    dtype=np.int64).reshape(-1, 2).T
    return _censuses(lam, _cells(lam, v[None], k[None]))[0]


def per_ideal_total(lam: Partition, I: OrderIdeal) -> QPolynomial:
    """Number of orbits of pairs whose first member has invariant I."""
    return sum(orbit_census(lam, I).values(), QPolynomial())


_N_LAMBDA: Dict[Partition, QPolynomial] = {}


def n_lambda(lam: Partition,
             store: Optional[MutableMapping[Partition, QPolynomial]] = None) -> QPolynomial:
    """Number of automorphism orbits of pairs in the module of shape lambda,
    monic of degree lambda_1 with integer coefficients.

    Multiplicities are capped at 2 first: the count is invariant under the
    cap, which verify checks on every shape past its cap.  Results are
    memoized in `store` (module-level by default).
    """
    if store is None:
        store = _N_LAMBDA
    capped = lam.cap(2)
    total = store.get(capped)
    if total is None:
        lat = lattice(capped)
        total = store[capped] = _laurent_total(capped, _cells(capped, lat.v, lat.k))
    return total
