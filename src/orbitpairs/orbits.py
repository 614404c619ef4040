"""Core counting engine.

Every automorphism orbit of elements of the module with shape lambda is
labelled by an order ideal I.  Fixing the canonical representative of that
orbit splits the module into a distinguished part (one cyclic summand per
maximal point of I) and the rest; stabilizer orbits of a second element are
then classified by a pair of ideals (J, K) over the derived contexts.  The
census of I groups its cells by their common orbit cardinality alpha and
counts N_alpha, the number of orbits of that cardinality, as a polynomial in
q; n_lambda is the sum of every census.  This module's numpy cell batch
yields only that sum, for many shapes at once; the censuses themselves come
from refined's grid, one column of which is the whole module.

Both alpha and the cell count x are integer keys (e, sorted m's)
standing for q**e * prod(1 - q**-m).  Alpha is q**[J union K] times
(1 - q**-m''_k) over the maximal points (v, k) of K outside J, which stay
maximal in J union K and are reached iff a row-k coordinate of lambda'' has
valuation exactly v.  x is the fiber q**(k_0 - v_0) times the orbit
sizes of J and K, so alpha's factors are a sub-multiset of x's and
x/alpha is again a key, with factors J's plus those of K's points inside J:
a Laurent polynomial, as its exponent may fall below its factors' sum.
A census sums these Laurent keys per alpha into N_alpha, with no
division.  Three guards stand in for the mass check and exact division:

- per I, fiber + |quotient| + |lambda''| = |lambda|, and lattice(mu) checks
  that the orbit sizes of mu's ideals sum to q**|mu| as it is built; as the
  grid sum of x is q**fiber * (sum over J) * (sum over K), together these
  say that the cells partition the module;
- every alpha key is a polynomial: its exponent is at least its factors' sum;
- alpha divides its group total iff N_alpha, the group's Laurent sum, has no
  negative power, as alpha is monic.

The batch runs all three on a _Block of first ideals of one shape or more,
each cell's Laurent key shifted up by the block's largest weight, though it
groups per (I, alpha) only the cells whose keys reach below q**0.
A block splits its first ideals once; n_lambdas sizes it by its shapes'
|lattice(lambda)|**2, known before the split: for every capped shape
reached from |lambda| <= 22, its cells are 0.4 to 7 times that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Dict, Iterable, Iterator, MutableMapping, Optional

import numpy as np

from .errors import DegreeMismatch
from .posets import (OrderIdeal, Partition, Point, check_int64, lattice, require_context,
                     row_ideal)
from .qpoly import QPolynomial, laurent_product

# A cap on the sum of |lattice(lambda)|**2 over a block's shapes, but for one shape.
_BLOCK_SQUARES = 2 ** 11
_N_LAMBDA: Dict[Partition, QPolynomial] = {}


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
    return laurent_product(I.weighted_size(lam), [lam.mult(p.k) for p in I.max_points])


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
    split = CanonicalSplit(pts, lam_dprime, quotient, pts[0].k - pts[0].v if pts else 0,
                           tuple(qparts))
    if split.fiber + quotient.weight + lam_dprime.weight != lam.weight:
        raise DegreeMismatch(f"split of ({lam}; {I}) does not partition the module")
    return split


@lru_cache(maxsize=None)
def _alpha_core(exponent: int, factors: tuple[int, ...]) -> QPolynomial:
    """q**exponent * prod(1 - q**-m for m in factors): an alpha or orbit-size
    key, or at exponent sum(factors) the expansion prod(q**m - 1) of a
    Laurent key x/alpha up to a power of q."""
    return laurent_product(exponent, factors)


def split_arrays(rows: np.ndarray, mults: np.ndarray, v: np.ndarray, k: np.ndarray) -> tuple:
    """canonical_split of first ideals as (0, 0)-padded rows (v, k) of maximal
    points, in shapes with multiplicities mults on rows (one for all or per
    ideal): fibers (0 with no rows), quotient_rows and lambda'''s multiplicities."""
    c, quotient = k - v, v.copy()
    quotient[:, :-1] += c[:, 1:]
    return c[:, :1].sum(1), quotient, mults - (k[:, :, None] == rows).sum(1)


def _mu_index(a: np.ndarray, index: Dict[Partition, int], mu) -> np.ndarray:
    """Per row of a, the index in `index` of mu(row), made per distinct row."""
    rows: Dict[tuple, int] = {}
    inverse = [rows.setdefault(row, len(rows)) for row in map(tuple, a.tolist())]
    return np.array([index.setdefault(mu(row), len(index)) for row in rows])[inverse]


class _Block:
    """The first ideals (v, k) of each (shape, v, k) of entries, split at
    once: per ideal, its shape's index owner, its fiber, and its quotient's
    and lambda'''s indices jmu and kmu into mus.  _cells adds per cell
    (I, J, K) I's index first, the alpha key (ea, a_code), and x/alpha's code
    l_code and lowest power low, up by top."""

    def __init__(self, entries: list):
        self.shapes = shapes = [lam for lam, _, _ in entries]
        starts = list(accumulate((len(v) for _, v, _ in entries), initial=0))
        self.owner = owner = np.repeat(np.arange(len(shapes)), [len(v) for _, v, _ in entries])
        fv, fk = np.zeros((2, starts[-1], max(v.shape[1] for _, v, _ in entries)), dtype=np.int64)
        for (_, v, k), st in zip(entries, starts):
            fv[st:st + len(v), :v.shape[1]], fk[st:st + len(v), :k.shape[1]] = v, k
        rows = sorted({r for lam in shapes for r in lam.rows}, reverse=True)
        self.mults = mults = np.array([[m.get(r, 0) for r in rows] for m in map(
            dict, (lam.pairs for lam in shapes))], dtype=np.int64).reshape(len(shapes), len(rows))
        self.fv, self.fk, self.rows = fv, fk, np.array(rows, dtype=np.int64)
        self.fiber, qrows, dprime = split_arrays(self.rows, mults[owner], fv, fk)
        self.weights = mults @ self.rows
        bad = (self.fiber + qrows.sum(1) + dprime @ self.rows != self.weights[owner]).nonzero()[0]
        if bad.size:
            raise DegreeMismatch(f"split of ({self.where(bad[0])}) does not partition the module")
        index: Dict[Partition, int] = {}
        self.jmu = _mu_index(qrows, index, lambda row: Partition((p, 1) for p in row if p))
        self.kmu = _mu_index(dprime, index,
                             lambda row: Partition((p, m) for p, m in zip(rows, row) if m))
        self.mus = list(index)
        self.lattices = [lattice(mu) for mu in self.mus]

    def where(self, i: int) -> str:
        I = row_ideal(self.fv[i].tolist(), self.fk[i].tolist())
        return f"{self.shapes[self.owner[i]]}; {I}"

    def factors(self, code: int) -> tuple[int, ...]:
        out: list[int] = []
        for m in self.values:
            code, c = divmod(code, self.radix)
            out += [m] * c
        return tuple(out)

    def alpha(self, c: int) -> tuple:
        return int(self.ea[c]), self.factors(int(self.a_code[c]))


def _negative_power(where: str, akey: tuple) -> DegreeMismatch:
    return DegreeMismatch(f"N_alpha has a negative power for alpha {_alpha_core(*akey)}"
                          f" in the census of ({where})")


def _cells(block: _Block) -> _Block:
    """Adds the cells of block, I outer, then J, then K, in one numpy batch
    under every guard but _group_sums', each mu adding lattice(mu)'s rows
    once; every key fits in int64.  With s the sum of min(bJ, bK) times the
    cell's own shape's multiplicities, alpha has exponent |lambda| - s and
    x/alpha fiber + [J] + [K] - |lambda| + s."""
    rows, mults, name = block.rows, block.mults, " ".join(map(str, block.shapes))
    top = int(block.weights.max())
    parts = block.lattices
    # One row per ideal of every mu, padded to the widest antichain.
    sizes = np.array([len(a.w) for a in parts])
    starts = np.cumsum(sizes) - sizes
    width = max(a.v.shape[1] for a in parts)
    pv, pk, pm = (np.zeros((int(sizes.sum()), width), dtype=np.int64) for _ in range(3))
    for a, st in zip(parts, starts.tolist()):
        for padded, field in ((pv, a.v), (pk, a.k), (pm, a.m)):
            padded[st:st + len(a.w), :field.shape[1]] = field
    w = np.concatenate([a.w for a in parts])
    # Boundaries on the falling rows; a padded point reads any column, clipped.
    bound = np.minimum((pv[:, :, None] + np.maximum(rows - pk[:, :, None], 0)).min(
        1, initial=rows.max(initial=0)), rows)
    column = np.searchsorted(-rows, -pk)
    digit = np.zeros(int(pm.max(initial=0)) + 1, dtype=np.int64)
    digit[pm], digit[0] = 1, 0
    radix, values = 2 * width + 1, digit.nonzero()[0]
    span = radix ** len(values)
    check_int64(span - 1, f"factor codes of the cells of {name}")
    digit[values] = [radix ** r for r in range(len(values))]
    point_code = digit[pm]
    code, sf = point_code.sum(1), pm.sum(1)

    jmu, kmu, owner = block.jmu, block.kmu, block.owner
    counts = sizes[jmu] * sizes[kmu]
    first = np.repeat(np.arange(owner.size), counts)
    J, K = np.divmod(np.arange(first.size) - (np.cumsum(counts) - counts).take(first),
                     sizes[kmu].take(first))
    J += starts[jmu].take(first)
    K += starts[kmu].take(first)
    shape = owner.take(first)
    # take and einsum run faster than fancy indexing and a product's sum.
    s = bound.take(J, 0)
    np.minimum(s, bound.take(K, 0), out=s)
    s = np.einsum("cr,cr->c", s, mults.take(shape, 0))
    inside = bound.ravel().take(J[:, None] * rows.size + column.take(K, 0),
                                mode="clip") <= pv.take(K, 0)
    in_code = np.einsum("cw,cw->c", point_code.take(K, 0), inside)
    in_sf = np.einsum("cw,cw->c", pm.take(K, 0), inside)
    cw = block.weights.take(shape)
    ea, a_code = cw - s, code[K] - in_code
    low = (block.fiber + top).take(first) + w[J] + w[K] + s - cw - sf[J] - in_sf
    vars(block).update(top=top, radix=radix, values=values.tolist(), span=span, first=first,
                       ea=ea, a_code=a_code, low=low, l_code=code[J] + in_code)

    bad = (ea < sf[K] - in_sf).nonzero()[0]
    if bad.size:
        raise DegreeMismatch(f"alpha key {block.alpha(bad[0])} of"
                             f" ({block.where(first[bad[0]])}) is no polynomial")
    # Shifted up by top, not by its own |lambda|, no key reaches below q**-|lambda|.
    bad = (low < top - cw).nonzero()[0]
    if bad.size:
        raise _negative_power(block.where(first[bad[0]]), block.alpha(bad[0]))
    check_int64(owner.size * (top + 1) * span - 1, f"(I, alpha) keys of the cells of {name}")
    # A key's powers run from low to low + its factors' sum, at most 2 max(sf).
    block.size = int(low.max()) + 2 * int(sf.max(initial=0)) + 1
    check_int64(len(block.shapes) * block.size * span - 1,
                f"packed Laurent keys of the cells of {name}")
    return block


def _expansions(cells: _Block, lcodes: np.ndarray):
    """A lookup of the Laurent codes of lcodes' zero-padded rows prod(q**m - 1)."""
    distinct = np.sort(lcodes)  # a bare np.unique imports numpy.ma on first use
    distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    table = [_alpha_core(sum(f), f).coeffs for f in map(cells.factors, distinct.tolist())]
    check_int64(cells.first.size * max((abs(b) for cs in table for b in cs), default=0),
                f"N_alpha coefficients of the cells of {' '.join(map(str, cells.shapes))}")
    ex = np.zeros((len(table), max(map(len, table), default=0)), dtype=np.int64)
    for row, cs in zip(ex, table):
        row[:len(cs)] = cs
    return lambda codes: ex[np.searchsorted(distinct, codes)]


def _group_sums(cells: _Block, sel: np.ndarray, expand):
    """Sums the cells of sel per (I, alpha) group, column i standing for
    q**(i - top); a group with a power below q**0 raises _negative_power."""
    top, ex = cells.top, expand(cells.l_code[sel])
    groups, gid = np.unique((cells.first[sel] * (top + 1) + cells.ea[sel]) * cells.span +
                            cells.a_code[sel], return_inverse=True)
    # A cell adds its expansion from power low < top on, in one add.at.
    cols = top + ex.shape[1]
    acc = np.zeros((groups.size, cols), dtype=np.int64)
    np.add.at(acc.ravel(), ((gid * cols + cells.low[sel])[:, None] +
                            np.arange(ex.shape[1])).ravel(), ex.ravel())
    bad = sel[acc[:, :top].any(1)[gid]]
    if bad.size:
        raise _negative_power(cells.where(cells.first[bad[0]]), cells.alpha(bad[0]))


def _laurent_totals(cells: _Block) -> list[QPolynomial]:
    """n_lambda of each shape of the block, uncapped and checked monic of
    degree lambda_1; only cells reaching below q**0 need grouping."""
    top, shapes, size = cells.top, cells.shapes, cells.size  # column i is q**(i - top)
    keys, counts = np.unique((cells.owner.take(cells.first) * size + cells.low) * cells.span +
                             cells.l_code, return_counts=True)
    at, lcodes = np.divmod(keys, cells.span)
    expand = _expansions(cells, lcodes)
    below = (cells.low < top).nonzero()[0]
    if below.size:
        _group_sums(cells, below, expand)
    ex = expand(lcodes)
    acc = np.zeros((len(shapes) + 1) * size, dtype=np.int64)
    np.add.at(acc, (at[:, None] + np.arange(ex.shape[1])).ravel(), (counts[:, None] * ex).ravel())
    polys = [QPolynomial(row) for row in acc.reshape(-1, size)[:-1, top:].tolist()]
    for lam, poly in zip(shapes, polys):
        if lam and (not poly.is_monic() or poly.degree != lam.largest):
            raise DegreeMismatch(f"n_lambda({lam}) = {poly} fails monic/degree check")
    return polys


def _runs(items: Iterable, size, cap: int) -> Iterator[list]:
    """Consecutive runs of items, each one item or of sizes at most cap in all."""
    run, total = [], 0
    for item in items:
        if run and total + size(item) > cap:
            yield run
            run, total = [], 0
        run, total = run + [item], total + size(item)
    yield from filter(None, [run])


def n_lambdas(lams: Iterable[Partition],
              store: Optional[MutableMapping[Partition, QPolynomial]] = None) -> list[QPolynomial]:
    """n_lambda of each shape of lams; those missing from `store` are built
    in blocks of consecutive shapes whose |lattice(lambda)|**2 sum to at most
    _BLOCK_SQUARES, a shape past it being a block of its own.  A block past
    an int64 guard raises BudgetExceeded, as a single shape does."""
    store = _N_LAMBDA if store is None else store
    capped = [lam.cap(2) for lam in lams]
    entries = ((mu, lattice(mu).v, lattice(mu).k)
               for mu in dict.fromkeys(mu for mu in capped if mu not in store))
    for run in _runs(entries, lambda e: len(e[1]) ** 2, _BLOCK_SQUARES):
        # One expression, so that no block's cells outlive it.
        store.update(zip((mu for mu, _, _ in run), _laurent_totals(_cells(_Block(run)))))
    return [store[mu] for mu in capped]


def n_lambda(lam: Partition,
             store: Optional[MutableMapping[Partition, QPolynomial]] = None) -> QPolynomial:
    """Number of automorphism orbits of pairs in the module of shape lambda,
    monic of degree lambda_1; multiplicities are capped at 2, as the count is
    invariant under the cap.  Memoized in `store` (module-level by default)."""
    return n_lambdas([lam], store)[0]
