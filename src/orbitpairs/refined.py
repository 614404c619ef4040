"""Counts of orbits of pairs restricted to a pair of element orbits.

The fiber count over the distinguished part is mechanized as a dynamic
program over the exact valuation class of each coordinate: every coordinate
contributes the solutions of one coset condition (v(x) >= a and
v(x - y) >= b with v(y) known), whose valuation distribution depends only
on (k, a, b, v(y)).  The program (s_count) reads the submodule L and the
quotient ideal J only through their boundaries on the coordinates' rows, so
it runs once per (prime parts, a, b) key in a process, on integer
coefficient lists.
Two Moebius inversions (one on the quotient context, one on the source
lattice) then sharpen "at least" constraints to "exactly"; each sums only
over the nonzero closed-form Moebius terms of its lattice
(IdealLattice.mobius_terms), listed once per (mu, ideal).

refined_censuses computes one row, a first ideal I with a sequence of second
ideals L, on the census grid of orbits.census_groups: per J the fibers over
every L' among the row's Moebius terms, and per L the cells (J, K).  A cell
counts the elements of L's orbit with invariants (J, K); divided by alpha it
is the cell's fiber times the Laurent key orbit_size(K)/alpha, whose
factors are the m'' of K's points inside J.  These products are summed per
alpha key into N_alpha, with no division, and a negative power left in
N_alpha means alpha does not divide its group total.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, ge, sub
from typing import Dict, Optional, Sequence

from .orbits import (CanonicalSplit, _alpha_core, _negative_power, _table, canonical_split,
                     orbit_size)
from .posets import OrderIdeal, Partition, Point, lattice
from .qpoly import ONE, QPolynomial, ZERO, monomial


@lru_cache(maxsize=None)
def coset_count(k: int, a: int, b: int, vy: Optional[int]) -> tuple[QPolynomial, ...]:
    """Valuation distribution of {x in R/P^k : v(x) >= a, v(x - y) >= b}
    when v(y) = vy (vy=None encodes y = 0, i.e. valuation infinity): the
    number of solutions per exact valuation w in 0..k (w = k is zero)."""
    a = max(0, min(a, k))
    b = max(0, min(b, k))
    counts = [ZERO] * (k + 1)
    if vy is None or vy >= b:
        lvl = max(a, b)
        for w in range(lvl, k):
            counts[w] = monomial(k - w) - monomial(k - w - 1)
        counts[k] = ONE
    elif vy >= a:
        # v(x - y) >= b > vy forces v(x) = vy exactly; solutions form a
        # coset of P^b.
        counts[vy] = monomial(k - b)
    return tuple(counts)


def _mul_into(acc: list, x: Sequence[int], y: Sequence[int], shift: int = 0):
    """Add x * y, shifted up by shift powers, into the coefficient list acc."""
    for i, xi in enumerate(x, shift):
        if xi:
            for t, yj in enumerate(y, i):
                acc[t] += xi * yj


def s_count(pts: tuple[Point, ...], a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Number of elements of the distinguished part with prime parts pts whose
    coordinate i has valuation at least a[i] (the submodule L, a[i] being
    L's boundary on row k_i) and whose image in the quotient has coordinate i
    of valuation at least b[i] (J's boundary on the split's quotient_rows[i]).
    Coefficients of q**0 .. q**(sum of k_i), untrimmed.  The count reads the
    v's only through their differences."""
    if not pts:
        return (1,)
    size = sum(p.k for p in pts) + 1
    # Bottom coordinate: both constraints are plain valuation bounds.  An
    # entry of state after coordinate i has degree at most the sum of k_j
    # over j >= i, below size.
    state = [c.coeffs for c in coset_count(pts[-1].k, a[-1], b[-1], None)]
    for i in range(len(pts) - 2, -1, -1):
        (v_i, k_i), (v_n, k_n) = pts[i], pts[i + 1]
        new_state: list = [None] * (k_i + 1)
        for w_next, c in enumerate(state):
            if not c:
                continue
            vy = None if w_next == k_n else w_next + v_i - v_n
            for w, cnt in enumerate(coset_count(k_i, a[i], b[i], vy)):
                if cnt:
                    if new_state[w] is None:
                        new_state[w] = [0] * size
                    _mul_into(new_state[w], c, cnt.coeffs)
        state = new_state
    total = [0] * size
    for c in state:
        if c:
            total[:len(c)] = map(add, total, c)
    return tuple(total)


# s_count's values under their (pts, a, b) keys, the v's of pts shifted down
# to a last v of 0: kept for the process, so that shapes sharing prime parts
# share them.
_S_COUNTS: Dict[tuple, tuple[int, ...]] = {}


def _mobius_terms(memo: dict, mu: Partition, X: OrderIdeal) -> list:
    """lattice(mu).mobius_terms(X), listed once per (mu, X) in memo."""
    terms = memo.get((mu, X))
    if terms is None:
        terms = memo[mu, X] = list(lattice(mu).mobius_terms(X))
    return terms


def exact_fiber_count(split: CanonicalSplit, Ls: Sequence[OrderIdeal], J: OrderIdeal,
                      memo: Optional[dict] = None) -> list[list[int]]:
    """Per L in Ls, the elements of the distinguished part in L's submodule whose
    quotient image has invariant exactly J, as coefficients of q**0 .. q**(sum
    of k_i): s_count Moebius-inverted over the quotient lattice, its values
    looked up in _S_COUNTS.  memo holds the Moebius terms; pass one dict to
    share them between calls."""
    memo = {} if memo is None else memo
    rows = split.quotient_rows
    low = split.prime_parts[-1].v if split.prime_parts else 0
    pts = tuple(Point(v - low, k) for v, k in split.prime_parts)
    terms = [(mu, tuple(Jp.boundary(r) for r in rows))
             for Jp, mu in _mobius_terms(memo, split.quotient, J)]
    fibers = []
    for L in Ls:
        a = tuple(L.boundary(p.k) for p in pts)
        acc = [0] * (sum(p.k for p in pts) + 1)
        for mu, b in terms:
            s = _S_COUNTS.get((pts, a, b))
            if s is None:
                s = _S_COUNTS[pts, a, b] = s_count(pts, a, b)
            acc = list(map(add if mu > 0 else sub, acc, s))
        fibers.append(acc)
    return fibers


def refined_censuses(lam: Partition, I: OrderIdeal, Ls: Sequence[OrderIdeal],
                     memo: Optional[dict] = None) -> list[Dict[QPolynomial, QPolynomial]]:
    """Per L in Ls, map cardinality -> number of orbits of pairs with first
    member in the orbit of I and second member in the orbit of L, with the
    alpha rows in order of first nonzero cell, J outer and K inner.

    Per J, the fibers over every L' among the Ls' Moebius terms are computed
    once; cell (J, K) of L sums mu * fiber over L's terms whose L' contains
    K.  As in orbits.census_groups, with s = sum(map(min, bJ, bK)), the cell
    has alpha key (|lambda| - s, m'' of K's points outside J) and Laurent key
    orbit_size(K)/alpha = (wK + s - |lambda|, m'' of K's points inside J),
    kept with its exponent shifted up by |lambda|.  memo holds the key tables
    (orbits._table) and the Moebius terms; pass one dict to share them
    between the rows of one lambda."""
    memo = {} if memo is None else memo
    split = canonical_split(lam, I)
    weight = lam.weight
    terms = [_mobius_terms(memo, lam, L) for L in Ls]
    Lps = list(dict.fromkeys(Lp for ts in terms for Lp, _ in ts))
    col = {Lp: i for i, Lp in enumerate(Lps)}
    js = _table(memo, lam, split.quotient, False)
    ks = _table(memo, lam, split.lambda_dprime, True)
    rows = []
    for J, (bJ, _, _, _) in zip(lattice(split.quotient).ideals, js):
        keys = []
        for bK, wK, _, pK in ks:
            s = sum(map(min, bJ, bK))
            out, ins = [], []
            for m, i, v in pK:
                (out if bJ[i] > v else ins).append(m)
            keys.append(((weight - s, tuple(out)), (wK + s, tuple(ins))))
        rows.append((exact_fiber_count(split, Lps, J, memo), keys))
    # K lies inside L' iff its boundaries are at least L''s on every row.
    bLs = [tuple(m * Lp.boundary(k) for k, m in lam.pairs) for Lp in Lps]
    censuses = []
    for ts in terms:
        cols = [(col[Lp], mu) for Lp, mu in ts]
        inside = [tuple(t for t, (c, _) in enumerate(cols) if all(map(ge, bK, bLs[c])))
                  for bK, _, _, _ in ks]
        groups: Dict[tuple, dict] = {}
        for fibers, keys in rows:
            signed = [(fibers[c], mu) for c, mu in cols]
            cells: dict = {}
            for (akey, lkey), its in zip(keys, inside):
                cell = cells.get(its)
                if cell is None:
                    cell = [0] * len(signed[0][0])
                    for t in its:
                        fiber, mu = signed[t]
                        cell = list(map(add if mu > 0 else sub, cell, fiber))
                    cell = cells[its] = cell if any(cell) else ()
                if cell:
                    group = groups.setdefault(akey, {})
                    prev = group.get(lkey)
                    group[lkey] = cell if prev is None else list(map(add, prev, cell))
        censuses.append({_alpha_core(*akey): QPolynomial(_laurent_sum(lam, I, akey, group))
                         for akey, group in groups.items()})
    return censuses


def _laurent_sum(lam: Partition, I: OrderIdeal, akey: tuple, group: dict) -> list[int]:
    """N_alpha from its group {Laurent key: summed cell}: each cell times its
    key's expansion prod(q**m - 1), placed at the key's power.  Coefficient i
    of acc stands for q**(i - |lambda|); a cell has degree at most |lambda| -
    |lambda''| and a key's shifted exponent is at most |lambda''| + |lambda|."""
    weight = lam.weight
    acc = [0] * (2 * weight + 1)
    for (e, f), cell in group.items():
        sf = sum(f)
        if e < sf:
            raise _negative_power(lam, I, akey)
        _mul_into(acc, cell, _alpha_core(sf, f).coeffs, e - sf)
    if any(acc[:weight]):
        raise _negative_power(lam, I, akey)
    return acc[weight:]


def refined_census(lam: Partition, I: OrderIdeal,
                   L: OrderIdeal) -> Dict[QPolynomial, QPolynomial]:
    """The census of orbit(I) x orbit(L): the row of refined_censuses that
    holds L alone."""
    return refined_censuses(lam, I, [L])[0]


def _total(census: Dict[QPolynomial, QPolynomial]) -> QPolynomial:
    return sum(census.values(), ZERO)


def refined_total(lam: Partition, I: OrderIdeal, L: OrderIdeal) -> QPolynomial:
    """Number of orbits of pairs in orbit(I) x orbit(L)."""
    return _total(refined_census(lam, I, L))


def refined_matrix(lam: Partition) -> Dict[tuple[OrderIdeal, OrderIdeal], QPolynomial]:
    """Totals for every ordered pair of element orbits: one refined_censuses
    row per first ideal I, over every L, all rows sharing one memo."""
    ideals = lattice(lam).ideals
    memo: dict = {}
    return {(I, L): _total(census) for I in ideals
            for L, census in zip(ideals, refined_censuses(lam, I, ideals, memo))}


def x_in_submodule(lam: Partition, I: OrderIdeal, J: OrderIdeal, K: OrderIdeal,
                   L: OrderIdeal) -> QPolynomial:
    """Number of second elements with invariants (J, K) lying exactly in the
    orbit of L: the fibers over the submodules L' containing K, Moebius
    inverted over the source lattice, times K's orbit size."""
    split = canonical_split(lam, I)
    terms = [(Lp, mu) for Lp, mu in lattice(lam).mobius_terms(L) if K.is_subset_of(Lp)]
    fibers = exact_fiber_count(split, [Lp for Lp, _ in terms], J)
    total = sum((mu * QPolynomial(f) for (_, mu), f in zip(terms, fibers)), ZERO)
    return total * orbit_size(split.lambda_dprime, K)
