"""Counts of orbits of pairs restricted to a pair of element orbits.

The fiber count over the distinguished part is a closed form: the elements
whose coordinate i has valuation at least a_i and whose quotient image lies
in the ideal with boundaries b_i solve R-linear conditions (v(x_i) >= a_i,
and x_i = pi**(v_i - v_{i+1}) x_{i+1} mod P**b_i with x_n = 0), so they form
a submodule, which has q**l elements (coset_count gives l by a recurrence
down the prime parts).  The kernel reads the submodule L and the quotient
ideal J only through their boundaries on the coordinates' rows, so it runs
once per (prime parts, a, b) key in a process.
Two Moebius inversions (one on the quotient context, one on the source
lattice) then sharpen "at least" constraints to "exactly"; each sums only
over the nonzero closed-form Moebius terms of its lattice, boundary tuples
from posets.mobius_terms, listed once per (mu, ideal).

The census engine, _grid, takes first ideals I and, per I, its own columns,
each a signed list of second-element submodules L' given by their
boundaries on lambda's rows, and computes per (I, J) the fibers over the L'
that I's columns read, once each, and per (I, column) the cells (J, K) of
the census grid.  A cell, divided by alpha, is its fiber times the Laurent
key orbit_size(K)/alpha, whose factors are the m'' of K's points inside J;
summed per alpha key, these give N_alpha with no division.
refined_censuses passes every I the column of Moebius terms of every second
ideal L; orbit_census passes the whole module, whose cells are orbits', so
that its rows are the census of I.  refined_matrix passes each I only the
columns of the L at or after it in lattice order and mirrors the rest, as
swapping a pair's members makes the totals, though not the censuses,
symmetric (oracle.verify checks that on the full grid).  The guards
are orbits': the split and lattice(mu) check that the cells partition the
module, alpha expands as a polynomial or raises NegativeExponent, and a
Laurent key below its factors' sum or a negative power left in N_alpha
raises.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, ge, sub
from typing import Dict, Iterable, Sequence

from .orbits import _alpha_core, _negative_power, canonical_split
from .posets import (OrderIdeal, Partition, Point, boundary, check_int64, lattice,
                     mobius_terms, require_context)
from .qpoly import QPolynomial, ZERO


@lru_cache(maxsize=None)
def coset_count(pts: tuple[Point, ...], a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """The exponent l of the q**l elements of the distinguished part with
    prime parts pts whose coordinate i has valuation at least a[i] (the
    submodule L, a[i] being L's boundary on row k_i) and whose image in the
    quotient has coordinate i of valuation at least b[i] (J's boundary on the
    split's quotient_rows[i], below k_i).

    These elements solve v(x_i) >= a_i and x_i = pi**d_i x_{i+1} mod P**b_i,
    with d_i = v_i - v_{i+1} and x_n = 0, so they form a submodule.  Walking
    down the prime parts with a bound A (at most k_i) on v(x_i) passed from
    above, 0 at the top: the x_i with v(x_i) >= A_i = max(A, a_i) and the
    congruence form a coset of P**max(A_i, b_i), and one exists iff
    v(pi**d_i x_{i+1}) >= min(A_i, b_i).  So x_i adds k_i - max(A_i, b_i) to
    l and passes A = min(A_i, b_i) - d_i on to x_{i+1}."""
    ell, A = 0, 0
    for (v, k), ai, bi, (v_next, _) in zip(pts, a, b, pts[1:] + pts[-1:]):
        A = max(A, ai)
        ell += k - max(A, bi)
        A = min(A, bi) - (v - v_next)
    return ell


def _mul_into(acc: list, x: Sequence[int], y: Sequence[int], shift: int):
    """Add x * y, shifted up by shift powers, into the coefficient list acc."""
    for i, xi in enumerate(x, shift):
        if xi:
            for t, yj in enumerate(y, i):
                acc[t] += xi * yj


def _table(lam: Partition, mu: Partition) -> list:
    """Per ideal X of lattice(mu), in lattice order, its arrays: X's
    boundaries on lambda's rows scaled by lambda's multiplicities, its
    weighted size, its maximal points as sorted (m_k in mu, row index in
    lambda, m_k in lambda * v), (-1, 0) on a row outside lambda's, which only
    an unread quotient point has, and its boundaries on mu's rows with the
    indices of its points' rows there."""
    mult, row = dict(lam.pairs), {k: i for i, k in enumerate(lam.rows)}
    arrays = lattice(mu)
    table = []
    for vs, ks, ms, w in zip(arrays.v.tolist(), arrays.k.tolist(), arrays.m.tolist(),
                             arrays.w.tolist()):
        pts = [(v, k) for v, k in zip(vs, ks) if k]
        table.append((tuple(m * boundary(pts, k) for k, m in lam.pairs), w,
                       sorted((m, row.get(k, -1), mult.get(k, 0) * v)
                              for (v, k), m in zip(pts, ms)),
                       tuple(boundary(pts, k) for k in mu.rows),
                       tuple(mu.rows.index(k) for _, k in pts)))
    return table


def exact_fiber_count(pts: tuple[Point, ...], As: Sequence[tuple[int, ...]],
                      terms: Sequence[tuple[tuple[int, ...], int]]) -> list[list[int]]:
    """Per a in As, the elements of the distinguished part with prime parts
    pts whose coordinate i has valuation at least a[i] (a submodule's
    boundary on row k_i) and whose quotient image has invariant exactly J,
    as coefficients of q**0 .. q**(sum of k_i): the monomials q**coset_count
    Moebius-inverted over J's terms (boundaries on the split's
    quotient_rows, mu)."""
    fibers = []
    for a in As:
        acc = [0] * (sum(p.k for p in pts) + 1)
        for b, mu in terms:
            acc[coset_count(pts, a, b)] += mu
        fibers.append(acc)
    return fibers


def _grid(lam: Partition, Is: Sequence[OrderIdeal],
          columns: Iterable[Sequence[Sequence[tuple[tuple[int, ...], int]]]]
          ) -> list[list[Dict[QPolynomial, QPolynomial]]]:
    """Per I in Is and each of I's own columns (columns holds one list per I),
    map cardinality -> number of orbits of pairs with first member in the
    orbit of I and second member in the column's signed sum of L', in order
    of first nonzero cell, J outer and K inner.  A row computes fibers only
    for the L' its columns read; rows that share one list of columns share
    its index too.  Cell (J, K) sums +-fiber over the column's L' that
    contain K.  With s = sum(map(min, bJ, bK)), it has alpha key (|lambda| -
    s, m'' of K's points outside J) and Laurent key (wK + s - |lambda|, m''
    of K's points inside J), kept with its exponent shifted up by |lambda|."""
    splits = [canonical_split(lam, I) for I in Is]
    weight, row = lam.weight, {k: i for i, k in enumerate(lam.rows)}
    tables = {mu: _table(lam, mu) for mu in dict.fromkeys(
        mu for sp in splits for mu in (sp.quotient, sp.lambda_dprime))}
    jterms = {mu: [mobius_terms(bq, tops) for _, _, _, bq, tops in tables[mu]]
              for mu in dict.fromkeys(sp.quotient for sp in splits)}
    matrix, read = [], None
    for I, split, own in zip(Is, splits, columns):
        if own is not read:
            read, Lps = own, list(dict.fromkeys(Lp for column in own for Lp, _ in column))
            col = {Lp: i for i, Lp in enumerate(Lps)}
            cols = [[(col[Lp], mu) for Lp, mu in column] for column in own]
            # K lies inside L' iff its boundaries are at least L''s on every row.
            bLs = [tuple(m * b for b, (_, m) in zip(Lp, lam.pairs)) for Lp in Lps]
        As = [tuple(Lp[row[k]] for _, k in split.prime_parts) for Lp in Lps]
        # The quotient rows are falling, so only the last can be 0, whose
        # boundary is 0.
        pad = (0,) if split.quotient_rows[-1:] == (0,) else ()
        ks = tables[split.lambda_dprime]
        rows = []
        for (bJ, _, _, _, _), ts in zip(tables[split.quotient], jterms[split.quotient]):
            keys = []
            for bK, wK, pK, _, _ in ks:
                s = sum(map(min, bJ, bK))
                out, ins = [], []
                for m, i, v in pK:
                    (out if bJ[i] > v else ins).append(m)
                keys.append(((weight - s, tuple(out)), (wK + s, tuple(ins))))
            rows.append((exact_fiber_count(split.prime_parts, As,
                                           [(b + pad, mu) for b, mu in ts]), keys))
        censuses = []
        for cs in cols:
            inside = [tuple(t for t, (c, _) in enumerate(cs) if all(map(ge, bK, bLs[c])))
                      for bK, _, _, _, _ in ks]
            groups: Dict[tuple, dict] = {}
            for fibers, keys in rows:
                signed = [(fibers[c], mu) for c, mu in cs]
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
        matrix.append(censuses)
    return matrix


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
            raise _negative_power(f"{lam}; {I}", akey)
        _mul_into(acc, cell, _alpha_core(sf, f).coeffs, e - sf)
    if any(acc[:weight]):
        raise _negative_power(f"{lam}; {I}", akey)
    return acc[weight:]


def _columns(lam: Partition, Ls: Sequence[OrderIdeal]) -> list:
    """Per L in Ls, its column: L's Moebius terms, which sharpen "in L'" to
    "in the orbit of L"."""
    row = {k: i for i, k in enumerate(lam.rows)}
    columns = []
    for L in Ls:
        require_context(lam, L)
        columns.append(mobius_terms(tuple(L.boundary(k) for k in lam.rows),
                                    tuple(row[k] for _, k in L.max_points)))
    return columns


def refined_censuses(lam: Partition, Is: Sequence[OrderIdeal], Ls: Sequence[OrderIdeal]
                     ) -> list[list[Dict[QPolynomial, QPolynomial]]]:
    """Per I in Is and L in Ls, the census of orbit(I) x orbit(L): the grid
    with every I reading the columns of every L."""
    columns = _columns(lam, Ls)
    return _grid(lam, Is, [columns] * len(Is))


def orbit_census(lam: Partition, I: OrderIdeal) -> Dict[QPolynomial, QPolynomial]:
    """Map from orbit cardinality to number of stabilizer orbits of that
    cardinality, in order of first appearance over the grid, as the whole
    module's cells are all nonzero.  Grouping by alpha key is grouping by
    alpha, as q**(e - sum m) * prod(q**m - 1) factors uniquely into
    cyclotomics."""
    require_context(lam, I)
    # No point, part or multiplicity of lambda exceeds |lambda|.
    check_int64(lam.weight, f"ideal weights of the cells of {lam}")
    return _grid(lam, [I], [[[((0,) * len(lam.rows), 1)]]])[0][0]


def _total(census: Dict[QPolynomial, QPolynomial]) -> QPolynomial:
    return sum(census.values(), ZERO)


def per_ideal_total(lam: Partition, I: OrderIdeal) -> QPolynomial:
    """Number of orbits of pairs whose first member has invariant I."""
    return _total(orbit_census(lam, I))


def refined_census(lam: Partition, I: OrderIdeal,
                   L: OrderIdeal) -> Dict[QPolynomial, QPolynomial]:
    """The census of orbit(I) x orbit(L): refined_censuses of I and L alone."""
    return refined_censuses(lam, [I], [L])[0][0]


def refined_total(lam: Partition, I: OrderIdeal, L: OrderIdeal) -> QPolynomial:
    """Number of orbits of pairs in orbit(I) x orbit(L)."""
    return _total(refined_census(lam, I, L))


def refined_matrix(lam: Partition) -> Dict[tuple[OrderIdeal, OrderIdeal], QPolynomial]:
    """Totals for every ordered pair of element orbits, from one grid in
    which each first ideal I reads only the columns of the L at or after it
    in lattice order; (L, I) is mirrored from (I, L), as swapping a pair's
    two members commutes with the diagonal action, so it maps the pair
    orbits over orbit(I) x orbit(L) one to one onto those over orbit(L) x
    orbit(I)."""
    ideals = lattice(lam).ideals
    columns = _columns(lam, ideals)
    upper = _grid(lam, ideals, (columns[i:] for i in range(len(ideals))))
    totals = {(i, j): _total(census) for i, row in enumerate(upper)
              for j, census in enumerate(row, i)}
    return {(I, L): totals[min(i, j), max(i, j)]
            for i, I in enumerate(ideals) for j, L in enumerate(ideals)}
