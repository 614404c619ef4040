"""Counts of orbits of pairs restricted to a pair of element orbits.

The fiber count over the distinguished part is mechanized as a dynamic
program over the exact valuation class of each coordinate: every coordinate
contributes the solutions of one coset condition (v(x) >= a and
v(x - y) >= b with v(y) known), whose valuation distribution depends only
on (k, a, b, v(y)).  Two Moebius inversions (one on the quotient context,
one on the source lattice) then sharpen "at least" constraints to "exactly";
each sums only over the nonzero closed-form Moebius terms of its lattice
(IdealLattice.mobius_terms), so no count is computed for a term with mu = 0.

refined_censuses computes one row, a first ideal I with a sequence of second
ideals L: the key tables (orbits.key_table, one per side of the grid) and
the fibers over every L' among the row's Moebius terms are built once, the
fibers once per J; each L then walks the census grid on them, with nonzero
cells grouped by alpha key and divided exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence

from .orbits import CanonicalSplit, _alpha_core, canonical_split, key_table, orbit_size
from .posets import OrderIdeal, Partition, lattice
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


def s_count(split: CanonicalSplit, L: OrderIdeal, J: OrderIdeal) -> QPolynomial:
    """Number of elements of the distinguished part that lie in the
    submodule cut out by L and whose image in the quotient lies in the
    submodule cut out by J; the callers' mobius_terms check L and J."""
    pts = split.prime_parts
    s = len(pts)
    if s == 0:
        return ONE
    # Bottom coordinate: both constraints are plain valuation bounds.
    v_s, k_s = pts[-1].v, pts[-1].k
    state = list(coset_count(k_s, L.boundary(k_s), J.boundary(v_s), None))
    for i in range(s - 2, -1, -1):
        v_i, k_i = pts[i].v, pts[i].k
        v_n, k_n = pts[i + 1].v, pts[i + 1].k
        mu = v_i + k_n - v_n
        a = L.boundary(k_i)
        b = J.boundary(mu)
        new_state = [ZERO] * (k_i + 1)
        for w_next, c in enumerate(state):
            if not c:
                continue
            vy = None if w_next == k_n else w_next + v_i - v_n
            for w, cnt in enumerate(coset_count(k_i, a, b, vy)):
                if cnt:
                    new_state[w] = new_state[w] + c * cnt
        state = new_state
    total = ZERO
    for c in state:
        total = total + c
    return total


def exact_fiber_count(split: CanonicalSplit, Ls: Sequence[OrderIdeal],
                      J: OrderIdeal) -> list[QPolynomial]:
    """Per L in Ls, the elements of the distinguished part in L's submodule whose
    quotient image has invariant exactly J: s_count Moebius-inverted over the
    quotient lattice, with J's terms computed once for all of Ls."""
    terms = list(lattice(split.quotient).mobius_terms(J))
    return [sum((mu * s_count(split, L, Jp) for Jp, mu in terms), ZERO) for L in Ls]


def refined_censuses(lam: Partition, I: OrderIdeal,
                     Ls: Sequence[OrderIdeal]) -> list[Dict[QPolynomial, QPolynomial]]:
    """Per L in Ls, map cardinality -> number of orbits of pairs with first
    member in the orbit of I and second member in the orbit of L.  The tables
    are built once, and per J the fibers over every L' among the Ls' Moebius
    terms; cell (J, K) of L sums mu * fiber over L's terms whose L' contains
    K, times K's orbit size, into its alpha key's group."""
    split = canonical_split(lam, I)
    terms = [list(lattice(lam).mobius_terms(L)) for L in Ls]
    Lps = list(dict.fromkeys(Lp for ts in terms for Lp, _ in ts))
    col = {Lp: i for i, Lp in enumerate(Lps)}
    js = key_table(lam, split.quotient, False)
    ks = key_table(lam, split.lambda_dprime, True)
    # Alpha key of cell (J, K), as in orbits.census_groups.
    rows = [(exact_fiber_count(split, Lps, J),
             [(lam.weight - sum(map(min, bJ, bK)), tuple([m for m, i, v in pK if bJ[i] > v]))
              for bK, _, _, pK in ks])
            for J, (bJ, _, _, _) in zip(lattice(split.quotient).ideals, js)]
    censuses = []
    for ts in terms:
        inside = [[t for t, (Lp, _) in enumerate(ts) if K.is_subset_of(Lp)]
                  for K in lattice(split.lambda_dprime).ideals]
        groups: Dict[tuple, QPolynomial] = {}
        for row, akeys in rows:
            fibers = [mu * row[col[Lp]] for Lp, mu in ts]
            for akey, (_, wK, fK, _), its in zip(akeys, ks, inside):
                cell = sum((fibers[t] for t in its), ZERO)
                if cell:
                    groups[akey] = groups.get(akey, ZERO) + cell * _alpha_core(wK, fK)
        censuses.append({(a := _alpha_core(*key)): total.exact_div(a)
                         for key, total in groups.items()})
    return censuses


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
    row per first ideal I, over every L."""
    ideals = lattice(lam).ideals
    return {(I, L): _total(census) for I in ideals
            for L, census in zip(ideals, refined_censuses(lam, I, ideals))}


def x_in_submodule(lam: Partition, I: OrderIdeal, J: OrderIdeal, K: OrderIdeal,
                   L: OrderIdeal) -> QPolynomial:
    """Number of second elements with invariants (J, K) lying exactly in the
    orbit of L: the fibers over the submodules L' containing K, Moebius
    inverted over the source lattice, times K's orbit size."""
    split = canonical_split(lam, I)
    terms = [(Lp, mu) for Lp, mu in lattice(lam).mobius_terms(L) if K.is_subset_of(Lp)]
    fibers = exact_fiber_count(split, [Lp for Lp, _ in terms], J)
    total = sum((mu * f for (_, mu), f in zip(terms, fibers)), ZERO)
    return total * orbit_size(split.lambda_dprime, K)
