"""Cell counts one (J, K) at a time, for the tests' cell-by-cell reference
censuses; the package sums these cells as Laurent keys in one batch."""

from operator import ge

from orbitpairs.orbits import canonical_split, orbit_size
from orbitpairs.posets import OrderIdeal, Partition, mobius_terms, require_context
from orbitpairs.qpoly import QPolynomial, ZERO, monomial
from orbitpairs.refined import exact_fiber_count


def mobius_on(X: OrderIdeal, rows: tuple[int, ...]) -> list:
    """mobius_terms of X, as boundary tuples on rows, which hold X's points."""
    return mobius_terms(tuple(X.boundary(k) for k in rows),
                        tuple(rows.index(k) for _, k in X.max_points))


def x_count(lam: Partition, I: OrderIdeal, J: OrderIdeal, K: OrderIdeal) -> QPolynomial:
    """Number of second elements with invariants exactly (J, K)."""
    sp = canonical_split(lam, I)
    return monomial(sp.fiber) * orbit_size(sp.quotient, J) * orbit_size(sp.lambda_dprime, K)


def x_in_submodule(lam: Partition, I: OrderIdeal, J: OrderIdeal, K: OrderIdeal,
                   L: OrderIdeal) -> QPolynomial:
    """Number of second elements with invariants (J, K) lying exactly in the
    orbit of L: the fibers over the submodules L' containing K, Moebius
    inverted over the source lattice, times K's orbit size."""
    require_context(lam, L)
    split = canonical_split(lam, I)
    rows = lam.rows
    terms = [(Lp, mu) for Lp, mu in mobius_on(L, rows)
             if all(map(ge, map(K.boundary, rows), Lp))]
    fibers = exact_fiber_count(split.prime_parts,
                               [tuple(Lp[rows.index(k)] for _, k in split.prime_parts)
                                for Lp, _ in terms],
                               mobius_on(J, split.quotient_rows))
    total = sum((mu * QPolynomial(f) for (_, mu), f in zip(terms, fibers)), ZERO)
    return total * orbit_size(split.lambda_dprime, K)
