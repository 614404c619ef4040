"""Cell counts one (J, K) at a time, for the tests' cell-by-cell reference
censuses; the package sums these cells as Laurent keys in one batch."""

from orbitpairs.orbits import canonical_split, orbit_size
from orbitpairs.posets import OrderIdeal, Partition, lattice
from orbitpairs.qpoly import QPolynomial, ZERO, monomial
from orbitpairs.refined import exact_fiber_count


def x_count(lam: Partition, I: OrderIdeal, J: OrderIdeal, K: OrderIdeal) -> QPolynomial:
    """Number of second elements with invariants exactly (J, K)."""
    sp = canonical_split(lam, I)
    return monomial(sp.fiber) * orbit_size(sp.quotient, J) * orbit_size(sp.lambda_dprime, K)


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
