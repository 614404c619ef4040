"""Exact counting of automorphism orbits of pairs in finite modules over
discrete valuation rings, with a brute-force ground-truth oracle."""

from .posets import OrderIdeal, Partition, Point, partitions_of
from .qpoly import QPolynomial
from .orbits import n_lambda, orbit_size
from .refined import (orbit_census, per_ideal_total, refined_census, refined_matrix,
                      refined_total)
from .quiver import genfunc_check, r_n1
from .oracle import verify

__all__ = [
    "OrderIdeal", "Partition", "Point", "QPolynomial",
    "partitions_of", "n_lambda", "orbit_census", "orbit_size",
    "per_ideal_total", "refined_census", "refined_matrix", "refined_total",
    "genfunc_check", "r_n1", "verify",
]
