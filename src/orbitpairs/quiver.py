"""Isomorphism classes of quiver representations with dimension vector (n, 1).

A similarity-class type is a multiset of (partition, degree) pairs; summing
the per-type class counts times the per-class orbit counts over all types of
weight n yields the representation count R_{n,1}(q).  A truncated product
expansion of the generating function provides an internal cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Iterable

from .errors import NonIntegerResult
from .orbits import n_lambda
from .posets import Partition, partitions_of
from .qpoly import ONE, Q, QPolynomial, ZERO


@dataclass(frozen=True)
class MatrixType:
    """A similarity-class type: multiset of (partition, degree) pairs, stored
    as sorted ((partition, degree), multiplicity) entries."""

    entries: tuple[tuple[tuple[Partition, int], int], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Partition, int]]) -> "MatrixType":
        counts: Dict[tuple[Partition, int], int] = {}
        for lam, d in pairs:
            counts[(lam, d)] = counts.get((lam, d), 0) + 1
        order = sorted(counts.items(),
                       key=lambda e: (e[0][1], e[0][0].expand()))
        return cls(tuple(order))

    @property
    def weight(self) -> int:
        return sum(a * d * lam.weight for (lam, d), a in self.entries)

    def degree_multiplicity(self, d: int) -> int:
        """Number of pairs of degree d, counted with multiplicity."""
        return sum(a for (_, dd), a in self.entries if dd == d)

    def __str__(self):
        return " ".join(f"(({lam}),{d})^{a}" if a > 1 else f"(({lam}),{d})"
                        for (lam, d), a in self.entries)


def enumerate_types(n: int) -> list[MatrixType]:
    """All types of weight n."""
    if n < 1:
        raise ValueError("n must be positive")
    candidates = [(lam, d, d * lam.weight)
                  for d in range(1, n + 1)
                  for m in range(1, n // d + 1)
                  for lam in partitions_of(m)]
    out: list[MatrixType] = []

    def rec(i: int, remaining: int, acc: list):
        if remaining == 0:
            out.append(MatrixType.from_pairs(acc))
            return
        if i == len(candidates):
            return
        lam, d, w = candidates[i]
        rec(i + 1, remaining, acc)
        for count in range(1, remaining // w + 1):
            acc.extend([(lam, d)] * count)
            rec(i + 1, remaining - count * w, acc)
            del acc[len(acc) - count:]

    rec(0, n, [])
    out.sort(key=lambda t: str(t))
    return out


def _moebius_int(n: int) -> int:
    """Classical Moebius function by trial division (n stays tiny here)."""
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def phi_d(d: int) -> QPolynomial:
    """Number of monic irreducible degree-d polynomials over a field of
    size q (necklace polynomial, rational coefficients)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    total = ZERO
    for e in range(1, d + 1):
        if d % e == 0:
            total = total + _moebius_int(d // e) * Q ** e
    return total * Fraction(1, d)


def c_tau(tau: MatrixType) -> QPolynomial:
    """Number of similarity classes of the given type."""
    prod = ONE
    for d in sorted({dd for (_, dd), _ in tau.entries}):
        phi = phi_d(d)
        for j in range(tau.degree_multiplicity(d)):
            prod = prod * (phi - j)
    denom = 1
    for _, a in tau.entries:
        denom *= factorial(a)
    return prod * Fraction(1, denom)


def n_tau(tau: MatrixType) -> QPolynomial:
    """Orbit count of pairs for a matrix of the given type: product of the
    per-partition counts evaluated at q**d."""
    prod = ONE
    for (lam, d), a in tau.entries:
        prod = prod * n_lambda(lam).compose_power(d) ** a
    return prod


def r_n1(n: int) -> QPolynomial:
    """Number of isomorphism classes of representations with dimension
    vector (n, 1); must come out with non-negative integer coefficients."""
    total = ZERO
    for tau in enumerate_types(n):
        total = total + c_tau(tau) * n_tau(tau)
    if not total.is_integer_coefficients():
        raise NonIntegerResult(f"R_{n},1 = {total}")
    return total


def _binom_poly(phi: QPolynomial, j: int) -> QPolynomial:
    """Generalized binomial coefficient with a polynomial top argument."""
    prod = ONE
    for t in range(j):
        prod = prod * (phi - t)
    return prod * Fraction(1, factorial(j))


def _series_mul(a: list, b: list, n_max: int) -> list:
    out = [ZERO] * (n_max + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > n_max:
                break
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def genfunc_check(n_max: int) -> bool:
    """Expand the product formula for the generating function up to x**n_max
    and compare coefficients with the direct type sums."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    series = [ONE] + [ZERO] * n_max
    for d in range(1, n_max + 1):
        # base_d(x) - 1 = sum over nonempty partitions, substituted at q**d.
        u = [ZERO] * (n_max + 1)
        for m in range(1, n_max // d + 1):
            coeff = ZERO
            for lam in partitions_of(m):
                coeff = coeff + n_lambda(lam).compose_power(d)
            u[d * m] = coeff
        powered = [ONE] + [ZERO] * n_max
        term = [ONE] + [ZERO] * n_max
        phi = phi_d(d)
        for j in range(1, n_max // d + 1):
            term = _series_mul(term, u, n_max)
            binom = _binom_poly(phi, j)
            powered = [p + binom * t for p, t in zip(powered, term)]
        series = _series_mul(series, powered, n_max)
    for n in range(1, n_max + 1):
        if series[n] != r_n1(n):
            return False
    return series[0] == ONE
