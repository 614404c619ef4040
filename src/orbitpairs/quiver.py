"""Isomorphism classes of quiver representations with dimension vector (n, 1).

R_{n,1}(q) is read off Hua's product sum_n R_{n,1} x^n = prod_d (sum_lambda
n_lambda(q^d) x^{d|lambda|})^{phi_d(q)}, taken as the exponential of its
logarithm by Newton's identities, one weight at a time in Z[q].  The sum over
similarity-class types (multisets of (partition, degree) pairs) of class
counts times orbit counts, type_sum, is its independent check, which `quiver
n --breakdown` runs; the rational phi_d and class counts are each an int
polynomial over an int denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, lcm, prod
from typing import Dict, Iterable

from .errors import NonIntegerResult
from .orbits import n_lambda, n_lambdas
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
def phi_d(d: int) -> tuple[QPolynomial, int]:
    """Number of monic irreducible degree-d polynomials over a field of
    size q (necklace polynomial), as (d * phi_d, d): d * phi_d(q) is the
    sum over e | d of mu(d/e) q^e, with integer coefficients."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return sum((_moebius_int(d // e) * Q ** e for e in range(1, d + 1) if d % e == 0), ZERO), d


def c_tau(tau: MatrixType) -> tuple[QPolynomial, int]:
    """Number of similarity classes of the given type, prod over d of the
    falling factorial phi_d (phi_d - 1) ... (phi_d - m_d + 1), m_d its number
    of degree-d pairs, over prod a! of its multiplicities a.  Returned as
    (prod_d prod_{j < m_d} (d phi_d - j d), prod_d d^{m_d} * prod a!)."""
    num, den = ONE, prod(factorial(a) for _, a in tau.entries)
    for d in {d for (_, d), _ in tau.entries}:
        m = tau.degree_multiplicity(d)
        num = num * prod(phi_d(d)[0] - j * d for j in range(m))
        den *= d ** m
    return num, den


def n_tau(tau: MatrixType) -> QPolynomial:
    """Orbit count of pairs for a matrix of the given type: product of the
    per-partition counts evaluated at q**d."""
    prod = ONE
    for (lam, d), a in tau.entries:
        prod = prod * n_lambda(lam).compose_power(d) ** a
    return prod


# Weight by weight from 0, the quiver series' terms (s_n, b_n, B_n, R_{n,1}):
# s_n sums n_lambda over |lambda| = n, b_n is the n-th power sum of
# U = sum_n s_n x^n and B_n = sum over d | n of d phi_d(q) b_{n/d}(q^d).
# Weight n reads only the weights below it, so the store grows at its end.
_STORE: list[tuple[QPolynomial, QPolynomial, QPolynomial, QPolynomial]] = [
    (ONE, ZERO, ZERO, ONE)]


def _series(n_max: int) -> list[QPolynomial]:
    """R_{0,1}, ..., R_{n_max,1}.  Hua's product prod_d U(q^d, x^d)^{phi_d(q)}
    is read as an exponential in Z[q]: log U = sum_n b_n x^n / n, where
    b_n = n s_n - sum_{0<k<n} b_k s_{n-k}, so x d/dx log of the product is
    sum_n B_n x^n and n R_n = sum_{k=1..n} B_k R_{n-k}, with NonIntegerResult
    on a nonzero remainder.  Only the weights past _STORE's end are
    computed, their n_lambda from one n_lambdas call, in blocks across
    shapes."""
    store = _STORE
    if n_max >= len(store):
        parts = [partitions_of(n) for n in range(len(store), n_max + 1)]
        polys = iter(n_lambdas(lam for ps in parts for lam in ps))
        for ps in parts:
            n = len(store)
            s_n = sum((next(polys) for _ in ps), ZERO)
            b_n = s_n * n - sum((store[k][1] * store[n - k][0] for k in range(1, n)), ZERO)
            B_n = sum((phi_d(d)[0] * (store[n // d][1] if d > 1 else b_n).compose_power(d)
                       for d in range(1, n + 1) if n % d == 0), ZERO)
            total = sum((store[k][2] * store[n - k][3] for k in range(1, n)), B_n)
            quot = [divmod(c, n) for c in total.coeffs]
            if any(r for _, r in quot):
                raise NonIntegerResult(f"R_{n},1 = ({total}) / {n}")
            store.append((s_n, b_n, B_n, QPolynomial(c for c, _ in quot)))
    return [r_n for *_, r_n in store[:n_max + 1]]


def r_n1(n: int) -> QPolynomial:
    """Number of isomorphism classes of representations with dimension
    vector (n, 1): entry n of the series, which type_sum checks.  Each
    R_{n,1} needs only the weights <= n, so a call computes just the weights
    past those already in _STORE."""
    if n < 1:
        raise ValueError("n must be positive")
    return _series(n)[n]


def type_sum(n: int, r: QPolynomial) -> tuple[list, bool]:
    """(tau, c_tau numerator, c_tau denominator, n_tau) for every type of
    weight n, and whether r is the sum of their c_tau * n_tau, both sides
    scaled by the lcm of the denominators so that every product is in Z[q]."""
    terms = [(tau, *c_tau(tau), n_tau(tau)) for tau in enumerate_types(n)]
    scale = lcm(*(den for _, _, den, _ in terms))
    total = sum((num * (scale // den) * m for _, num, den, m in terms), ZERO)
    return terms, total == r * scale
