"""Partitions, the fundamental poset, and order ideals.

Points of the fundamental poset are pairs (v, k) with 0 <= v < k, ordered by
(v, k) <= (v', k')  iff  v >= v' and k - v <= k' - v'.

An order ideal is stored context-free as the antichain of its maximal points,
so the same ideal object can be evaluated against several partitions (the
counting pipeline mixes three partition contexts per computation).  Boundary
valuations are derived on demand from the generators: boundary(k) is the
least v with (v, k) in the ideal, and k itself when row k misses the ideal
(row k holds valuations 0..k-1, so k acts as infinity).  lattice(mu) is
the one per-shape store of ideals: one walk of boundary profiles per mu
and process gives its int rows, which orbits' census batch and refined's
tables read.  OrderIdeal is the API form, built from the rows on demand.

The ideals on a partition's rows form a finite distributive lattice, so its
Moebius function has a closed form: mu(A, B) = (-1)^|B - A| when A is B
minus a set of B's maximal points, and 0 otherwise.  Inversions sum over
those terms only, which mobius_terms lists as boundary tuples: removing the
maximal point on a row raises that row's boundary by 1.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np

from .errors import BudgetExceeded, DegreeMismatch, IdealOutOfContext
from .qpoly import QPolynomial


class Point(NamedTuple):
    v: int
    k: int

    def __str__(self):
        return f"{self.v}:{self.k}"


def point(v: int, k: int) -> Point:
    if not 0 <= v < k:
        raise ValueError(f"point requires 0 <= v < k, got ({v}, {k})")
    return Point(v, k)


def point_leq(a: Point, b: Point) -> bool:
    """a <= b in the fundamental poset."""
    return a.v >= b.v and a.k - a.v <= b.k - b.v


class Partition:
    """Shape of a module: strictly decreasing parts with multiplicities."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        pairs = tuple((int(p), int(m)) for p, m in pairs)
        for (p, m) in pairs:
            if p < 1 or m < 1:
                raise ValueError(f"bad partition pair ({p}, {m})")
        if any(pairs[i][0] <= pairs[i + 1][0] for i in range(len(pairs) - 1)):
            raise ValueError("parts must be strictly decreasing")
        self.pairs = pairs

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "Partition":
        """Build from a plain list of parts in any order, e.g. [5, 4, 4, 2, 1]."""
        counts: dict[int, int] = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        return cls(sorted(counts.items(), reverse=True))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse '5,4^2,2,1' or '5,4,4,2,1'; empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        counts: dict[int, int] = {}
        for chunk in text.split(","):
            base, caret, mult = chunk.strip().partition("^")
            part, m = int(base), int(mult) if caret else 1
            if m < 1:
                raise ValueError(f"multiplicity must be at least 1 in {chunk.strip()!r}")
            counts[part] = counts.get(part, 0) + m
        return cls(sorted(counts.items(), reverse=True))

    @property
    def rows(self) -> tuple[int, ...]:
        """Distinct parts, largest first."""
        return tuple(p for p, _ in self.pairs)

    def mult(self, part: int) -> int:
        for p, m in self.pairs:
            if p == part:
                return m
        return 0

    @property
    def weight(self) -> int:
        return sum(p * m for p, m in self.pairs)

    @property
    def largest(self) -> int:
        return self.pairs[0][0] if self.pairs else 0

    def expand(self) -> tuple[int, ...]:
        """Weakly decreasing list of parts with multiplicity."""
        out = []
        for p, m in self.pairs:
            out.extend([p] * m)
        return tuple(out)

    def cap(self, m: int) -> "Partition":
        """Replace every multiplicity m_i by min(m_i, m)."""
        if m < 1:
            raise ValueError("cap must be positive")
        return Partition((p, min(mu, m)) for p, mu in self.pairs)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __bool__(self):
        return bool(self.pairs)

    def __str__(self):
        return ",".join(f"{p}^{m}" if m > 1 else str(p) for p, m in self.pairs)

    def __repr__(self):
        return f"Partition.parse({str(self)!r})"


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in reverse lexicographic order on part lists."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(Partition.from_parts(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def boundary(points: Iterable[tuple[int, int]], k: int) -> int:
    """Least valuation in row k of the ideal with maximal points (v, k); k if
    the row misses the ideal (row k holds valuations 0..k-1, so k acts as
    infinity)."""
    best = k
    for v, gk in points:
        if k > gk:
            v += k - gk
        if v < best:
            best = v
    return best


def mobius_terms(b: tuple[int, ...], tops: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Every (A, mu(A, B)) with mu nonzero, for the ideal B with boundaries b
    on a partition's rows and its maximal points on the rows tops (indices
    into b), A given by its boundaries: A is B minus a set S of those points,
    which raises the boundary on each of their rows by 1, and mu = (-1)^|S|."""
    return [(tuple(x + (i in removed) for i, x in enumerate(b)), (-1) ** r)
            for r in range(len(tops) + 1) for removed in combinations(tops, r)]


class OrderIdeal:
    """An order ideal of the fundamental poset, stored as its antichain of
    maximal points (distinct rows; sorted by descending row)."""

    __slots__ = ("max_points",)

    def __init__(self, max_points: Iterable[Point] = ()):
        pts = sorted({Point(v, k) for v, k in max_points}, key=lambda p: -p.k)
        for a in pts:
            point(a.v, a.k)
        # Sorted by row, an antichain has strictly falling v and k - v; by
        # transitivity, checking neighbours covers every pair.
        for a, b in zip(pts, pts[1:]):
            if not (a.v > b.v and a.k - a.v > b.k - b.v):
                lo, hi = (a, b) if point_leq(a, b) else (b, a)
                raise ValueError(f"{lo} <= {hi}: not an antichain")
        self.max_points = tuple(pts)

    @classmethod
    def from_generators(cls, gens: Iterable[Point]) -> "OrderIdeal":
        """Ideal generated by arbitrary points; keeps only the maximal ones.
        In order of rising v (ties: larger k - v first), a point is maximal
        iff its k - v exceeds that of every earlier point."""
        maximal: list[Point] = []
        top = 0
        for v, k in sorted(gens, key=lambda p: (p[0], p[0] - p[1])):
            if not maximal or k - v > top:
                top = k - v
                maximal.append(Point(v, k))
        return cls(maximal)

    @classmethod
    def parse(cls, text: str) -> "OrderIdeal":
        """Parse a comma list of maximal points 'v:k', e.g. '1:4,0:1'; the
        points must form an antichain (repeats are merged)."""
        text = text.strip()
        if not text:
            return cls()
        pts = []
        for chunk in text.split(","):
            v, _, k = chunk.strip().partition(":")
            pts.append((int(v), int(k)))
        return cls(pts)

    def boundary(self, k: int) -> int:
        return boundary(self.max_points, k)

    def weighted_size(self, lam: Partition) -> int:
        """Number of points of the ideal on the partition's rows, counted with
        multiplicity: sum of m_i * (lambda_i - boundary)."""
        return sum(m * (p - self.boundary(p)) for p, m in lam.pairs)

    def in_context(self, lam: Partition) -> bool:
        """Membership in J(P)_lambda: all maximal points on rows of lambda."""
        rows = set(lam.rows)
        return all(p.k in rows for p in self.max_points)

    def __eq__(self, other):
        return isinstance(other, OrderIdeal) and self.max_points == other.max_points

    def __hash__(self):
        return hash(self.max_points)

    def __bool__(self):
        return bool(self.max_points)

    def __str__(self):
        return ",".join(str(p) for p in self.max_points)

    def __repr__(self):
        return f"OrderIdeal.parse({str(self)!r})"


def _profiles(lam: Partition) -> list[tuple]:
    """Every ideal on lam's rows, in lattice order, as the valuations, rows
    and multiplicities in lam of its maximal points, and its weighted size.

    Boundary profiles are enumerated row by row: a boundary b_i per row k_i,
    largest row first, with b_i and c_i = k_i - b_i both weakly falling, and
    c_i = 0 (an empty row) tried first, so the empty ideal comes first.  Row
    i holds a maximal point (b_i, k_i) iff c_i > 0, b_i < b_{i-1} (always,
    on the top row) and c_i > c_{i+1} (0 past the last row), so row i is
    settled once row i + 1 is chosen.  The weighted size is sum m_i * c_i."""
    rows, mults = lam.rows, [m for _, m in lam.pairs]
    out = []

    def rec(i: int, pv: tuple, pk: tuple, pm: tuple, w: int,
            prev_v: int, prev_c: int, fell: bool):
        # fell: b_{i-1} < b_{i-2}, with b_{-1} = k_0 above the top row.
        if i == len(rows):
            if fell and prev_c:
                pv, pk, pm = pv + (prev_v,), pk + (rows[-1],), pm + (mults[-1],)
            out.append((pv, pk, pm, w))
            return
        k, m = rows[i], mults[i]
        for v in range(min(prev_v, k), max(k - prev_c, 0) - 1, -1):
            c = k - v
            if fell and prev_c > c:
                rec(i + 1, pv + (prev_v,), pk + (rows[i - 1],), pm + (mults[i - 1],),
                    w + m * c, v, c, v < prev_v)
            else:
                rec(i + 1, pv, pk, pm, w + m * c, v, c, v < prev_v)

    rec(0, (), (), (), 0, lam.largest, lam.largest, False)
    return out


def row_ideal(v: Iterable[int], k: Iterable[int]) -> OrderIdeal:
    """The ideal with maximal points (v, k), padded as in IdealLattice."""
    return OrderIdeal(Point(a, b) for a, b in zip(v, k) if b)


INT64_MAX = int(np.iinfo(np.int64).max)


def check_int64(bound: int, what: str):
    if bound > INT64_MAX:
        raise BudgetExceeded(f"{what} reach {bound}, past int64")


def require_context(lam: Partition, I: OrderIdeal):
    if not I.in_context(lam):
        raise IdealOutOfContext(f"ideal [{I}] has maximal points off rows of {lam or 'empty'}")


class IdealLattice:
    """The lattice J(P)_mu, one row per ideal in the order of _profiles: its
    maximal points (v, k) with their orbit-size factors m_k in mu, padded
    with zeros to mu's row count, and its weighted size w, as int64 arrays.
    A padded point (0, 0) bounds row r by r, which no boundary exceeds, so
    it changes none.  The orbit sizes q**w * prod(1 - q**-m) must sum to
    q**|mu|; each is expanded over the subsets S of its factors, as
    (-1)**|S| q**(w - sum(S)).  ideals, the rows as OrderIdeals, is built
    the first time it is read."""

    def __init__(self, mu: Partition):
        # No v, k, m or w exceeds |mu|.
        check_int64(mu.weight, f"ideal weights of lattice({mu})")
        width, vs, ks, ms, ws = len(mu.pairs), [], [], [], []
        mass = [0] * (mu.weight + 1)
        for v, k, m, w in _profiles(mu):
            if sum(m) > w:
                raise DegreeMismatch(f"orbit size factors {m} of lattice({mu}) outweigh q**{w}")
            pad = (0,) * (width - len(v))
            vs += v + pad
            ks += k + pad
            ms += m + pad
            ws.append(w)
            for r in range(len(m) + 1):
                for removed in combinations(m, r):
                    mass[w - sum(removed)] += (-1) ** r
        if mass != [0] * mu.weight + [1]:
            raise DegreeMismatch(f"orbit sizes of lattice({mu}) sum to {QPolynomial(mass)}")
        shape = (len(ws), width)
        self.partition = mu
        self.v, self.k, self.m = (np.array(a, dtype=np.int64).reshape(shape) for a in (vs, ks, ms))
        self.w = np.array(ws, dtype=np.int64)

    @cached_property
    def ideals(self) -> list[OrderIdeal]:
        return list(map(row_ideal, self.v.tolist(), self.k.tolist()))


@lru_cache(maxsize=None)
def lattice(lam: Partition) -> IdealLattice:
    """The one store of lam's ideals, built once per lam and process."""
    return IdealLattice(lam)
