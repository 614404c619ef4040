"""Ground-truth engine over explicit finite modules.

Builds the module of a given shape over Z/p^k coordinates, closes elements
(or pairs, diagonally) under a generating set of the automorphism group, and
compares every orbit statistic against the polynomial formulas evaluated at
q = p.  With the blocks of equal exponents taken by decreasing exponent,
the generating set is, per block c1, ..., cb, the unit multiplications of
c1 and, if b >= 2, the permutation matrix that cycles the block and
e_{c1,c2}(1); and, between consecutive blocks, e_rs(p^(k_r - k_s)) and
e_sr(1) for r the last coordinate of one and s the first of the next: sum
over blocks of |units| + 2[b >= 2], plus 2(blocks - 1), generators.
Conjugating e_{c1,c2}(1) by the block cycle gives the block's adjacent
transvections, their commutators [e_rs(a), e_st(b)] = e_rt(ab) give every
e_ij(1) and so the block's SL_b, and c1's units give every determinant.
Conjugating by the cycles moves the cross-block pair onto every pair of
coordinates of the two blocks, whose commutators give every transvection
e_rs(p^max(0, k_r - k_s)), so the set generates all of Aut(M) (see
aut_generators).
One call of orbits(module) tallies what verify compares, one (ideal, size)
per element orbit and the pair orbits by size and by their two ideals, from
one list of generator permutations, one element closure and one
valuation-profile table.  Pairs are closed on the element permutations of
the generators (see permgroups), and no pair permutation is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List

import numpy as np

from .errors import BudgetExceeded, OrbitPairsError
from .orbits import n_lambda, orbit_size
from .permgroups import closure_labels, pair_labels
from .posets import OrderIdeal, Partition, Point, lattice
from .qpoly import ZERO
from .refined import refined_censuses

ELEMENT_BUDGET = 2 ** 12
PAIR_BUDGET = 2 ** 20
assert PAIR_BUDGET <= 2 ** 30, "pair label rows are int16 element indices"


# Miller-Rabin to these bases decides primality below 3317044064679887385961981,
# the least strong pseudoprime to all of them; above it, it is probabilistic.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in _WITNESSES:
        # a witnesses n composite unless some x^(2^i), i < s, is 1 (at i = 0) or -1.
        x = pow(a, (n - 1) >> s, n)
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


@dataclass(frozen=True)
class ExplicitModule:
    """A concrete module: one residue coordinate per cyclic summand."""

    p: int
    exponents: tuple[int, ...]

    @classmethod
    def from_partition(cls, lam: Partition, p: int) -> "ExplicitModule":
        # Bounding p first keeps the primality check short for any p.
        if p > ELEMENT_BUDGET:
            raise BudgetExceeded(f"p = {p} exceeds budget {ELEMENT_BUDGET}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not a prime")
        # p >= 2, so |lambda| past log2 of the budget exceeds it: build no p**|lambda|.
        if lam.weight >= ELEMENT_BUDGET.bit_length():
            raise BudgetExceeded(f"|M| = {p}^{lam.weight} exceeds budget {ELEMENT_BUDGET}")
        mod = cls(p, lam.expand())
        if mod.size > ELEMENT_BUDGET:
            raise BudgetExceeded(f"|M| = {mod.size} exceeds budget {ELEMENT_BUDGET}")
        return mod

    @property
    def size(self) -> int:
        return self.p ** sum(self.exponents)

    @property
    def coordinate_sizes(self) -> tuple[int, ...]:
        return tuple(self.p ** k for k in self.exponents)

    def elements(self) -> np.ndarray:
        """(size, ncoords) array of all coordinate vectors, row i being the
        mixed-radix decoding of index i."""
        sizes = self.coordinate_sizes
        n = self.size
        out = np.empty((n, len(sizes)), dtype=np.int64)
        idx = np.arange(n)
        for i in range(len(sizes) - 1, -1, -1):
            out[:, i] = idx % sizes[i]
            idx //= sizes[i]
        return out


@lru_cache(maxsize=None)
def _unit_generators(p: int, k: int) -> tuple[int, ...]:
    """Units whose multiplication generates (Z/p^k)^*; for p = 2 both -1
    and 5 are needed since the unit group is not cyclic for k >= 3."""
    n = p ** k
    if p == 2:
        return tuple(sorted({(n - 1) % n, 5 % n} - {1}))
    # Smallest unit of full multiplicative order.
    target = n // p * (p - 1)
    for u in range(2, n):
        if u % p == 0:
            continue
        order, acc = 1, u % n
        while acc != 1:
            acc = acc * u % n
            order += 1
        if order == target:
            return (u,)
    return ()


def aut_generators(module: ExplicitModule) -> List[np.ndarray]:
    """Generating set for the automorphism group, as coordinate matrices.
    Aut(M) is the invertible integer matrices whose (r, s) entry is divisible
    by p**max(0, k_r - k_s) (Hillar and Rhea), generated by the unit
    multiplications of every coordinate and the transvections e_rs(p**max(0,
    k_r - k_s)), which add that multiple of x_s to x_r.  With the blocks of
    equal exponents taken by decreasing exponent, this set keeps the unit
    multiplications of each block's first coordinate c1; for a block
    c1, ..., cb of b >= 2 coordinates, the permutation matrix that cycles
    them and e_{c1,c2}(1); and between consecutive blocks, with r the last
    coordinate of one and s the first of the next, e_rs(p**(k_r - k_s)) and
    e_sr(1).  That is sum over blocks of |_unit_generators(p, k)| + 2[b >= 2],
    plus 2(blocks - 1), matrices.
    - Conjugating e_{c1,c2}(1) by the powers of the block's cycle gives the
      block's adjacent transvections e_{ci,ci+1}(1), their commutators
      [e_rs(a), e_st(b)] = e_rt(ab) every e_ij(1) in the block, and so its
      SL_b; the units of c1 give every determinant.
    - Conjugating the cross-block pair by the two blocks' cycles moves it onto
      every pair of coordinates of the two blocks, and commutators of those
      give every other transvection with its coefficient above.
    - The cycles conjugate each block's unit multiplications onto every one
      of its coordinates."""
    p, ks = module.p, module.exponents
    n = len(ks)
    blocks = [[i for i in range(n) if ks[i] == k] for k in sorted(set(ks), reverse=True)]
    gens = []

    def gen(r: int, s: int, c: int) -> None:
        m = np.eye(n, dtype=np.int64)
        m[r, s] = c
        gens.append(m)

    for block in blocks:
        for u in _unit_generators(p, ks[block[0]]):
            gen(block[0], block[0], u)
        if len(block) > 1:
            # Column ci holds e_{ci+1}: x_ci moves to coordinate ci+1.
            to = np.arange(n)
            to[block] = np.roll(block, -1)
            gens.append(np.eye(n, dtype=np.int64)[:, to])
            gen(block[0], block[1], 1)
    for above, below in zip(blocks, blocks[1:]):
        r, s = above[-1], below[0]
        gen(r, s, p ** (ks[r] - ks[s]))
        gen(s, r, 1)
    return gens


def endo_permutation(module: ExplicitModule, matrix: np.ndarray,
                     elements: np.ndarray) -> np.ndarray:
    """Index permutation (or non-bijective map) induced by a coordinate
    matrix acting as y_i = sum_j m[i, j] * x_j mod p^{k_i} on the module's
    elements."""
    mods = np.array(module.coordinate_sizes, dtype=np.int64)
    images = (elements @ matrix.T) % mods
    weights = np.ones(len(mods), dtype=np.int64)
    for i in range(len(mods) - 2, -1, -1):
        weights[i] = weights[i + 1] * mods[i + 1]
    return images @ weights


def _group_perms(module: ExplicitModule) -> List[np.ndarray]:
    elements = module.elements()
    return [endo_permutation(module, g, elements) for g in aut_generators(module)]


def _element_ideals(module: ExplicitModule, elements: np.ndarray) -> Callable[[int], OrderIdeal]:
    """ideal(i): the invariant ideal of the coordinate row elements[i],
    generated by the points (v, k) of its coordinates of valuation v below
    their exponent k.  It depends only on the valuation profile (one
    valuation per coordinate), so it is built once per profile read."""
    p, ks = module.p, module.exponents
    # A coordinate's valuation is the number of e in 1..k with p**e dividing it.
    vals = np.zeros(elements.shape, dtype=np.int64)
    code = np.zeros(len(elements), dtype=np.int64)
    for i, k in enumerate(ks):
        vals[:, i] = sum(elements[:, i] % p ** e == 0 for e in range(1, k + 1))
        code = code * (k + 1) + vals[:, i]
    _, first, profile = np.unique(code, return_index=True, return_inverse=True)
    ideals: dict[int, OrderIdeal] = {}

    def ideal(i: int) -> OrderIdeal:
        j = profile[i]
        if j not in ideals:
            ideals[j] = OrderIdeal.from_generators(
                Point(v, k) for v, k in zip(vals[first[j]].tolist(), ks) if v < k)
        return ideals[j]
    return ideal


def orbits(module: ExplicitModule) -> tuple[List[tuple[OrderIdeal, int]], Counter, Counter]:
    """The orbit tallies of the module, pairs under the diagonal action: one
    (ideal, size) per element orbit, and the pair orbits counted by size and
    by the ideals of their smallest pair (r, c)."""
    if module.size ** 2 > PAIR_BUDGET:
        raise BudgetExceeded(f"pair space {module.size ** 2} exceeds budget {PAIR_BUDGET}")
    perms = _group_perms(module)
    labels = closure_labels(perms, module.size)
    ideal = _element_ideals(module, module.elements())
    counts, F = np.bincount(labels), pair_labels(perms, labels)
    elements, pair_sizes, pair_ideals = [], Counter(), Counter()
    # Labels are orbit minima, so the distinct labels are the representatives,
    # and the pair orbit of (r, c) is r's orbit times c's orbit under Stab(r).
    for r in counts.nonzero()[0].tolist():
        size, I, second = int(counts[r]), ideal(r), np.bincount(F[r])
        elements.append((I, size))
        cs = second.nonzero()[0]
        pair_sizes.update((size * second[cs]).tolist())
        pair_ideals.update((I, ideal(c)) for c in cs.tolist())
    return elements, pair_sizes, pair_ideals


def _check(name, expected, actual):
    return {"name": name, "expected": expected, "actual": actual,
            "pass": expected == actual}


def verify(lam: Partition, p: int) -> dict:
    """Compare every counting formula against direct orbit enumeration at
    q = p.  Returns a JSON-ready report with one entry per check."""
    module = ExplicitModule.from_partition(lam, p)
    ideals = lattice(lam).ideals
    element_orbits, pair_sizes, pair_ideals = orbits(module)
    checks = [_check("element orbit count vs ideal count",
                     len(ideals), len(element_orbits))]
    expected_sizes = {I: orbit_size(lam, I)(p) for I in ideals}
    checks.append(_check("element orbit sizes vs orbit size formula",
                         _render_map(expected_sizes), _render_map(dict(element_orbits))))
    grid = refined_censuses(lam)
    totals = {(I, L): sum(census.values(), ZERO)
              for I, row in zip(ideals, grid) for L, census in zip(ideals, row)}
    # Swapping a pair's members commutes with the action, so the totals are
    # symmetric, which refined_matrix relies on to mirror half of them.
    for (I, L), total in totals.items():
        if total != totals[L, I]:
            raise OrbitPairsError(f"refined totals of {lam}: {total} over ({I}; {L}),"
                                  f" but {totals[L, I]} over ({L}; {I})")
    uncapped = sum(totals.values(), ZERO)
    capped = n_lambda(lam)
    if uncapped != capped:  # the grid against the cell batch, past the cap too
        raise OrbitPairsError(f"n_lambda({lam}) = {capped}, but uncapped {uncapped}")
    checks.append(_check("pair orbit count vs n_lambda", int(uncapped(p)), pair_sizes.total()))

    # The census of I is additive over the second orbits L.
    expected_multiset = Counter()
    for I, row in zip(ideals, grid):
        for census in row:
            for a, cnt in census.items():
                expected_multiset[int(a(p)) * expected_sizes[I]] += int(cnt(p))
    checks.append(_check("pair orbit size multiset vs census",
                         _render_map(expected_multiset), _render_map(pair_sizes)))

    expected_refined = {key: c for key, total in totals.items() if (c := int(total(p)))}
    checks.append(_check("refined pair counts per orbit pair",
                         _render_map(expected_refined), _render_map(pair_ideals)))

    return {"partition": str(lam), "p": p, "mode": "quick", "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def _render_map(d: dict) -> dict:
    return dict(sorted((str(k), str(v)) for k, v in d.items()))
