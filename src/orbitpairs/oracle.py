"""Ground-truth engine over explicit finite modules.

Builds the module of a given shape over Z/p^k coordinates, closes elements
(or pairs, diagonally) under a generating set of the automorphism group, and
compares every orbit statistic against the polynomial formulas evaluated at
q = p.  The closure works on element permutations only: pairs carry an
|M| x |M| label array, and no pair permutation is built.  The pair closure
starts from a seed: an element-orbit transversal (a group element per
element, taking it to its orbit minimum r) and, per orbit, the orbits on M of
Schreier generators of Stab(r) (Schreier's lemma) give every pair a label in
its orbit and no larger than its index.  The closure then only certifies
the seed, so exactness never rests on which Schreier generators were taken.
The generator set is an engineering construction, so a full-endos mode that
enumerates every invertible endomorphism acts as the authority on any
disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator, List, Literal

import numpy as np

from .errors import BudgetExceeded
from .orbits import n_lambda, orbit_census, orbit_size
from .posets import OrderIdeal, Partition, Point, lattice
from .refined import refined_matrix

ELEMENT_BUDGET = 2 ** 12
PAIR_BUDGET = 2 ** 20
assert PAIR_BUDGET <= 2 ** 31, "closure labels are int32 flat indices"
assert PAIR_BUDGET <= 2 ** 30, "transversal rows are int16 element indices"
# Entries per block of the (rows, n) arrays that the pair seed gathers, so
# that the intp copy of a gather's index stays near 8 * _CHUNK bytes.
_CHUNK = 2 ** 14
ENDO_BUDGET = 2 ** 24


def valuation(x: int, k: int, p: int) -> int:
    """Largest e <= k with p**e dividing x; k for x = 0."""
    if not 0 <= x < p ** k:
        raise ValueError(f"residue {x} out of range for p^{k}")
    if x == 0:
        return k
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


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

    def ideal_of(self, coords: Iterable[int]) -> OrderIdeal:
        """Invariant ideal of an element: generated by one point
        (valuation, exponent) per nonzero coordinate."""
        gens = []
        for c, k in zip(coords, self.exponents):
            if c:
                gens.append(Point(valuation(c, k, self.p), k))
        return OrderIdeal.from_generators(gens)


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
    """Generating set for the automorphism group, as coordinate matrices:
    per-coordinate unit multiplications plus, for each ordered coordinate
    pair (r, s), the transvection adding p**max(0, k_r - k_s) * x_s to x_r."""
    p, ks = module.p, module.exponents
    n = len(ks)
    gens = []
    for i, k in enumerate(ks):
        for u in _unit_generators(p, k):
            m = np.eye(n, dtype=np.int64)
            m[i, i] = u
            gens.append(m)
    for r in range(n):
        for s in range(n):
            if r == s:
                continue
            m = np.eye(n, dtype=np.int64)
            m[r, s] = p ** max(0, ks[r] - ks[s])
            gens.append(m)
    return gens


def endo_permutation(module: ExplicitModule, matrix: np.ndarray,
                     elements: np.ndarray = None) -> np.ndarray:
    """Index permutation (or non-bijective map) induced by a coordinate
    matrix acting as y_i = sum_j m[i, j] * x_j mod p^{k_i}."""
    if elements is None:
        elements = module.elements()
    mods = np.array(module.coordinate_sizes, dtype=np.int64)
    images = (elements @ matrix.T) % mods
    weights = np.ones(len(mods), dtype=np.int64)
    for i in range(len(mods) - 2, -1, -1):
        weights[i] = weights[i + 1] * mods[i + 1]
    return images @ weights


def invertible_endomorphisms(module: ExplicitModule) -> List[np.ndarray]:
    """Every invertible endomorphism, as an element-index permutation.
    Safety net for the generator-set construction."""
    p, ks = module.p, module.exponents
    n = len(ks)
    total = p ** sum(min(ki, kj) for ki in ks for kj in ks)
    if total > ENDO_BUDGET:
        raise BudgetExceeded(f"{total} endomorphisms exceed budget {ENDO_BUDGET}")
    elements = module.elements()
    slots = [(i, j, p ** max(0, ks[i] - ks[j]), p ** min(ks[i], ks[j]))
             for i in range(n) for j in range(n)]
    perms = []
    m = np.zeros((n, n), dtype=np.int64)

    def rec(t: int):
        if t == len(slots):
            perm = endo_permutation(module, m, elements)
            if len(np.unique(perm)) == module.size:
                perms.append(perm)
            return
        i, j, scale, count = slots[t]
        for c in range(count):
            m[i, j] = scale * c
            rec(t + 1)
        m[i, j] = 0

    rec(0)
    return perms


def _closure_labels(perms: List[np.ndarray], n: int, dims: int,
                    start: np.ndarray = None) -> np.ndarray:
    """Orbit labels (minimum flat index per orbit) of {0..n-1}^dims under the
    diagonal action of the element permutations, which must be bijections:
    labels are only pulled forward, along g, g^2, g^4, ... (pointer doubling),
    until constant on each cycle of g.  Pointer jumping follows labels to
    their labels, and whole rounds repeat until one changes nothing.  start,
    if given, holds int32 labels to begin from instead of the flat indices:
    each in its point's orbit and at most the point's flat index, so that
    the loop still ends at the orbit minima."""
    if start is None:
        start = np.arange(n ** dims, dtype=np.int32)
    labels = start.reshape((n,) * dims)
    while True:
        prev = labels
        for step in perms:
            while True:
                pulled = labels
                for axis in range(dims):
                    pulled = pulled.take(step, axis)
                if (pulled >= labels).all():
                    break
                labels, step = np.minimum(labels, pulled), step[step]
        while True:
            jumped = labels.ravel()[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, prev):
            return labels.ravel()


def _blocks(perms: List[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """The permutations of {0..n-1} stacked into arrays of at most _CHUNK
    entries each (one row at least), built one at a time."""
    rows = max(1, _CHUNK // n)
    for i in range(0, len(perms), rows):
        yield np.array(perms[i:i + rows], dtype=np.intp)


def _transversal(perms: List[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Element orbit minima, pulled and jumped as in _closure_labels(perms,
    n, 1), with a witness per element: row x of the (n, n) int16 array V is
    a group element, as an element permutation, taking x to its label.  A
    pull of x's label along step sets V[x] = V[step(x)] o step; a pointer
    jump from x to its label z sets V[x] = V[z] o V[x].  Rounds repeat until
    the labels are constant along every generator, checked a block of
    generators at a time."""
    labels = np.arange(n)
    V = np.tile(np.arange(n, dtype=np.int16), (n, 1))
    chunk = max(1, _CHUNK // n)
    while True:
        for step in perms:
            while True:
                xs = (labels[step] < labels).nonzero()[0]
                if not xs.size:
                    break
                ys = step[xs]
                labels[xs] = labels[ys]
                V[xs] = V[ys][:, step]
                step = step[step]
        # Each chunk of rows reads labels and V of one state.
        xs = (labels[labels] != labels).nonzero()[0]
        while xs.size:
            for i in range(0, xs.size, chunk):
                rows = xs[i:i + chunk]
                zs = labels[rows]
                V[rows] = np.take_along_axis(V[zs], V[rows], 1)
                labels[rows] = labels[zs]
            xs = (labels[labels] != labels).nonzero()[0]
        if all((labels[P] == labels).all() for P in _blocks(perms, n)):
            return labels, V


def _pair_seed(perms: List[np.ndarray], n: int) -> np.ndarray:
    """Start labels for _closure_labels(perms, n, 2), as flat int32 pair
    indices.  Per element orbit with minimum r, lab_r labels M by the orbits
    of the subgroup of Stab(r) that the Schreier generators V[g(x)] o g o
    V[x]^-1, at x = r and at the orbit's largest element, generate for every
    generator g (Schreier's lemma; every such orbit lies in one orbit of
    Stab(r)).  The pair (x, y) then gets r*n + lab_r[V[x][y]]: V[x] takes it
    to (r, V[x][y]), in its orbit, and the label is at most x*n + y, since V[x]
    is the identity when x = r.  The closure started there only certifies the
    seed, or finishes it if the sampled generators miss part of Stab(r)."""
    labels, V = _transversal(perms, n)
    reps, orbit = np.unique(labels, return_inverse=True)
    tops = np.zeros(reps.size, dtype=np.intp)
    np.maximum.at(tops, orbit, np.arange(n))
    lab = np.empty((reps.size, n), dtype=np.int32)
    for o, (r, top) in enumerate(zip(reps.tolist(), tops.tolist())):
        if r == top:
            # A fixed point's stabilizer is the whole group.
            lab[o] = labels
            continue
        schreier = np.empty((0, n), dtype=np.int16)
        for x in (r, top):
            w = np.empty(n, dtype=np.intp)
            w[V[x]] = np.arange(n)
            for P in _blocks(perms, n):
                # Row g is V[g(x)] o g o w, w being V[x]^-1.  Distinct rows
                # are found by sorting each row's bytes as one key.
                rows = np.concatenate([schreier, V[P[:, x, None], P[:, w]]])
                rows = np.ascontiguousarray(rows)
                _, first = np.unique(rows.view(np.dtype((np.void, rows.itemsize * n))),
                                     return_index=True)
                schreier = rows[first]
        lab[o] = _closure_labels(list(schreier), n, 1)
    seed = np.empty((n, n), dtype=np.int32)
    chunk = max(1, _CHUNK // n)
    for i in range(0, n, chunk):
        rows = slice(i, i + chunk)
        seed[rows] = np.take_along_axis(lab[orbit[rows]], V[rows], 1) + labels[rows, None] * n
    return seed.ravel()


@dataclass
class OrbitDescriptor:
    size: int
    ideal: OrderIdeal
    second_ideal: OrderIdeal = None  # pairs only


def _group_perms(module: ExplicitModule, mode: str) -> List[np.ndarray]:
    if mode == "full-endos":
        return invertible_endomorphisms(module)
    elements = module.elements()
    return [endo_permutation(module, g, elements) for g in aut_generators(module)]


def orbits(module: ExplicitModule, space: Literal["elements", "pairs"] = "elements",
           mode: str = "quick", perms: List[np.ndarray] = None) -> List[OrbitDescriptor]:
    """Orbit decomposition of the module (or of pairs under the diagonal
    action, closed on the element permutations), annotated with the
    invariant ideal(s) of the orbit's smallest index.  perms, if given, are
    _group_perms(module, mode), built once for several calls."""
    n = module.size
    if perms is None:
        perms = _group_perms(module, mode)
    elements = module.elements()
    if space == "elements":
        labels = _closure_labels(perms, n, 1)
    elif space == "pairs":
        if n * n > PAIR_BUDGET:
            raise BudgetExceeded(f"pair space {n * n} exceeds budget {PAIR_BUDGET}")
        labels = _closure_labels(perms, n, 2, _pair_seed(perms, n))
    else:
        raise ValueError(f"unknown space {space!r}")
    reps, counts = np.unique(labels, return_counts=True)
    ideals: dict[int, OrderIdeal] = {}

    def ideal(i: int) -> OrderIdeal:
        if i not in ideals:
            ideals[i] = module.ideal_of(elements[i].tolist())
        return ideals[i]

    out = []
    for rep, size in zip(reps.tolist(), counts.tolist()):
        if space == "elements":
            out.append(OrbitDescriptor(size, ideal(rep)))
        else:
            out.append(OrbitDescriptor(size, ideal(rep // n), ideal(rep % n)))
    return out


def _check(name, expected, actual):
    return {"name": name, "expected": expected, "actual": actual,
            "pass": expected == actual}


def verify(lam: Partition, p: int, mode: str = "quick") -> dict:
    """Compare every counting formula against direct orbit enumeration at
    q = p.  Returns a JSON-ready report with one entry per check."""
    module = ExplicitModule.from_partition(lam, p)
    ideals = lattice(lam).ideals
    checks = []

    perms = _group_perms(module, mode)
    element_orbits = orbits(module, "elements", mode, perms)
    checks.append(_check("element orbit count vs ideal count",
                         len(ideals), len(element_orbits)))
    sizes_by_ideal = {o.ideal: o.size for o in element_orbits}
    expected_sizes = {I: orbit_size(lam, I)(p) for I in ideals}
    checks.append(_check("element orbit sizes vs orbit size formula",
                         _render_map(expected_sizes), _render_map(sizes_by_ideal)))

    pair_orbits = orbits(module, "pairs", mode, perms)
    checks.append(_check("pair orbit count vs n_lambda",
                         int(n_lambda(lam)(p)), len(pair_orbits)))

    expected_multiset: dict[int, int] = {}
    for I in ideals:
        scale = orbit_size(lam, I)(p)
        for a, cnt in orbit_census(lam, I).items():
            size = int(a(p)) * int(scale)
            expected_multiset[size] = expected_multiset.get(size, 0) + int(cnt(p))
    actual_multiset: dict[int, int] = {}
    for o in pair_orbits:
        actual_multiset[o.size] = actual_multiset.get(o.size, 0) + 1
    checks.append(_check("pair orbit size multiset vs census",
                         _render_map(expected_multiset), _render_map(actual_multiset)))

    actual_refined: dict[tuple, int] = {}
    for o in pair_orbits:
        key = (o.ideal, o.second_ideal)
        actual_refined[key] = actual_refined.get(key, 0) + 1
    expected_refined = {}
    for key, total in refined_matrix(lam).items():
        c = int(total(p))
        if c:
            expected_refined[key] = c
    checks.append(_check("refined pair counts per orbit pair",
                         _render_map(expected_refined), _render_map(actual_refined)))

    return {"partition": str(lam), "p": p, "mode": mode, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def _render_map(d: dict) -> dict:
    return {str(k): str(v) for k, v in sorted(d.items(), key=lambda e: str(e[0]))}
