"""Ground-truth engine over explicit finite modules.

Builds the module of a given shape over Z/p^k coordinates, closes elements
(or pairs, diagonally) under a generating set of the automorphism group, and
compares every orbit statistic against the polynomial formulas evaluated at
q = p.  With the coordinates sorted by decreasing exponent, the generating
set is the unit multiplications of the first coordinate of each block of
equal exponents and the adjacent transvections e_{r,r+1}(p^(k_r - k_{r+1}))
and e_{r+1,r}(1): sum over blocks of |units| + 2(n - 1) generators.
Commutators [e_rs(a), e_st(b)] = e_rt(ab) of adjacent transvections give
every transvection e_rs(p^max(0, k_r - k_s)), and the signed swaps
e_rs(1) e_sr(-1) e_rs(1) conjugate a block's units onto each of its
coordinates, so the set generates all of Aut(M) (see aut_generators).
Orbits of elements and pairs are computed on the element permutations of
the generators (see permgroups); no pair permutation is built.
The generator set is an engineering construction, so a full-endos mode that
enumerates every invertible endomorphism acts as the authority on any
disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, List, Literal

import numpy as np

from .errors import BudgetExceeded, OrbitPairsError
from .orbits import n_lambda, orbit_censuses, orbit_size
from .permgroups import closure_labels, pair_labels
from .posets import OrderIdeal, Partition, Point, lattice
from .refined import refined_matrix

ELEMENT_BUDGET = 2 ** 12
PAIR_BUDGET = 2 ** 20
assert PAIR_BUDGET <= 2 ** 30, "pair label rows are int16 element indices"
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
    """Generating set for the automorphism group, as coordinate matrices.
    Aut(M) is the invertible integer matrices whose (r, s) entry is divisible
    by p**max(0, k_r - k_s) (Hillar and Rhea), generated by the unit
    multiplications of every coordinate and the transvections e_rs(p**max(0,
    k_r - k_s)), which add that multiple of x_s to x_r.  With the coordinates
    sorted by decreasing exponent, this set keeps the unit multiplications of
    the first coordinate of each block of equal exponents, and the adjacent
    transvections e_{r,r+1}(p**(k_r - k_{r+1})) and e_{r+1,r}(1): that is
    sum over blocks of |_unit_generators(p, k)| + 2(n - 1) matrices.
    - The commutator [e_rs(a), e_st(b)] = e_rt(ab) of adjacent transvections
      gives every other transvection with its coefficient above.
    - The signed swap e_rs(1) e_sr(-1) e_rs(1) of two coordinates of one
      block conjugates the block's unit multiplications onto both."""
    p, ks = module.p, module.exponents
    n = len(ks)
    order = sorted(range(n), key=lambda i: -ks[i])
    gens = []

    def gen(r: int, s: int, c: int) -> None:
        m = np.eye(n, dtype=np.int64)
        m[r, s] = c
        gens.append(m)

    for k in sorted(set(ks), reverse=True):
        i = ks.index(k)
        for u in _unit_generators(p, k):
            gen(i, i, u)
    for r, s in zip(order, order[1:]):
        gen(r, s, p ** (ks[r] - ks[s]))
        gen(s, r, 1)
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


def aut_order(module: ExplicitModule) -> int:
    """|Aut M| by the closed form of Hillar and Rhea (Automorphisms of finite
    abelian groups, 2007): with exponents e_1 <= ... <= e_n and c_k, d_k the
    first and last index of e_k's block, the product over k of
    (p^d_k - p^(k-1)) p^(e_k (n - d_k)) p^((e_k - 1)(n - c_k + 1))."""
    p, es = module.p, sorted(module.exponents)
    n, total = len(es), 1
    for k, e in enumerate(es, 1):
        c, d = es.index(e) + 1, n - es[::-1].index(e)
        total *= (p ** d - p ** (k - 1)) * p ** (e * (n - d) + (e - 1) * (n - c + 1))
    return total


@dataclass
class OrbitDescriptor:
    size: int
    ideal: OrderIdeal
    second_ideal: OrderIdeal = None  # pairs only


def _group_perms(module: ExplicitModule, mode: str) -> List[np.ndarray]:
    if mode not in ("quick", "full-endos"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "full-endos":
        perms = invertible_endomorphisms(module)
        if len(perms) != aut_order(module):
            raise OrbitPairsError(f"{len(perms)} automorphisms, but |Aut M| = {aut_order(module)}")
        return perms
    elements = module.elements()
    return [endo_permutation(module, g, elements) for g in aut_generators(module)]


def _element_ideals(module: ExplicitModule, elements: np.ndarray) -> Callable[[int], OrderIdeal]:
    """ideal(i): the invariant ideal of element i.  ideal_of depends only on
    the valuation profile (one valuation per coordinate), so it runs once per
    profile read, on the first element with that profile."""
    p = module.p
    code = np.zeros(len(elements), dtype=np.int64)
    for column, k in zip(elements.T, module.exponents):
        code = code * (k + 1) + sum(column % p ** e == 0 for e in range(1, k + 1))
    _, first, profile = np.unique(code, return_index=True, return_inverse=True)
    ideals: dict[int, OrderIdeal] = {}

    def ideal(i: int) -> OrderIdeal:
        j = profile[i]
        if j not in ideals:
            ideals[j] = module.ideal_of(elements[first[j]].tolist())
        return ideals[j]
    return ideal


def _check_pair_budget(module: ExplicitModule):
    if module.size ** 2 > PAIR_BUDGET:
        raise BudgetExceeded(f"pair space {module.size ** 2} exceeds budget {PAIR_BUDGET}")


def orbits(module: ExplicitModule, space: Literal["elements", "pairs"] = "elements",
           mode: str = "quick", perms: List[np.ndarray] = None, labels: np.ndarray = None,
           ideal: Callable[[int], OrderIdeal] = None) -> List[OrbitDescriptor]:
    """Orbit decomposition of the module (or of pairs under the diagonal
    action, closed on the element permutations), annotated with the
    invariant ideal(s) of the orbit's smallest index.  perms, labels and
    ideal, if given, are _group_perms(module, mode), closure_labels(perms,
    |M|) and _element_ideals(module, module.elements()), shared by calls."""
    if space not in ("elements", "pairs"):
        raise ValueError(f"unknown space {space!r}")
    perms = _group_perms(module, mode) if perms is None else perms
    if space == "pairs":
        _check_pair_budget(module)
    labels = closure_labels(perms, module.size) if labels is None else labels
    ideal = ideal or _element_ideals(module, module.elements())
    # Labels are orbit minima: the distinct labels are the representatives.
    counts = np.bincount(labels)
    reps = counts.nonzero()[0].tolist()
    if space == "elements":
        return [OrbitDescriptor(int(counts[r]), ideal(r)) for r in reps]
    # The pair orbit of (r, c) is r's orbit times c's orbit under Stab(r).
    F, out = pair_labels(perms, labels), []
    for r in reps:
        second = np.bincount(F[r])
        out += [OrbitDescriptor(int(counts[r] * second[c]), ideal(r), ideal(c))
                for c in second.nonzero()[0].tolist()]
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
    # Element orbits and profiles serve both calls, after the pair budget.
    _check_pair_budget(module)
    labels = closure_labels(perms, module.size)
    ideal = _element_ideals(module, module.elements())
    element_orbits = orbits(module, "elements", mode, perms, labels, ideal)
    checks.append(_check("element orbit count vs ideal count",
                         len(ideals), len(element_orbits)))
    sizes_by_ideal = {o.ideal: o.size for o in element_orbits}
    expected_sizes = {I: orbit_size(lam, I)(p) for I in ideals}
    checks.append(_check("element orbit sizes vs orbit size formula",
                         _render_map(expected_sizes), _render_map(sizes_by_ideal)))

    pair_orbits = orbits(module, "pairs", mode, perms, labels, ideal)
    checks.append(_check("pair orbit count vs n_lambda",
                         int(n_lambda(lam)(p)), len(pair_orbits)))

    expected_multiset: dict[int, int] = {}
    for I, census in zip(ideals, orbit_censuses(lam, ideals)):
        scale = orbit_size(lam, I)(p)
        for a, cnt in census.items():
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
