import re
import signal
import tracemalloc
from itertools import product
from math import isqrt

import numpy as np
import pytest
import sympy
from autgroup import aut_order, chain_order_bound, invertible_endomorphisms, pair_orbit_sizes
from cellcounts import is_subset
from hypothesis import given, settings
from hypothesis import strategies as st
from test_orbits import max_minus, union

from orbitpairs import cli, oracle, permgroups
from orbitpairs import orbits as orbits_module
from orbitpairs.errors import BudgetExceeded, OrbitPairsError
from orbitpairs.oracle import (ELEMENT_BUDGET, PAIR_BUDGET, ExplicitModule, _element_ideals,
                               _group_perms, _unit_generators, aut_generators,
                               endo_permutation, orbits, verify)
from orbitpairs.permgroups import _forest, _schreier, _unwind, closure_labels, pair_labels
from orbitpairs.orbits import n_lambda, orbit_size
from orbitpairs.posets import (OrderIdeal, Partition, Point, lattice, partitions_of,
                               require_context)
from orbitpairs.qpoly import ZERO


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


def ideal_of(module: ExplicitModule, coords) -> OrderIdeal:
    """Invariant ideal of an element, as reference: generated by one point
    (valuation, exponent) per nonzero coordinate."""
    return OrderIdeal.from_generators(Point(valuation(c, k, module.p), k)
                                      for c, k in zip(coords, module.exponents) if c)


def spy_ideals(monkeypatch) -> list:
    """The generator lists of every ideal the oracle builds, in order."""
    built = []

    class Spy:
        @staticmethod
        def from_generators(gens):
            built.append(sorted(gens))
            return OrderIdeal.from_generators(built[-1])
    monkeypatch.setattr(oracle, "OrderIdeal", Spy)
    return built


def sum_orbit_orbit(lam: Partition, I: OrderIdeal, J: OrderIdeal) -> list[OrderIdeal]:
    """Ideals K whose orbits make up orbit(I) + orbit(J).  Valid for residue
    fields with at least three elements (q >= 3)."""
    require_context(lam, I)
    require_context(lam, J)
    IJ = union(I, J)
    req = set(max_minus(I, J)) | set(max_minus(J, I))
    return [K for K in lattice(lam).ideals
            if is_subset(K, IJ) and req <= set(K.max_points)]


def all_coordinate_generators(module: ExplicitModule) -> list[np.ndarray]:
    """A larger generating set of the same group, as reference: the unit
    multiplications of every coordinate and all n(n - 1) transvections
    e_rs(p**max(0, k_r - k_s))."""
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
            if r != s:
                m = np.eye(n, dtype=np.int64)
                m[r, s] = p ** max(0, ks[r] - ks[s])
                gens.append(m)
    return gens


def generator_count(module: ExplicitModule) -> int:
    """Size of aut_generators(module): per block of b equal exponents, the
    unit generators of one coordinate, and a cycle and one transvection if
    b >= 2; and a pair of transvections between consecutive blocks."""
    ks = module.exponents
    blocks = set(ks)
    return (sum(len(_unit_generators(module.p, k)) + 2 * (ks.count(k) >= 2) for k in blocks)
            + 2 * max(len(blocks) - 1, 0))


def union_find_labels(perms, n: int, dims: int) -> list[int]:
    """Minimum flat index of each point's component in the graph on
    {0..n-1}^dims with an edge x -- g(x) (g acting on every factor) per
    permutation g.  Union by smaller root keeps each root its set's minimum."""
    parent = list(range(n ** dims))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def flat(point):
        idx = 0
        for c in point:
            idx = idx * n + c
        return idx

    for g in perms:
        for point in product(range(n), repeat=dims):
            a, b = find(flat(point)), find(flat(g[c] for c in point))
            parent[max(a, b)] = min(a, b)
    return [find(x) for x in range(n ** dims)]


def involution(order, k: int) -> np.ndarray:
    """Product of the k disjoint transpositions (order[0] order[1]),
    (order[2] order[3]), ..."""
    g = np.arange(len(order))
    for a, b in zip(order[0:2 * k:2], order[1:2 * k:2]):
        g[a], g[b] = b, a
    return g


PERM_SETS = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)).map(np.array), max_size=4)))
INVOLUTION_SETS = st.integers(2, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.builds(involution, st.permutations(range(n)),
                                   st.integers(0, n // 2)), min_size=1, max_size=4)))


def call_within(seconds: float, fn, *args):
    """fn(*args), raising TimeoutError after `seconds`: a hang should fail,
    not stall, a test."""
    if not hasattr(signal, "setitimer"):
        return fn(*args)

    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__} did not terminate within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def flat_pair_labels(perms, n: int) -> np.ndarray:
    """Flat pair orbit minima from the pair path: labels[x] * n + F[x, y]."""
    labels = closure_labels(perms, n)
    return (labels[:, None] * n + pair_labels(perms, labels)).ravel()


def closure_within(seconds: float, perms, n: int, dims: int) -> np.ndarray:
    """`closure_labels` (dims 1) or the pair path (dims 2) under
    call_within: a wrong stopping rule loops forever."""
    return call_within(seconds, closure_labels if dims == 1 else flat_pair_labels, perms, n)


class TestClosure:
    """`closure_labels` on elements and the pair path on pairs against a
    union-find over the generator edges."""

    def check(self, perms, n, dims):
        got = closure_within(5, perms, n, dims)
        assert got.shape == (n ** dims,)
        assert got.tolist() == union_find_labels(perms, n, dims)

    @settings(deadline=None, max_examples=60)
    @given(PERM_SETS, st.sampled_from([1, 2]))
    def test_random_permutations(self, case, dims):
        self.check(case[1], case[0], dims)

    @settings(deadline=None, max_examples=60)
    @given(INVOLUTION_SETS, st.sampled_from([1, 2]))
    def test_random_involutions(self, case, dims):
        self.check(case[1], case[0], dims)

    @pytest.mark.parametrize("n, dims", [(40, 1), (40, 2), (1000, 1)])
    def test_one_long_cycle(self, n, dims):
        cycle = np.roll(np.arange(n), 1)
        self.check([cycle], n, dims)
        # Pairs fall into n diagonal classes, labelled (0, d) -> d.
        expected = np.zeros(n) if dims == 1 else np.subtract.outer(
            np.arange(n), np.arange(n)).T % n
        assert np.array_equal(closure_within(5, [cycle], n, dims), expected.ravel())

    @pytest.mark.parametrize("dims", [1, 2])
    def test_involutions_need_a_second_round(self, dims):
        # After one pass over (2 3) then (1 3), point 2 still carries label 2;
        # only a second pass over (2 3) carries label 1 to it.
        perms = [np.array([0, 1, 3, 2]), np.array([0, 3, 2, 1])]
        self.check(perms, 4, dims)
        assert closure_within(5, perms, 4, 1).tolist() == [0, 1, 1, 1]

    @pytest.mark.parametrize("dims", [1, 2])
    def test_adjacent_transpositions(self, dims):
        n = 12
        perms = []
        for i in reversed(range(n - 1)):
            perms.append(np.arange(n))
            perms[-1][[i, i + 1]] = i + 1, i
        self.check(perms, n, dims)
        self.check(perms[::2], n, dims)

    def test_no_generators(self):
        self.check([], 5, 2)

    def test_label_dtype_holds_pair_budget(self):
        # Pair label rows hold element indices, all below the square root of
        # PAIR_BUDGET.
        assert np.iinfo(np.int16).max >= isqrt(PAIR_BUDGET) - 1
        assert pair_labels([], np.arange(2)).dtype == np.int16


class TestPairSeed:
    """The pair path's parts against their definitions: the witness forest
    reaches every element from its orbit minimum, inverse witnesses take
    their element to the minimum, Schreier generators fix the minimum, and the
    certified row labels F give every pair its orbit minimum, as a
    union-find over the generator edges does."""

    def check(self, perms, n):
        labels = closure_labels(perms, n)
        assert labels.tolist() == union_find_labels(perms, n, 1)
        forest = _forest(perms, labels)
        parent, edge, steps, inverses, levels = forest
        assert (np.take_along_axis(steps, inverses, 1) == np.arange(n)).all()
        assert sorted(np.concatenate(levels).tolist()) == list(range(n))
        assert (parent[levels[0]] == -1).all() and (labels[levels[0]] == levels[0]).all()
        for above, level in zip(levels, levels[1:]):
            assert np.isin(parent[level], above).all()
            assert (steps[edge[level], parent[level]] == level).all()
        # Row x of U is t_x^-1, which takes x to its root.
        U = _unwind(forest, range(n), np.tile(np.arange(n, dtype=np.int16), (n, 1)))
        assert (U[np.arange(n), np.arange(n)] == labels).all()
        for r in np.unique(labels).tolist():
            schreier = _schreier(perms, forest, (labels == r).nonzero()[0][[0, -1]])
            assert (schreier[:, r] == r).all()
            assert all(sorted(s) == list(range(n)) for s in schreier.tolist())
        F = call_within(5, pair_labels, perms, labels)
        assert F.shape == (n, n) and F.dtype == np.int16
        assert (labels[:, None] * n + F).ravel().tolist() == union_find_labels(perms, n, 2)

    @settings(deadline=None, max_examples=60)
    @given(PERM_SETS)
    def test_random_permutations(self, case):
        self.check(case[1], case[0])

    @settings(deadline=None, max_examples=60)
    @given(INVOLUTION_SETS)
    def test_random_involutions(self, case):
        self.check(case[1], case[0])

    def test_no_generators(self):
        self.check([], 5)
        assert flat_pair_labels([], 5).tolist() == list(range(25))

    def test_one_long_cycle(self):
        # The powers g^2, g^4, ... reach distance d in popcount(d) edges.
        cycle = np.roll(np.arange(40), 1)
        self.check([cycle], 40)
        assert len(_forest([cycle], np.zeros(40, dtype=np.intp))[4]) <= 1 + (40).bit_length()

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_blocks_of_one_row(self, chunk, monkeypatch):
        # Generator blocks, forest blocks and row blocks of one or a few rows
        # give the same labels as whole arrays.
        monkeypatch.setattr(permgroups, "_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for n, k in [(6, 9), (12, 5), (20, 3)]:
            self.check([rng.permutation(n) for _ in range(k)], n)
        m = ExplicitModule.from_partition(Partition.parse("2,1"), 2)
        self.check(invertible_endomorphisms(m), m.size)

    @pytest.mark.parametrize("text", ["1^10", "2^5", "4,3,2,1", "5,3,1^2"])
    def test_temporaries_stay_in_chunks(self, text):
        # Past F itself, the pair path's gathers, scatters and comparisons
        # hold a few _CHUNK-entry blocks at a time, far below |M|^2 entries.
        m = ExplicitModule.from_partition(Partition.parse(text), 2)
        perms = _group_perms(m)
        labels = closure_labels(perms, m.size)
        tracemalloc.start()
        try:
            F = pair_labels(perms, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - F.nbytes <= 64 * permgroups._CHUNK

    @pytest.mark.parametrize("text, p, sample", [("4,2", 2, True), ("2,1", 3, False),
                                                 ("1^2", 5, False)])
    def test_repair_stays_exact(self, text, p, sample, monkeypatch):
        # A row that fails the certificate adds its Schreier generators to
        # its orbit's sample.  On 4,2@2 the sample at each orbit's smallest
        # and largest element misses part of a stabilizer; with that sample
        # emptied (the seed's sample is taken at two rows, a repair's at
        # one), the repairs alone find every stabilizer.
        repairs = []
        real = permgroups._schreier

        def schreier(perms, forest, xs):
            if len(xs) == 1:
                repairs.append(xs[0])
            rows = real(perms, forest, xs)
            return rows if sample or len(xs) == 1 else rows[:0]
        monkeypatch.setattr(permgroups, "_schreier", schreier)
        m = ExplicitModule.from_partition(Partition.parse(text), p)
        perms = _group_perms(m)
        got = call_within(10, flat_pair_labels, perms, m.size)
        assert repairs
        assert got.tolist() == union_find_labels(perms, m.size, 2)


class TestPrimitives:
    def test_valuation(self):
        assert valuation(0, 3, 2) == 3
        assert valuation(4, 3, 2) == 2
        assert valuation(6, 3, 2) == 1
        assert valuation(9, 3, 3) == 2
        with pytest.raises(ValueError):
            valuation(8, 3, 2)

    def test_module_shape(self):
        m = ExplicitModule.from_partition(Partition.parse("2,1"), 2)
        assert m.size == 8
        assert m.coordinate_sizes == (4, 2)
        els = m.elements()
        assert els.shape == (8, 2)
        identity = np.eye(len(m.exponents), dtype=np.int64)
        assert np.array_equal(endo_permutation(m, identity, els), np.arange(m.size))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            ExplicitModule.from_partition(Partition.parse("7,7"), 2)

    @pytest.mark.parametrize("shape", ["1^999999999", "99999999999999999999999", "4000000"])
    def test_budget_checked_before_building(self, shape):
        # |lambda| >= 13 exceeds the budget at any p: neither the part list
        # nor p**|lambda|, too long to print here, is built.
        lam = Partition.parse(shape)
        with pytest.raises(BudgetExceeded, match=re.escape(f"|M| = 2^{lam.weight} exceeds")):
            call_within(2, verify, lam, 2)

    def test_ideal_of(self):
        # Built directly: this shape is only used for invariants, never for
        # a full orbit enumeration, so the element budget does not apply.
        m = ExplicitModule(2, (5, 4, 4, 2, 1))
        # Representative with coordinates (0, 2u, 4, 2v, 1) for units u, v.
        # (4,5) and (3,4) are both below (1,2), which alone stays maximal.
        cases = {(0, 2, 4, 2, 1): "1:4,0:1", (0, 6, 4, 2, 1): "1:4,0:1",
                 (0, 0, 0, 0, 0): "", (16, 8, 8, 2, 0): "1:2"}
        ideal = _element_ideals(m, np.array(list(cases), dtype=np.int64))
        for i, (coords, expected) in enumerate(cases.items()):
            assert str(ideal_of(m, coords)) == expected
            assert str(ideal(i)) == expected

    def test_generators_are_invertible(self):
        # The orbit closure needs bijective generators.  Covers every shape of
        # the oracle grids: p = 2 up to |lambda| = 5, p = 3 up to 5, p = 5 up to 4.
        for p, top in [(2, 5), (3, 5), (5, 4)]:
            for lam in (lam for m in range(1, top + 1) for lam in partitions_of(m)):
                m = ExplicitModule.from_partition(lam, p)
                els = m.elements()
                for g in aut_generators(m):
                    perm = endo_permutation(m, g, els)
                    assert len(np.unique(perm)) == m.size, (str(lam), p)

    def test_generators_generate_the_same_group(self):
        # The block cycles, transvections and one coordinate's units per
        # block close elements and pairs into the orbits of the full
        # coordinate set, on every module of the benchmark's verify grid,
        # p = 2 up to |lambda| = 6, and blocks of 3 at other primes and
        # exponents.
        grid = [lam for m in range(1, 7) for lam in partitions_of(m)]
        jobs = [(lam, p) for p, top in [(3, 5), (5, 4), (2, 6)]
                for lam in grid if lam.weight <= top]
        jobs += [(Partition.parse(text), p)
                 for text, p in [("1^3", 5), ("1^3", 7), ("2^3", 3), ("3^3", 2)]]
        for lam, p in jobs:
            m = ExplicitModule.from_partition(lam, p)
            assert m.size ** 2 <= PAIR_BUDGET
            gens = aut_generators(m)
            assert len(gens) == generator_count(m), (str(lam), p)
            els = m.elements()
            new = [endo_permutation(m, g, els) for g in gens]
            old = [endo_permutation(m, g, els) for g in all_coordinate_generators(m)]
            assert np.array_equal(closure_labels(old, m.size), closure_labels(new, m.size))
            assert np.array_equal(flat_pair_labels(old, m.size),
                                  flat_pair_labels(new, m.size)), (str(lam), p)

    @pytest.mark.parametrize("text, p, count", [("1^10", 2, 2), ("2^5", 2, 3), ("1^4", 5, 3)])
    def test_one_block_takes_at_most_three_generators(self, text, p, count):
        # A block's units (none for Z/2, -1 for Z/4, 2 for Z/5), its cycle
        # and one transvection, however many coordinates it has.
        m = ExplicitModule.from_partition(Partition.parse(text), p)
        assert len(aut_generators(m)) == generator_count(m) == count

    def test_generators_of_unsorted_exponents(self):
        # Blocks and adjacency follow the exponents' order, not the
        # coordinates' order.
        m = ExplicitModule(3, (1, 2, 1))
        els = m.elements()
        gens = aut_generators(m)
        # The block 2 (one unit), then the block 1, 1 (one unit, a cycle, a
        # transvection), and the pair between them.
        assert len(gens) == generator_count(m) == 1 + 3 + 2
        new = [endo_permutation(m, g, els) for g in gens]
        old = [endo_permutation(m, g, els) for g in all_coordinate_generators(m)]
        assert np.array_equal(flat_pair_labels(old, m.size), flat_pair_labels(new, m.size))

    def test_full_endo_count(self):
        # Automorphisms of Z/p^2 + Z/p number p^3 * (1-1/p)^2 * p.
        m = ExplicitModule.from_partition(Partition.parse("2,1"), 2)
        assert len(invertible_endomorphisms(m)) == 8
        m = ExplicitModule.from_partition(Partition.parse("1,1"), 2)
        assert len(invertible_endomorphisms(m)) == 6  # |GL_2(F_2)|

    def test_aut_order_matches_enumeration(self):
        # Hillar and Rhea's closed form, on every shape whose quick pair
        # orbits are compared with the enumeration's below.
        for p, top in [(2, 4), (3, 3), (5, 2)]:
            for lam in (lam for m in range(1, top + 1) for lam in partitions_of(m)):
                m = ExplicitModule.from_partition(lam, p)
                assert aut_order(m) == len(invertible_endomorphisms(m)), (str(lam), p)


class TestCertificate:
    """aut_generators gives all of Aut M on every module whose group verify
    builds: p prime up to ELEMENT_BUDGET and |M|^2 up to PAIR_BUDGET, so
    p^|lambda| up to isqrt(PAIR_BUDGET), the empty shape at every such p."""

    TOP = min(ELEMENT_BUDGET, isqrt(PAIR_BUDGET))
    PRIMES = list(sympy.primerange(2, ELEMENT_BUDGET + 1))

    def test_generators_give_aut_m(self):
        # Each generator is an endomorphism, its entry (r, s) divisible by
        # p^max(0, k_r - k_s), and its element permutation a bijection, so
        # the generated group G lies in Aut M; a stabilizer chain bounds |G|
        # from below, and the bound reaching |Aut M| proves G = Aut M.
        rng = np.random.default_rng(33)
        modules = [ExplicitModule.from_partition(lam, p) for p in self.PRIMES
                   for n in range(self.TOP.bit_length()) if p ** n <= self.TOP
                   for lam in partitions_of(n)]
        assert len(modules) == 930 and max(m.size for m in modules) ** 2 <= PAIR_BUDGET
        for m in modules:
            ks = np.array(m.exponents, dtype=np.int64)
            divisors = np.int64(m.p) ** np.maximum(0, ks[:, None] - ks[None, :])
            els = m.elements()
            for g in aut_generators(m):
                assert not (g % divisors).any(), (m, g)
                assert len(np.unique(endo_permutation(m, g, els))) == m.size, (m, g)
            assert chain_order_bound(_group_perms(m), m.size, rng) == aut_order(m), m

    def test_first_module_past_the_domain_is_refused(self, monkeypatch):
        # At each prime, every shape of the least weight past the certified
        # domain (and the empty shape at the first prime past ELEMENT_BUDGET)
        # is refused before any group is built, so a change of budget cannot
        # run a module the certificate above has not covered.
        monkeypatch.setattr(oracle, "_group_perms", lambda module: pytest.fail("group built"))
        first_past = sympy.nextprime(ELEMENT_BUDGET)
        jobs = [(Partition(), first_past)]
        for p in self.PRIMES:
            n = next(n for n in range(self.TOP.bit_length() + 1) if p ** n > self.TOP)
            jobs += [(lam, p) for lam in partitions_of(n)]
        for lam, p in jobs:
            with pytest.raises(BudgetExceeded):
                verify(lam, p)


class TestOrbits:
    def test_single_coordinate(self):
        m = ExplicitModule.from_partition(Partition.parse("1"), 3)
        got = sorted(size for _, size in orbits(m)[0])
        assert got == [1, 2]

    def test_element_orbit_sizes_match_formula(self):
        for text, p in [("2,1", 2), ("3,1", 2), ("2,2,1", 2), ("2,1", 3)]:
            lam = Partition.parse(text)
            m = ExplicitModule.from_partition(lam, p)
            by_ideal = dict(orbits(m)[0])
            assert set(by_ideal) == set(lattice(lam).ideals)
            for I, size in by_ideal.items():
                assert size == orbit_size(lam, I)(p)

    def test_invariant_is_constant_on_orbits(self):
        lam = Partition.parse("3,1")
        m = ExplicitModule.from_partition(lam, 2)
        els = m.elements()
        perms = [endo_permutation(m, g, els) for g in aut_generators(m)]
        for perm in perms:
            for i in range(m.size):
                assert ideal_of(m, els[i].tolist()) == ideal_of(m, els[perm[i]].tolist())

    def test_pair_orbit_count(self):
        m = ExplicitModule.from_partition(Partition.parse("2"), 2)
        pair_sizes = orbits(m)[1]
        # Published count at q=2 for the shape (2): q^2+2q+2 evaluates to 10.
        assert pair_sizes.total() == 10
        assert sum(pair_sizes.elements()) == m.size ** 2

    def test_pair_orbits_at_budget(self):
        # |M|^2 = PAIR_BUDGET, closed under 3 generators: the block's unit
        # -1, the cycle of its 5 coordinates and one transvection.
        lam = Partition.parse("2^5")
        m = ExplicitModule.from_partition(lam, 2)
        assert m.size ** 2 == PAIR_BUDGET
        assert len(aut_generators(m)) == generator_count(m) == 3
        pair_sizes = orbits(m)[1]
        assert pair_sizes.total() == int(n_lambda(lam)(2))
        assert sum(pair_sizes.elements()) == PAIR_BUDGET

    def test_quick_and_full_endos_agree(self):
        for p, top in [(2, 4), (3, 3), (5, 2)]:
            for lam in (lam for m in range(1, top + 1) for lam in partitions_of(m)):
                m = ExplicitModule.from_partition(lam, p)
                quick = sorted(orbits(m)[1].elements())
                full = pair_orbit_sizes(invertible_endomorphisms(m), m.size)
                assert quick == full, (str(lam), p)


class TestSumOfOrbits:
    def test_against_explicit_sums(self):
        # orbit(I) + orbit(J) decomposes into exactly the predicted orbits
        # (valid for residue fields with at least three elements).
        p = 3
        for text in ["2,1", "3", "2,2"]:
            lam = Partition.parse(text)
            m = ExplicitModule.from_partition(lam, p)
            els = m.elements()
            sizes = np.array(m.coordinate_sizes)
            by_ideal = {}
            for row in els:
                by_ideal.setdefault(ideal_of(m, row.tolist()), []).append(row)
            for I in lattice(lam).ideals:
                for J in lattice(lam).ideals:
                    got = set()
                    for a in by_ideal[I]:
                        for b in by_ideal[J]:
                            got.add(ideal_of(m, ((a + b) % sizes).tolist()))
                    expected = set(sum_orbit_orbit(lam, I, J))
                    assert got == expected, (text, str(I), str(J))


class TestVerify:
    def test_reports_pass(self):
        report = verify(Partition.parse("2,1"), 2)
        assert report["pass"]
        assert len(report["checks"]) == 5

    def test_one_cell_batch_per_shape(self, monkeypatch):
        # The pair count and census checks read the refined grid, which
        # builds no cell batch; the only batch is n_lambda's of the capped
        # shape, on a cold n_lambda memo, and none once it is memoized.
        monkeypatch.setattr(orbits_module, "_N_LAMBDA", {})
        built = []
        real = orbits_module._cells
        monkeypatch.setattr(orbits_module, "_cells",
                            lambda block: built.append((" ".join(map(str, block.shapes)),
                                                        block.owner.size)) or real(block))
        lam = Partition.parse("2^2,1")
        assert verify(lam, 2)["pass"]
        assert built == [("2^2,1", len(lattice(lam).ideals))]
        for expected in ([("1^2", 2)], []):
            built.clear()
            assert verify(Partition.parse("1^3"), 2)["pass"]
            assert built == expected

    def test_cap_invariance_checked(self, monkeypatch, capsys):
        # A shape's own sum over the refined grid must equal the capped
        # n_lambda: a disagreement is an internal error (exit 2) and prints
        # no report, past the cap or not.
        monkeypatch.setattr(oracle, "n_lambda", lambda lam: n_lambda(lam) + 1)
        with pytest.raises(OrbitPairsError, match="uncapped"):
            verify(Partition.parse("1^3"), 2)
        assert cli.main(["verify", "1^3", "2"]) == 2
        assert capsys.readouterr().out == ""
        with pytest.raises(OrbitPairsError, match="uncapped"):
            verify(Partition.parse("2,1"), 2)

    def test_refined_grid_checked_against_n_lambda(self, monkeypatch, capsys):
        # One census entry dropped from the refined grid of a capped shape
        # leaves its pairs short of n_lambda: exit 2, and no report.
        real = oracle.refined_censuses

        def dropped(lam):
            grid = real(lam)
            census = next(c for row in grid for c in row if c)
            del census[next(iter(census))]
            return grid

        monkeypatch.setattr(oracle, "refined_censuses", dropped)
        with pytest.raises(OrbitPairsError, match="uncapped"):
            verify(Partition.parse("2,1"), 2)
        assert cli.main(["verify", "2,1", "2"]) == 2
        assert capsys.readouterr().out == ""

    def test_refined_grid_checked_for_symmetry(self, monkeypatch, capsys):
        # Two off-diagonal censuses of different totals swapped within one
        # row: every row total, and so the grand total against n_lambda,
        # stays, but (I, L) no longer matches (L, I): exit 2, and no report.
        real = oracle.refined_censuses

        def swapped(lam):
            grid = real(lam)
            for i, row in enumerate(grid):
                totals = [sum(census.values(), ZERO) for census in row]
                off = [j for j in range(len(row)) if j != i]
                pair = next(((a, b) for a in off for b in off if totals[a] != totals[b]), None)
                if pair:
                    a, b = pair
                    row[a], row[b] = row[b], row[a]
                    return grid
            raise AssertionError(f"no row of {lam} to swap in")

        monkeypatch.setattr(oracle, "refined_censuses", swapped)
        with pytest.raises(OrbitPairsError, match="refined totals of 2,1"):
            verify(Partition.parse("2,1"), 2)
        assert cli.main(["verify", "2,1", "2"]) == 2
        assert capsys.readouterr().out == ""

    def test_group_built_once(self, monkeypatch):
        # Both orbit closures share one list of element permutations.
        built = []
        real = oracle._group_perms
        monkeypatch.setattr(oracle, "_group_perms",
                            lambda module: built.append(module) or real(module))
        assert verify(Partition.parse("2,1"), 2)["pass"]
        assert built == [ExplicitModule(2, (2, 1))]

    def test_element_labels_computed_once(self, monkeypatch):
        # One closure of the group gives the element orbits, and the pair
        # path reads those labels instead of closing the group again.
        groups, closures, pair_paths = [], [], []
        real_group, real_pairs = oracle._group_perms, oracle.pair_labels
        real_closure = oracle.closure_labels
        monkeypatch.setattr(oracle, "_group_perms",
                            lambda module: groups.append(real_group(module)) or groups[-1])

        def closure(perms, n):
            labels = real_closure(perms, n)
            if perms is groups[0]:
                closures.append(labels)
            return labels
        monkeypatch.setattr(oracle, "closure_labels", closure)
        monkeypatch.setattr(oracle, "pair_labels", lambda perms, labels: pair_paths.append(
            perms is groups[0] and labels is closures[0]) or real_pairs(perms, labels))
        assert verify(Partition.parse("2,1"), 3)["pass"]
        assert len(closures) == 1
        assert pair_paths == [True]

    def test_pair_budget_checked_before_pair_labels(self, monkeypatch):
        # |M| = 4096 fits the element budget, but neither its group, its
        # element orbits nor its (|M|, |M|) pair labels are computed: the
        # pair space is over budget.
        monkeypatch.setattr(oracle, "_group_perms",
                            lambda module: pytest.fail("group built"))
        monkeypatch.setattr(oracle, "closure_labels",
                            lambda perms, n: pytest.fail("element orbits closed"))
        monkeypatch.setattr(oracle, "pair_labels",
                            lambda perms, labels: pytest.fail("pair labels built"))
        with pytest.raises(BudgetExceeded, match="pair space"):
            verify(Partition.parse("2^6"), 2)
        with pytest.raises(BudgetExceeded, match="pair space"):
            orbits(ExplicitModule.from_partition(Partition.parse("2^6"), 2))
        with pytest.raises(BudgetExceeded, match="pair space 4194304"):
            verify(Partition.parse("8,3"), 2)

    def test_ideal_read_once_per_element(self, monkeypatch):
        # Pair orbit representatives share valuation profiles: one ideal is
        # built per profile, from that profile's generators.
        built = spy_ideals(monkeypatch)
        module = ExplicitModule.from_partition(Partition.parse("2,1"), 2)
        orbits(module)
        profiles = {tuple(sorted(Point(valuation(c, k, module.p), k)
                                 for c, k in zip(coords, module.exponents) if c))
                    for coords in module.elements().tolist()}
        assert len(profiles) == (2 + 1) * (1 + 1)
        assert sorted(map(tuple, built)) == sorted(profiles)

    def test_ideal_read_once_per_job(self, monkeypatch):
        # Element and pair orbits of a verify job share one valuation-profile
        # table.
        built = spy_ideals(monkeypatch)
        assert verify(Partition.parse("2,1"), 2)["pass"]
        assert len(built) == len(set(map(tuple, built))) == (2 + 1) * (1 + 1)

    @pytest.mark.parametrize("text, p", [("3,2,1", 2), ("2^2,1", 3), ("4", 5)])
    def test_ideal_per_profile(self, text, p):
        # Every element's looked-up ideal is the reference ideal_of of its
        # own coordinates.
        m = ExplicitModule.from_partition(Partition.parse(text), p)
        els = m.elements()
        ideal = _element_ideals(m, els)
        for i, coords in enumerate(els.tolist()):
            assert ideal(i) == ideal_of(m, coords), (text, p, coords)

    @pytest.mark.parametrize("p", [2, 3])
    def test_empty_module(self, p):
        # The zero module: one element and one pair.
        report = verify(Partition(), p)
        assert report["pass"] and len(report["checks"]) == 5
        elements, pair_sizes, pair_ideals = orbits(ExplicitModule.from_partition(Partition(), p))
        empty = OrderIdeal.from_generators([])
        assert elements == [(empty, 1)] and pair_sizes == {1: 1}
        assert pair_ideals == {(empty, empty): 1}

    def test_count_check_counts_orbits(self, monkeypatch):
        # With every element read as the empty ideal, the four element orbits
        # still count as four: the check counts orbits, not distinct ideals.
        empty = OrderIdeal.from_generators([])
        monkeypatch.setattr(oracle, "_element_ideals", lambda module, elements: lambda i: empty)
        checks = {c["name"]: c for c in verify(Partition.parse("2,1"), 3)["checks"]}
        count = checks["element orbit count vs ideal count"]
        assert count["expected"] == count["actual"] == 4 and count["pass"]
        assert not checks["element orbit sizes vs orbit size formula"]["pass"]

    def test_odd_characteristic(self):
        assert verify(Partition.parse("2,1"), 3)["pass"]

    @pytest.mark.parametrize("text, p", [("4", 5), ("6", 3), ("10", 2)])
    def test_cyclic_modules(self, text, p):
        # Long generator cycles: one closure step per cycle point would take
        # hundreds of rounds here.
        assert verify(Partition.parse(text), p)["pass"]
