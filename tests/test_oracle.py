import re
import signal
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_orbits import max_minus, union

from orbitpairs import oracle
from orbitpairs import orbits as orbits_module
from orbitpairs.errors import BudgetExceeded
from orbitpairs.oracle import (PAIR_BUDGET, ExplicitModule, _closure_labels,
                               _element_ideals, _group_perms, _pair_seed,
                               _transversal, _unit_generators, aut_generators,
                               endo_permutation, invertible_endomorphisms,
                               orbits, valuation, verify)
from orbitpairs.orbits import n_lambda, orbit_size
from orbitpairs.posets import (OrderIdeal, Partition, lattice, partitions_of,
                               require_context)


def sum_orbit_orbit(lam: Partition, I: OrderIdeal, J: OrderIdeal) -> list[OrderIdeal]:
    """Ideals K whose orbits make up orbit(I) + orbit(J).  Valid for residue
    fields with at least three elements (q >= 3)."""
    require_context(lam, I)
    require_context(lam, J)
    IJ = union(I, J)
    req = set(max_minus(I, J)) | set(max_minus(J, I))
    return [K for K in lattice(lam).ideals
            if K.is_subset_of(IJ) and req <= set(K.max_points)]


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
    """Size of aut_generators(module): the unit generators of one coordinate
    per block of equal exponents, and 2(n - 1) adjacent transvections."""
    ks = module.exponents
    return (sum(len(_unit_generators(module.p, k)) for k in set(ks))
            + 2 * max(len(ks) - 1, 0))


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


def closure_within(seconds: float, perms, n: int, dims: int, start=None) -> np.ndarray:
    """`_closure_labels` under call_within: a wrong stopping rule loops
    forever."""
    return call_within(seconds, _closure_labels, perms, n, dims, start)


class TestClosure:
    """`_closure_labels` against a union-find over the generator edges."""

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
        # Labels are flat pair indices, all below PAIR_BUDGET.
        labels = _closure_labels([], 2, 2)
        assert np.iinfo(labels.dtype).max >= PAIR_BUDGET - 1


class TestPairSeed:
    """`_pair_seed` against a union-find over the generator edges: every seed
    label lies in its pair's orbit and is at most the pair's flat index, so
    the closure started there ends at the same minima."""

    def check(self, perms, n):
        expected = union_find_labels(perms, n, 2)
        seed = _pair_seed(perms, n)
        assert seed.shape == (n * n,) and seed.dtype == np.int32
        for i, s in enumerate(seed.tolist()):
            assert s <= i and expected[s] == expected[i], (i, s)
        labels, V = _transversal(perms, n)
        assert labels.tolist() == union_find_labels(perms, n, 1)
        assert V[np.arange(n), np.arange(n)].tolist() == labels.tolist()
        assert closure_within(5, perms, n, 2, seed).tolist() == expected

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
        assert _pair_seed([], 5).tolist() == list(range(25))

    def test_one_long_cycle(self):
        self.check([np.roll(np.arange(40), 1)], 40)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_blocks_of_one_row(self, chunk, monkeypatch):
        # Generator blocks, pointer-jump chunks and seed chunks of one or a
        # few rows give the same labels as whole arrays.
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for n, k in [(6, 9), (12, 5), (20, 3)]:
            self.check([rng.permutation(n) for _ in range(k)], n)
        m = ExplicitModule.from_partition(Partition.parse("2,1"), 2)
        self.check(_group_perms(m, "full-endos"), m.size)

    def test_seed_is_final_on_verify_grid(self):
        # On every module of the benchmark's verify grid, the Schreier
        # generators at each orbit's smallest and largest element already
        # give every pair its orbit minimum: the closure only certifies.
        for p, top in [(3, 5), (5, 4)]:
            for lam in (lam for m in range(1, top + 1) for lam in partitions_of(m)):
                m = ExplicitModule.from_partition(lam, p)
                perms = _group_perms(m, "quick")
                seed = _pair_seed(perms, m.size)
                assert np.array_equal(seed, _closure_labels(perms, m.size, 2)), (str(lam), p)


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
        assert np.array_equal(endo_permutation(m, identity), np.arange(m.size))

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
        assert str(m.ideal_of((0, 2, 4, 2, 1))) == "1:4,0:1"
        assert str(m.ideal_of((0, 6, 4, 2, 1))) == "1:4,0:1"
        assert str(m.ideal_of((0, 0, 0, 0, 0))) == ""
        # (4,5) and (3,4) are both below (1,2), which alone stays maximal.
        assert str(m.ideal_of((16, 8, 8, 2, 0))) == "1:2"

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
        # The adjacent transvections and one block's units close elements
        # and pairs into the orbits of the full coordinate set, on every
        # module of the benchmark's verify grid and p = 2 up to |lambda| = 6.
        for p, top in [(3, 5), (5, 4), (2, 6)]:
            for lam in (lam for m in range(1, top + 1) for lam in partitions_of(m)):
                m = ExplicitModule.from_partition(lam, p)
                assert m.size ** 2 <= PAIR_BUDGET
                gens = aut_generators(m)
                assert len(gens) == generator_count(m), (str(lam), p)
                els = m.elements()
                new = [endo_permutation(m, g, els) for g in gens]
                old = [endo_permutation(m, g, els) for g in all_coordinate_generators(m)]
                for dims in (1, 2):
                    assert np.array_equal(_closure_labels(old, m.size, dims),
                                          _closure_labels(new, m.size, dims)), (str(lam), p, dims)

    def test_generators_of_unsorted_exponents(self):
        # Blocks and adjacency follow the exponents' order, not the
        # coordinates' order.
        m = ExplicitModule(3, (1, 2, 1))
        els = m.elements()
        gens = aut_generators(m)
        assert len(gens) == generator_count(m) == 2 + 4
        new = [endo_permutation(m, g, els) for g in gens]
        old = [endo_permutation(m, g, els) for g in all_coordinate_generators(m)]
        assert np.array_equal(_closure_labels(old, m.size, 2), _closure_labels(new, m.size, 2))

    def test_full_endo_count(self):
        # Automorphisms of Z/p^2 + Z/p number p^3 * (1-1/p)^2 * p.
        m = ExplicitModule.from_partition(Partition.parse("2,1"), 2)
        assert len(invertible_endomorphisms(m)) == 8
        m = ExplicitModule.from_partition(Partition.parse("1,1"), 2)
        assert len(invertible_endomorphisms(m)) == 6  # |GL_2(F_2)|


class TestOrbits:
    def test_single_coordinate(self):
        m = ExplicitModule.from_partition(Partition.parse("1"), 3)
        got = sorted(o.size for o in orbits(m))
        assert got == [1, 2]

    def test_element_orbit_sizes_match_formula(self):
        for text, p in [("2,1", 2), ("3,1", 2), ("2,2,1", 2), ("2,1", 3)]:
            lam = Partition.parse(text)
            m = ExplicitModule.from_partition(lam, p)
            by_ideal = {o.ideal: o.size for o in orbits(m)}
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
                assert m.ideal_of(els[i].tolist()) == \
                    m.ideal_of(els[perm[i]].tolist())

    def test_pair_orbit_count(self):
        m = ExplicitModule.from_partition(Partition.parse("2"), 2)
        pairs = orbits(m, "pairs")
        # Published count at q=2 for the shape (2): q^2+2q+2 evaluates to 10.
        assert len(pairs) == 10
        assert sum(o.size for o in pairs) == m.size ** 2

    def test_pair_orbits_at_budget(self):
        # |M|^2 = PAIR_BUDGET, closed under 9 generators: one block's units
        # and 2(n - 1) adjacent transvections.
        lam = Partition.parse("2^5")
        m = ExplicitModule.from_partition(lam, 2)
        assert m.size ** 2 == PAIR_BUDGET
        assert len(aut_generators(m)) == generator_count(m) == 9
        pairs = orbits(m, "pairs")
        assert len(pairs) == int(n_lambda(lam)(2))
        assert sum(o.size for o in pairs) == PAIR_BUDGET

    def test_quick_and_full_endos_agree(self):
        for p, top in [(2, 4), (3, 3), (5, 2)]:
            for lam in (lam for m in range(1, top + 1) for lam in partitions_of(m)):
                m = ExplicitModule.from_partition(lam, p)
                quick = sorted(o.size for o in orbits(m, "pairs", "quick"))
                full = sorted(o.size for o in orbits(m, "pairs", "full-endos"))
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
                by_ideal.setdefault(m.ideal_of(row.tolist()), []).append(row)
            for I in lattice(lam).ideals:
                for J in lattice(lam).ideals:
                    got = set()
                    for a in by_ideal[I]:
                        for b in by_ideal[J]:
                            got.add(m.ideal_of(((a + b) % sizes).tolist()))
                    expected = set(sum_orbit_orbit(lam, I, J))
                    assert got == expected, (text, str(I), str(J))


class TestVerify:
    def test_reports_pass(self):
        report = verify(Partition.parse("2,1"), 2)
        assert report["pass"]
        assert len(report["checks"]) == 5

    def test_full_endos_mode(self):
        report = verify(Partition.parse("2,1"), 2, "full-endos")
        assert report["pass"]

    @pytest.mark.parametrize("mode", ["full", "", "Quick"])
    def test_unknown_mode_rejected(self, mode):
        # Any mode but quick and full-endos is an error, not a quick run.
        with pytest.raises(ValueError, match="unknown mode"):
            verify(Partition.parse("2,1"), 2, mode)
        with pytest.raises(ValueError, match="unknown mode"):
            orbits(ExplicitModule.from_partition(Partition.parse("2,1"), 2), "pairs", mode)

    def test_one_cell_batch_per_shape(self, monkeypatch):
        # The census check reads every first ideal's census from one batch;
        # n_lambda's own batch is warmed and memoized beforehand.
        lam = Partition.parse("2^2,1")
        n_lambda(lam)
        built = []
        real = orbits_module._cells
        monkeypatch.setattr(orbits_module, "_cells",
                            lambda lam, fv, fk: built.append(len(fv)) or real(lam, fv, fk))
        assert verify(lam, 2)["pass"]
        assert built == [len(lattice(lam).ideals)]

    @pytest.mark.parametrize("mode", ["quick", "full-endos"])
    def test_group_built_once(self, mode, monkeypatch):
        # Both orbit closures share one list of element permutations.
        built = []
        real = oracle._group_perms
        monkeypatch.setattr(oracle, "_group_perms",
                            lambda module, m: built.append(m) or real(module, m))
        assert verify(Partition.parse("2,1"), 2, mode)["pass"]
        assert built == [mode]

    @pytest.mark.parametrize("mode", ["quick", "full-endos"])
    def test_element_labels_computed_once(self, mode, monkeypatch):
        # One transversal gives the element orbits and seeds the pairs; the
        # group's own closure then runs once, on pairs.
        groups, transversals, closures = [], [], []
        real_group, real_transversal = oracle._group_perms, oracle._transversal
        real_closure = oracle._closure_labels
        monkeypatch.setattr(oracle, "_group_perms",
                            lambda module, m: groups.append(real_group(module, m)) or groups[-1])
        monkeypatch.setattr(oracle, "_transversal", lambda perms, n: transversals.append(
            perms is groups[0]) or real_transversal(perms, n))
        monkeypatch.setattr(oracle, "_closure_labels", lambda perms, n, dims, start=None: (
            perms is groups[0] and closures.append(dims)) or real_closure(perms, n, dims, start))
        assert verify(Partition.parse("2,1"), 3, mode)["pass"]
        assert transversals == [True]
        assert closures == [2]

    def test_pair_budget_checked_before_transversal(self, monkeypatch):
        # |M| = 4096 fits the element budget, but its (|M|, |M|) transversal
        # table is not built: the pair space is over budget.
        monkeypatch.setattr(oracle, "_transversal",
                            lambda perms, n: pytest.fail("transversal built"))
        with pytest.raises(BudgetExceeded, match="pair space"):
            verify(Partition.parse("2^6"), 2)

    def test_ideal_read_once_per_element(self, monkeypatch):
        # Pair orbit representatives share valuation profiles: ideal_of runs
        # once per profile, on the first element that has it.
        read = []
        real = ExplicitModule.ideal_of
        monkeypatch.setattr(ExplicitModule, "ideal_of",
                            lambda module, coords: read.append(tuple(coords))
                            or real(module, coords))
        module = ExplicitModule.from_partition(Partition.parse("2,1"), 2)
        orbits(module, "pairs")

        def profile(coords):
            return tuple(valuation(c, k, module.p) for c, k in zip(coords, module.exponents))
        first = {}
        for coords in map(tuple, module.elements().tolist()):
            first.setdefault(profile(coords), coords)
        assert len(first) == (2 + 1) * (1 + 1)
        assert sorted(read) == sorted(first.values())

    @pytest.mark.parametrize("text, p", [("3,2,1", 2), ("2^2,1", 3), ("4", 5)])
    def test_ideal_per_profile(self, text, p):
        # Every element's looked-up ideal is ideal_of of its own coordinates.
        m = ExplicitModule.from_partition(Partition.parse(text), p)
        els = m.elements()
        ideal = _element_ideals(m, els)
        for i, coords in enumerate(els.tolist()):
            assert ideal(i) == m.ideal_of(coords), (text, p, coords)

    def test_odd_characteristic(self):
        assert verify(Partition.parse("2,1"), 3)["pass"]

    @pytest.mark.parametrize("text, p", [("4", 5), ("6", 3), ("10", 2)])
    def test_cyclic_modules(self, text, p):
        # Long generator cycles: one closure step per cycle point would take
        # hundreds of rounds here.
        assert verify(Partition.parse(text), p)["pass"]
