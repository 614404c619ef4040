import re
import signal
from itertools import product
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_orbits import max_minus, union

from orbitpairs import cli, oracle, permgroups
from orbitpairs import orbits as orbits_module
from orbitpairs.errors import BudgetExceeded
from orbitpairs.oracle import (PAIR_BUDGET, ExplicitModule, _element_ideals, _group_perms,
                               _unit_generators, aut_generators, aut_order,
                               endo_permutation, invertible_endomorphisms, orbits,
                               valuation, verify)
from orbitpairs.permgroups import _forest, _schreier, _unwind, closure_labels, pair_labels
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
        self.check(_group_perms(m, "full-endos"), m.size)

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
        perms = _group_perms(m, "quick")
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
                assert np.array_equal(closure_labels(old, m.size), closure_labels(new, m.size))
                assert np.array_equal(flat_pair_labels(old, m.size),
                                      flat_pair_labels(new, m.size)), (str(lam), p)

    def test_generators_of_unsorted_exponents(self):
        # Blocks and adjacency follow the exponents' order, not the
        # coordinates' order.
        m = ExplicitModule(3, (1, 2, 1))
        els = m.elements()
        gens = aut_generators(m)
        assert len(gens) == generator_count(m) == 2 + 4
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
        # Hillar and Rhea's closed form, on every shape whose quick and
        # full-endos pair orbits are compared below.
        for p, top in [(2, 4), (3, 3), (5, 2)]:
            for lam in (lam for m in range(1, top + 1) for lam in partitions_of(m)):
                m = ExplicitModule.from_partition(lam, p)
                assert aut_order(m) == len(invertible_endomorphisms(m)), (str(lam), p)

    def test_short_enumeration_is_exit_2(self, capsys, monkeypatch):
        # An enumeration that misses an automorphism fails the full-endos
        # job as an internal inconsistency, with no report.
        real = oracle.invertible_endomorphisms
        monkeypatch.setattr(oracle, "invertible_endomorphisms", lambda m: real(m)[1:])
        assert cli.main(["verify", "2,1", "3", "--full-endos"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "internal consistency failure: 107 automorphisms, but |Aut M| = 108" in err


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
        # One closure of the group gives the element orbits, and the pair
        # path reads those labels instead of closing the group again.
        groups, closures, pair_paths = [], [], []
        real_group, real_pairs = oracle._group_perms, oracle.pair_labels
        real_closure = oracle.closure_labels
        monkeypatch.setattr(oracle, "_group_perms",
                            lambda module, m: groups.append(real_group(module, m)) or groups[-1])

        def closure(perms, n):
            labels = real_closure(perms, n)
            if perms is groups[0]:
                closures.append(labels)
            return labels
        monkeypatch.setattr(oracle, "closure_labels", closure)
        monkeypatch.setattr(oracle, "pair_labels", lambda perms, labels: pair_paths.append(
            perms is groups[0] and labels is closures[0]) or real_pairs(perms, labels))
        assert verify(Partition.parse("2,1"), 3, mode)["pass"]
        assert len(closures) == 1
        assert pair_paths == [True]

    def test_pair_budget_checked_before_pair_labels(self, monkeypatch):
        # |M| = 4096 fits the element budget, but neither its element orbits
        # nor its (|M|, |M|) pair labels are computed: the pair space is over
        # budget.
        monkeypatch.setattr(oracle, "closure_labels",
                            lambda perms, n: pytest.fail("element orbits closed"))
        monkeypatch.setattr(oracle, "pair_labels",
                            lambda perms, labels: pytest.fail("pair labels built"))
        with pytest.raises(BudgetExceeded, match="pair space"):
            verify(Partition.parse("2^6"), 2)
        with pytest.raises(BudgetExceeded, match="pair space"):
            orbits(ExplicitModule.from_partition(Partition.parse("2^6"), 2), "pairs")

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

    def test_ideal_read_once_per_job(self, monkeypatch):
        # Both orbit calls of a verify job share one valuation-profile table.
        read = []
        real = ExplicitModule.ideal_of
        monkeypatch.setattr(ExplicitModule, "ideal_of",
                            lambda module, coords: read.append(tuple(coords))
                            or real(module, coords))
        assert verify(Partition.parse("2,1"), 2)["pass"]
        assert len(read) == len(set(read)) == (2 + 1) * (1 + 1)

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
