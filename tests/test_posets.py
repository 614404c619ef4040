from itertools import combinations

import pytest
from cellcounts import mobius_on
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitpairs.posets import (OrderIdeal, Partition, Point, lattice, partitions_of, point,
                               point_leq)


def all_points(max_row):
    return [Point(v, k) for k in range(1, max_row + 1) for v in range(k)]


def ideals_by_antichains(lam):
    """Independent enumeration: every antichain of points on the rows of lam,
    filtered by pairwise incomparability."""
    pts = [Point(v, k) for k in lam.rows for v in range(k)]
    out = [OrderIdeal()]
    for r in range(1, len(pts) + 1):
        for combo in combinations(pts, r):
            if all(not point_leq(a, b) and not point_leq(b, a)
                   for a, b in combinations(combo, 2)):
                out.append(OrderIdeal(combo))
    return out


class TestPoints:
    def test_point_validation(self):
        with pytest.raises(ValueError):
            point(2, 2)
        with pytest.raises(ValueError):
            point(-1, 3)
        assert point(0, 1) == Point(0, 1)

    def test_order_examples(self):
        assert point_leq(Point(1, 2), Point(0, 2))
        assert point_leq(Point(1, 2), Point(1, 3))
        assert not point_leq(Point(0, 2), Point(1, 3))
        assert point_leq(Point(1, 3), Point(0, 2))
        assert not point_leq(Point(0, 1), Point(1, 3))
        assert not point_leq(Point(1, 3), Point(0, 1))

    def test_partial_order_axioms(self):
        pts = all_points(5)
        for a in pts:
            assert point_leq(a, a)
        for a in pts:
            for b in pts:
                if a != b and point_leq(a, b):
                    assert not point_leq(b, a)
                for c in pts:
                    if point_leq(a, b) and point_leq(b, c):
                        assert point_leq(a, c)


class TestPartition:
    def test_parse_forms(self):
        assert Partition.parse("5,4^2,2,1").expand() == (5, 4, 4, 2, 1)
        assert Partition.parse("5,4,4,2,1") == Partition.parse("5,4^2,2,1")
        assert Partition.parse("") == Partition()
        assert str(Partition.parse("5,4,4,2,1")) == "5,4^2,2,1"
        assert Partition.parse("2,2^3").pairs == ((2, 4),)

    def test_parse_rejects_multiplicity_below_one(self):
        for text in ("3^0", "3^-1", "4,3^0"):
            with pytest.raises(ValueError):
                Partition.parse(text)

    def test_parse_huge_multiplicity_builds_pairs_only(self):
        lam = Partition.parse("1^100000000")
        assert lam.pairs == ((1, 10 ** 8),)
        assert lam.weight == 10 ** 8

    def test_accessors(self):
        lam = Partition.parse("5,4^2,2,1")
        assert lam.rows == (5, 4, 2, 1)
        assert lam.mult(4) == 2
        assert lam.mult(3) == 0
        assert lam.weight == 16
        assert lam.largest == 5

    def test_cap(self):
        lam = Partition.parse("3^4,2,1^2")
        assert lam.cap(2) == Partition.parse("3^2,2,1^2")
        assert lam.cap(1) == Partition.parse("3,2,1")

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition([(2, 1), (2, 1)])
        with pytest.raises(ValueError):
            Partition([(0, 1)])

    def test_partitions_of(self):
        assert [str(p) for p in partitions_of(4)] == ["4", "3,1", "2^2", "2,1^2", "1^4"]
        assert len(partitions_of(0)) == 1
        counts = [len(partitions_of(n)) for n in range(1, 9)]
        assert counts == [1, 2, 3, 5, 7, 11, 15, 22]


class TestOrderIdeal:
    def test_from_generators_drops_dominated(self):
        I = OrderIdeal.from_generators([Point(1, 2), Point(0, 2), Point(1, 3)])
        assert I.max_points == (Point(0, 2),)
        J = OrderIdeal.from_generators([Point(1, 3), Point(0, 1)])
        assert J.max_points == (Point(1, 3), Point(0, 1))

    def test_parse_roundtrip(self):
        I = OrderIdeal.parse("1:4,0:1")
        assert str(I) == "1:4,0:1"
        assert OrderIdeal.parse("") == OrderIdeal()

    def test_antichain_validation(self):
        with pytest.raises(ValueError):
            OrderIdeal([Point(1, 2), Point(0, 2)])

    def test_boundary(self):
        I = OrderIdeal.parse("1:4,0:1")
        assert I.boundary(4) == 1
        assert I.boundary(1) == 0
        assert I.boundary(5) == 2
        assert I.boundary(3) == 1
        assert I.boundary(2) == 1
        assert OrderIdeal().boundary(3) == 3
        assert OrderIdeal.parse("1:4").boundary(1) == 1

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(1, 8).flatmap(
        lambda k: st.integers(0, k - 1).map(lambda v: Point(v, k))), max_size=8))
    def test_linear_passes_match_all_pairs(self, pts):
        distinct = set(pts)
        maximal = {g for g in distinct
                   if not any(h != g and point_leq(g, h) for h in distinct)}
        assert set(OrderIdeal.from_generators(pts).max_points) == maximal
        comparable = any(point_leq(a, b) for a in distinct for b in distinct if a != b)
        if comparable:
            with pytest.raises(ValueError, match="not an antichain"):
                OrderIdeal(pts)
        else:
            assert set(OrderIdeal(pts).max_points) == distinct

    def test_boundary_matches_point_membership(self):
        for I in ideals_by_antichains(Partition.parse("5,3,2")):
            for p in all_points(6):
                member = any(point_leq(p, g) for g in I.max_points)
                assert I.contains(p) == member

    def test_subset_union(self):
        A = OrderIdeal.parse("1:3")
        B = OrderIdeal.parse("0:1")
        assert not A.is_subset_of(B) and not B.is_subset_of(A)
        U = OrderIdeal.from_generators(A.max_points + B.max_points)
        assert A.is_subset_of(U) and B.is_subset_of(U)
        assert U.max_points == (Point(1, 3), Point(0, 1))
        # A single generator can absorb another.
        assert OrderIdeal.parse("1:3").is_subset_of(OrderIdeal.parse("0:2"))

    def test_weighted_size(self):
        lam = Partition.parse("4,1")
        assert OrderIdeal.parse("1:4,0:1").weighted_size(lam) == 4
        assert OrderIdeal.parse("0:4").weighted_size(lam) == 5
        assert OrderIdeal().weighted_size(lam) == 0

    def test_in_context(self):
        lam = Partition.parse("4,1")
        assert OrderIdeal.parse("1:4,0:1").in_context(lam)
        assert not OrderIdeal.parse("1:3").in_context(lam)
        assert OrderIdeal().in_context(Partition())


class TestEnumeration:
    def test_small_examples(self):
        lam = Partition.parse("2,1")
        got = {str(I) for I in lattice(lam).ideals}
        assert got == {"", "1:2", "0:1", "0:2"}
        assert {str(I) for I in lattice(Partition.parse("2")).ideals} == \
            {"", "1:2", "0:2"}
        assert lattice(Partition()).ideals == [OrderIdeal()]

    def test_multiplicity_invariance(self):
        a = {str(I) for I in lattice(Partition.parse("3,1")).ideals}
        b = {str(I) for I in lattice(Partition.parse("3^2,1^3")).ideals}
        assert a == b

    def test_matches_antichain_enumeration(self):
        for n in range(0, 9):
            for lam in partitions_of(n):
                fast = lattice(lam).ideals
                slow = ideals_by_antichains(lam)
                assert len(fast) == len(set(fast))
                assert set(fast) == set(slow), str(lam)


def mobius(lat, B):
    """mobius_terms of B on lat's rows, each A's boundary tuple turned back
    into an OrderIdeal whose boundaries it must be."""
    rows = lat.partition.rows
    terms = []
    for a, mu in mobius_on(B, rows):
        A = OrderIdeal.from_generators(Point(b, k) for k, b in zip(rows, a) if b < k)
        assert tuple(A.boundary(k) for k in rows) == a
        terms.append((A, mu))
    return terms


def assert_mobius_identity(lat, B):
    """sum of mu(C, B) over A <= C <= B is 1 for A = B and 0 below B, with
    the order read off is_subset_of; this determines mu(., B) uniquely."""
    terms = mobius(lat, B)
    mu = dict(terms)
    assert len(mu) == len(terms)
    assert all(A in lat.ideals and A.is_subset_of(B) for A in mu)
    for A in lat.ideals:
        if not A.is_subset_of(B):
            continue
        total = sum(mu.get(C, 0) for C in lat.ideals
                    if A.is_subset_of(C) and C.is_subset_of(B))
        assert total == (1 if A == B else 0), (str(lat.partition), str(A), str(B))


SHAPES_UP_TO_9 = [lam for n in range(10) for lam in partitions_of(n)]


class TestLattice:
    def test_interval_examples(self):
        # J(P)_(2,1) is the chain '' < 1:2 < 0:1 < 0:2, so every interval
        # has nonzero terms only at its top and the element just below.
        lat = lattice(Partition.parse("2,1"))
        chain = [OrderIdeal.parse(t) for t in ("", "1:2", "0:1", "0:2")]
        assert set(lat.ideals) == set(chain)
        assert all(a.is_subset_of(b) for a, b in zip(chain, chain[1:]))

        def terms(text):
            return {str(A): mu for A, mu in mobius(lat, OrderIdeal.parse(text))}

        assert terms("") == {"": 1}
        assert terms("1:2") == {"1:2": 1, "": -1}
        assert terms("0:1") == {"0:1": 1, "1:2": -1}
        assert terms("0:2") == {"0:2": 1, "0:1": -1}
        # Two maximal points: removing both gives mu = +1.
        lat31 = lattice(Partition.parse("3,1"))
        assert {str(A): mu for A, mu in mobius(lat31, OrderIdeal.parse("1:3,0:1"))} \
            == {"1:3,0:1": 1, "0:1": -1, "1:3": -1, "2:3": 1}

    def test_mobius_inversion_identity(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                lat = lattice(lam)
                for B in lat.ideals:
                    assert_mobius_identity(lat, B)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_mobius_identity_random_shapes(self, data):
        lam = data.draw(st.sampled_from(SHAPES_UP_TO_9))
        lat = lattice(lam)
        assert_mobius_identity(lat, data.draw(st.sampled_from(lat.ideals)))

    def test_shared_instance(self):
        assert lattice(Partition.parse("3,1")) is lattice(Partition.parse("3,1"))
