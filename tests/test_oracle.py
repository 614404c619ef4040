import numpy as np
import pytest
from test_orbits import max_minus, union

from orbitpairs.errors import BudgetExceeded
from orbitpairs.oracle import (ExplicitModule, aut_generators,
                               endo_permutation, invertible_endomorphisms,
                               orbits, valuation, verify)
from orbitpairs.orbits import orbit_size
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
        for text, p in [("2,1", 2), ("3,1", 2), ("2,2", 3)]:
            m = ExplicitModule.from_partition(Partition.parse(text), p)
            for g in aut_generators(m):
                perm = endo_permutation(m, g)
                assert len(np.unique(perm)) == m.size

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

    def test_quick_and_full_endos_agree(self):
        for text, p in [("2,1", 2), ("1,1", 3), ("3", 2)]:
            m = ExplicitModule.from_partition(Partition.parse(text), p)
            quick = sorted(o.size for o in orbits(m, "pairs", "quick"))
            full = sorted(o.size for o in orbits(m, "pairs", "full-endos"))
            assert quick == full, (text, p)


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

    def test_odd_characteristic(self):
        assert verify(Partition.parse("2,1"), 3)["pass"]
