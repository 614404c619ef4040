from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from polydiv import exact_div
from test_orbits import alpha

from orbitpairs import orbits, refined
from orbitpairs.errors import DegreeMismatch, IdealOutOfContext
from orbitpairs.orbits import (canonical_split, n_lambda, orbit_size,
                               per_ideal_total, x_count)
from orbitpairs.posets import (IdealLattice, OrderIdeal, Partition, Point, lattice,
                               partitions_of)
from orbitpairs.qpoly import ONE, Q, QPolynomial, ZERO
from orbitpairs.refined import (coset_count, exact_fiber_count, refined_census,
                                refined_censuses, refined_matrix, refined_total,
                                s_count, x_in_submodule)


def refined_by_cells(lam, I, L):
    """The refined census cell by cell: x_in_submodule summed per alpha over
    the nonzero cells, J outer and K inner, then divided exactly by alpha."""
    sp = canonical_split(lam, I)
    groups = {}
    for J in lattice(sp.quotient).ideals:
        for K in lattice(sp.lambda_dprime).ideals:
            cell = x_in_submodule(lam, I, J, K, L)
            if cell:
                a = alpha(lam, I, J, K)
                groups[a] = groups.get(a, ZERO) + cell
    return {a: exact_div(total, a) for a, total in groups.items()}


def assert_refined_matches_cells(lam):
    lat = lattice(lam)
    for I in lat.ideals:
        for L in lat.ideals:
            assert list(refined_census(lam, I, L).items()) == \
                list(refined_by_cells(lam, I, L).items()), f"{lam}; {I}; {L}"


# Capped shapes with |lambda| <= 6, plus uncapped ones whose lambda'' keeps
# multiplicities above one.
CENSUS_SHAPES = sorted({lam.cap(2) for n in range(1, 7) for lam in partitions_of(n)}
                       | {Partition.parse("2^3,1"), Partition.parse("3^3")}, key=str)


def val(x, k, p):
    """Valuation of a residue mod p**k, with k for zero."""
    if x % p ** k == 0:
        return k
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def brute_coset_profile(k, a, b, y, p):
    """Per-valuation counts of {x mod p^k : v(x) >= a, v(x - y) >= b}."""
    counts = [0] * (k + 1)
    for x in range(p ** k):
        if val(x, k, p) >= a and val(x - y, k, p) >= b:
            counts[val(x, k, p)] += 1
    return counts


def s_key(split, L, J):
    """s_count's arguments for (L, J): the prime parts, L's boundaries on
    their rows and J's boundaries on the quotient rows."""
    pts = split.prime_parts
    return (pts, tuple(L.boundary(pt.k) for pt in pts),
            tuple(J.boundary(r) for r in split.quotient_rows))


def shifted(pts):
    """The prime parts with their v's shifted down to a last v of 0."""
    low = pts[-1].v if pts else 0
    return tuple(Point(v - low, k) for v, k in pts)


def brute_s_count(split, L, J, p):
    """Count elements of the distinguished part satisfying both submodule
    constraints by direct enumeration of coordinate vectors."""
    pts = split.prime_parts
    s = len(pts)
    if s == 0:
        return 1
    ranges = [range(p ** pt.k) for pt in pts]
    total = 0
    for coords in product(*ranges):
        ok = all(val(coords[i], pts[i].k, p) >= L.boundary(pts[i].k)
                 for i in range(s))
        if not ok:
            continue
        for i in range(s):
            if i < s - 1:
                mu = pts[i].v + pts[i + 1].k - pts[i + 1].v
                c = coords[i] - p ** (pts[i].v - pts[i + 1].v) * coords[i + 1]
            else:
                mu = pts[i].v
                c = coords[i]
            if mu == 0:
                continue
            if val(c % p ** mu, mu, p) < J.boundary(mu):
                ok = False
                break
        if ok:
            total += 1
    return total


class TestCosetCount:
    def test_against_brute_force(self):
        for p in (2, 3):
            for k in range(1, 5):
                for a in range(k + 1):
                    for b in range(k + 1):
                        for vy in [None] + list(range(k)):
                            y = 0 if vy is None else p ** vy
                            prof = coset_count(k, a, b, vy)
                            got = [c(p) for c in prof]
                            assert got == brute_coset_profile(k, a, b, y, p), \
                                (p, k, a, b, vy)

    def test_unit_multiple_of_y_is_irrelevant(self):
        p, k = 3, 3
        for vy in range(k):
            for u in (1, 2):
                prof = coset_count(k, 1, 2, vy)
                got = [c(p) for c in prof]
                assert got == brute_coset_profile(k, 1, 2, u * p ** vy, p)

    def test_total(self):
        assert sum(coset_count(3, 1, 0, None), ZERO) == Q ** 2
        assert sum(coset_count(2, 0, 0, None), ZERO) == Q ** 2


class TestSCount:
    def shapes(self):
        for p, n_max in ((2, 5), (3, 4)):
            for n in range(1, n_max + 1):
                for lam in partitions_of(n):
                    yield p, lam

    def test_against_brute_force(self):
        for p, lam in self.shapes():
            lat = lattice(lam)
            for I in lat.ideals:
                split = canonical_split(lam, I)
                for L in lat.ideals:
                    for J in lattice(split.quotient).ideals:
                        expected = brute_s_count(split, L, J, p)
                        pts, a, b = s_key(split, L, J)
                        got = s_count(pts, a, b)
                        assert QPolynomial(got)(p) == expected, \
                            (p, str(lam), str(I), str(L), str(J))
                        # Untrimmed: the fibers add these lists entry by entry.
                        assert len(got) == sum(pt.k for pt in pts) + 1
                        # The count reads the v's only through their differences.
                        assert s_count(shifted(pts), a, b) == got

    def test_context_mismatch(self):
        # s_count trusts its callers; the ideals are checked where they enter.
        lam = Partition.parse("2,1")
        I = OrderIdeal.parse("0:2")
        split = canonical_split(lam, I)
        off_row = OrderIdeal.parse("1:3")
        with pytest.raises(IdealOutOfContext):
            exact_fiber_count(split, [OrderIdeal()], off_row)[0]
        with pytest.raises(IdealOutOfContext):
            x_in_submodule(lam, I, OrderIdeal(), OrderIdeal(), off_row)


class TestFiberAndYCount:
    def test_exact_fibers_partition_s_count(self):
        # Moebius inversion must recover the at-least counts when re-summed.
        lam = Partition.parse("4,2,1")
        lat = lattice(lam)
        for I in lat.ideals:
            split = canonical_split(lam, I)
            qlat = lattice(split.quotient)
            for L in lat.ideals:
                for J in qlat.ideals:
                    resummed = ZERO
                    for Jp in qlat.ideals:
                        if Jp.is_subset_of(J):
                            resummed = resummed + QPolynomial(
                                exact_fiber_count(split, [L], Jp)[0])
                    assert resummed == QPolynomial(s_count(*s_key(split, L, J)))

    def test_y_count_at_full_module_is_x_count(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                top = OrderIdeal.parse(f"0:{lam.largest}")
                for I in lattice(lam).ideals:
                    split = canonical_split(lam, I)
                    for J in lattice(split.quotient).ideals:
                        # The elements in the full module with invariants
                        # (J, K): the exact fiber times K's orbit size.
                        fiber = QPolynomial(exact_fiber_count(split, [top], J)[0])
                        for K in lattice(split.lambda_dprime).ideals:
                            assert fiber * orbit_size(split.lambda_dprime, K) == \
                                x_count(lam, I, J, K)

    def test_x_in_submodule_partitions_x_count(self):
        lam = Partition.parse("3,2")
        lat = lattice(lam)
        for I in lat.ideals:
            split = canonical_split(lam, I)
            for J in lattice(split.quotient).ideals:
                for K in lattice(split.lambda_dprime).ideals:
                    total = ZERO
                    for L in lat.ideals:
                        total = total + x_in_submodule(lam, I, J, K, L)
                    assert total == x_count(lam, I, J, K)


class TestRefinedCensus:
    def test_row_sums_recover_per_ideal_totals(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                lat = lattice(lam)
                grand = ZERO
                for I in lat.ideals:
                    row = ZERO
                    for L in lat.ideals:
                        row = row + refined_total(lam, I, L)
                    assert row == per_ideal_total(lam, I), (str(lam), str(I))
                    grand = grand + row
                assert grand == n_lambda(lam)

    def test_matches_cells(self):
        # Same rows, in the same order, as grouping x_in_submodule's cells by
        # their alpha polynomial; the uncapped shapes keep multiplicities above
        # one in lambda''.
        for lam in CENSUS_SHAPES:
            assert_refined_matches_cells(lam)

    @settings(deadline=None, max_examples=15)
    @given(st.dictionaries(st.integers(1, 4), st.integers(1, 3), min_size=1, max_size=3))
    def test_matches_cells_random_shapes(self, mults):
        assert_refined_matches_cells(Partition(sorted(mults.items(), reverse=True)))

    def test_rows_match_single_censuses(self):
        for lam in CENSUS_SHAPES:
            ideals = lattice(lam).ideals
            for I in ideals:
                rows = refined_censuses(lam, I, ideals)
                assert [list(c.items()) for c in rows] == \
                    [list(refined_census(lam, I, L).items()) for L in ideals], f"{lam}; {I}"

    def test_matrix_matches_totals(self):
        for lam in CENSUS_SHAPES:
            ideals = lattice(lam).ideals
            assert list(refined_matrix(lam).items()) == \
                [((I, L), refined_total(lam, I, L)) for I in ideals for L in ideals], str(lam)

    def test_matrix_builds_tables_and_fibers_once_per_row(self, monkeypatch):
        # At most one key_table call per (mu, side) over the whole matrix, as
        # its rows share one memo, and one exact_fiber_count call per (I, J),
        # however many second ideals L the row holds.
        built = []
        real_table = orbits.key_table
        monkeypatch.setattr(orbits, "key_table", lambda lam, mu, points: built.append(
            (mu, points)) or real_table(lam, mu, points))
        fibers = []
        real_fibers = refined.exact_fiber_count
        monkeypatch.setattr(refined, "exact_fiber_count", lambda *args: fibers.append(
            args[2]) or real_fibers(*args))
        lam = Partition.parse("2^2,1")
        ideals = lattice(lam).ideals
        refined_matrix(lam)
        splits = [canonical_split(lam, I) for I in ideals]
        assert sorted(built, key=str) == sorted(
            {(sp.quotient, False) for sp in splits} | {(sp.lambda_dprime, True) for sp in splits},
            key=str)
        assert len(fibers) == sum(len(lattice(sp.quotient).ideals) for sp in splits)

    def test_matrix_runs_each_kernel_once(self, monkeypatch):
        # From a cold kernel cache, one matrix runs the DP once per distinct
        # (prime parts, a, b) key its fibers need, the v's shifted to a last
        # v of 0, and mobius_terms once per (mu, ideal).
        keys, listed = [], []
        real_s = refined.s_count
        monkeypatch.setattr(refined, "_S_COUNTS", {})
        monkeypatch.setattr(refined, "s_count", lambda *key: keys.append(key) or real_s(*key))
        real_terms = IdealLattice.mobius_terms
        monkeypatch.setattr(IdealLattice, "mobius_terms", lambda lat, X: listed.append(
            (lat.partition, X)) or real_terms(lat, X))
        lam = Partition.parse("3,2^2,1")
        ideals = lattice(lam).ideals
        refined_matrix(lam)
        expected_keys, expected_terms = set(), {(lam, L) for L in ideals}
        for I in ideals:
            sp = canonical_split(lam, I)
            for J in lattice(sp.quotient).ideals:
                expected_terms.add((sp.quotient, J))
                for Jp, _ in real_terms(lattice(sp.quotient), J):
                    for L in ideals:
                        for Lp, _ in real_terms(lattice(lam), L):
                            pts, a, b = s_key(sp, Lp, Jp)
                            expected_keys.add((shifted(pts), a, b))
        assert len(keys) == len(set(keys)) and set(keys) == expected_keys
        assert len(listed) == len(set(listed)) and set(listed) == expected_terms

    def test_kernel_values_shared_across_matrices(self, monkeypatch):
        # The kernel cache outlives a matrix: (2^2, 1) needs only keys that
        # (3, 2^2, 1) already ran, and a repeated matrix runs no DP at all.
        runs = []
        real_s = refined.s_count
        monkeypatch.setattr(refined, "_S_COUNTS", {})
        monkeypatch.setattr(refined, "s_count", lambda *key: runs.append(key) or real_s(*key))
        first = refined_matrix(Partition.parse("3,2^2,1"))
        ran = len(runs)
        assert ran == len(refined._S_COUNTS) > 0
        assert refined_matrix(Partition.parse("3,2^2,1")) == first
        refined_matrix(Partition.parse("2^2,1"))
        assert len(runs) == ran

    def test_negative_power_guard(self, monkeypatch):
        # Every K one point lighter makes every Laurent key orbit_size(K)/alpha
        # one power of q short, and some N_alpha has a constant term.
        real = orbits.key_table
        monkeypatch.setattr(orbits, "key_table", lambda lam, mu, points: [
            (b, w - 1 if points else w, f, p) for b, w, f, p in real(lam, mu, points)])
        with pytest.raises(DegreeMismatch, match="negative power"):
            refined_matrix(Partition.parse("2,1"))
        with pytest.raises(DegreeMismatch, match="negative power"):
            refined_census(Partition.parse("2,1"), OrderIdeal(), OrderIdeal())

    def test_census_counts_are_integer_polynomials(self):
        lam = Partition.parse("3,1")
        lat = lattice(lam)
        for I in lat.ideals:
            for L in lat.ideals:
                for a, cnt in refined_census(lam, I, L).items():
                    assert a.is_monic()
                    assert cnt.is_integer_coefficients()

    def test_single_row_matrix(self):
        lam = Partition.parse("1")
        empty = OrderIdeal()
        full = OrderIdeal.parse("0:1")
        m = refined_matrix(lam)
        assert m[(empty, empty)] == ONE
        assert m[(empty, full)] == ONE
        assert m[(full, empty)] == ONE
        assert m[(full, full)] == Q - 1

    def test_out_of_context_second_ideal(self):
        lam = Partition.parse("2,1")
        with pytest.raises(IdealOutOfContext):
            refined_total(lam, OrderIdeal(), OrderIdeal.parse("1:3"))
        with pytest.raises(IdealOutOfContext):
            refined_census(lam, OrderIdeal.parse("0:1"), OrderIdeal.parse("0:3"))
