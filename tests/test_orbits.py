import itertools
import re
import sys
from collections import namedtuple

import numpy as np
import pytest
from cellcounts import contains, is_subset, x_count
from hypothesis import given, settings
from hypothesis import strategies as st
from polydiv import exact_div

from orbitpairs import orbits, posets, refined
from orbitpairs.errors import (BudgetExceeded, DegreeMismatch, IdealOutOfContext,
                               NegativeExponent)
from orbitpairs.oracle import verify
from orbitpairs.orbits import canonical_split, n_lambda, n_lambdas, orbit_size
from orbitpairs.posets import OrderIdeal, Partition, Point, lattice, partitions_of
from orbitpairs.qpoly import ONE, Q, QPolynomial, ZERO, laurent_product, monomial
from orbitpairs.refined import orbit_census, refined_matrix

# Published reference values for the number of orbits of pairs, one row per
# partition of n = 1..5.
PUBLISHED_N_LAMBDA = {
    "1": Q + 2,
    "2": Q ** 2 + 2 * Q + 2,
    "1^2": Q + 3,
    "3": Q ** 3 + 2 * Q ** 2 + 2 * Q + 2,
    "2,1": Q ** 2 + 5 * Q + 5,
    "1^3": Q + 3,
    "4": Q ** 4 + 2 * Q ** 3 + 2 * Q ** 2 + 2 * Q + 2,
    "3,1": Q ** 3 + 5 * Q ** 2 + 7 * Q + 4,
    "2^2": Q ** 2 + 3 * Q + 5,
    "2,1^2": Q ** 2 + 5 * Q + 6,
    "1^4": Q + 3,
    "5": Q ** 5 + 2 * Q ** 4 + 2 * Q ** 3 + 2 * Q ** 2 + 2 * Q + 2,
    "4,1": Q ** 4 + 5 * Q ** 3 + 7 * Q ** 2 + 6 * Q + 4,
    "3,2": Q ** 3 + 5 * Q ** 2 + 10 * Q + 7,
    "3,1^2": Q ** 3 + 5 * Q ** 2 + 8 * Q + 6,
    "2^2,1": Q ** 2 + 6 * Q + 8,
    "2,1^3": Q ** 2 + 5 * Q + 6,
    "1^5": Q + 3,
}

# Published cardinality census for the running example: shape 5,4^2,2,1 with
# first member in the orbit of [1:4,0:1].
RUNNING_SHAPE = Partition.parse("5,4^2,2,1")
RUNNING_IDEAL = OrderIdeal.parse("1:4,0:1")
QM1 = Q - 1
PUBLISHED_CENSUS = [
    (ONE, Q ** 3),
    (QM1 * Q ** 7, QM1 * Q),
    (QM1 * Q ** 12, QM1),
    (Q ** 4, QM1 * Q ** 2),
    (QM1 ** 2 * Q ** 11, ONE),
    (QM1 ** 2 * Q ** 8, Q),
    (QM1 ** 2 * Q ** 10, ONE),
    (QM1 * Q ** 2, Q ** 2),
    (QM1 ** 2 * Q ** 6, Q),
    (QM1 ** 2 * Q ** 3, Q ** 2),
    (QM1 ** 2 * Q ** 5, Q),
    (QM1, Q ** 3),
    (QM1 * Q ** 15, ONE),
    (QM1 * Q ** 5, Q),
    (Q ** 9, QM1 * Q),
    (QM1 * Q ** 8, Q),
    (QM1 * Q ** 14, ONE),
    (QM1 * Q ** 11, QM1),
    (QM1 * Q ** 6, Q ** 2),
    (QM1 * Q ** 4, QM1 * Q ** 2),
    (QM1 * Q ** 3, 2 * Q ** 2),
    (QM1 * Q ** 9, Q ** 2),
    (QM1 * Q ** 10, Q),
]


def lambda_prime(sp) -> Partition:
    """The rows of the split's maximal points, one copy each."""
    return Partition.from_parts(p.k for p in sp.prime_parts)


def union(A: OrderIdeal, B: OrderIdeal) -> OrderIdeal:
    """The ideal generated by the maximal points of A and B."""
    return OrderIdeal.from_generators(A.max_points + B.max_points)


def max_minus(K: OrderIdeal, J: OrderIdeal) -> tuple[Point, ...]:
    """Maximal points of K that are not absorbed anywhere inside J."""
    return tuple(p for p in K.max_points if not contains(J, p))


def alpha(lam, I, J, K) -> QPolynomial:
    """Reference cardinality of the stabilizer orbit of a second element with
    invariants (J, K), from ideals: q**[J union K] times (1 - q**-m''_k) over
    the maximal points (v, k) of K outside J."""
    dprime = canonical_split(lam, I).lambda_dprime
    return laurent_product(union(J, K).weighted_size(lam),
                           [dprime.mult(p.k) for p in max_minus(K, J)])


def brute_alpha(lam, I, J, K) -> QPolynomial:
    """alpha by scanning the lattice of lambda'': q^[J union K] over lambda'
    times the orbit sizes of the ideals K2 inside J union K whose maximal
    points include every maximal point of K outside J."""
    sp = canonical_split(lam, I)
    JK = union(J, K)
    required = set(max_minus(K, J))
    total = ZERO
    for K2 in lattice(sp.lambda_dprime).ideals:
        if is_subset(K2, JK) and required <= set(K2.max_points):
            total = total + orbit_size(sp.lambda_dprime, K2)
    return monomial(JK.weighted_size(lambda_prime(sp))) * total


def census_by_cells(lam, I) -> dict[QPolynomial, QPolynomial]:
    """The census cell by cell: x_count summed per alpha, in order of first
    appearance, then divided exactly by alpha."""
    sp = canonical_split(lam, I)
    groups: dict[QPolynomial, QPolynomial] = {}
    for J in lattice(sp.quotient).ideals:
        for K in lattice(sp.lambda_dprime).ideals:
            a = alpha(lam, I, J, K)
            groups[a] = groups.get(a, ZERO) + x_count(lam, I, J, K)
    return {a: exact_div(total, a) for a, total in groups.items()}


# Random shapes: up to four distinct parts of size at most 5, each with
# multiplicity at most 4.
SHAPES = st.dictionaries(st.integers(1, 5), st.integers(1, 4), min_size=1, max_size=4).map(
    lambda mults: Partition(sorted(mults.items(), reverse=True)))


def census_total(lam, I) -> QPolynomial:
    """Number of orbits of pairs whose first member has invariant I."""
    return sum(orbit_census(lam, I).values(), ZERO)


def uncapped_total(lam) -> QPolynomial:
    """The orbits of pairs of lambda itself, multiplicities above two kept:
    the per-ideal totals of the refined grid summed over every first ideal."""
    return sum((census_total(lam, I) for I in lattice(lam).ideals), ZERO)


def assert_census_matches_cells(lam):
    for I in lattice(lam).ideals:
        assert list(orbit_census(lam, I).items()) == \
            list(census_by_cells(lam, I).items()), f"{lam}; {I}"


class TestOrbitSize:
    def test_small_examples(self):
        lam = Partition.parse("2,1")
        assert orbit_size(lam, OrderIdeal()) == ONE
        assert orbit_size(lam, OrderIdeal.parse("1:2")) == Q - 1
        assert orbit_size(lam, OrderIdeal.parse("0:1")) == Q ** 2 - Q
        assert orbit_size(lam, OrderIdeal.parse("0:2")) == Q ** 3 - Q ** 2

    def test_partition_of_unity(self):
        # Orbit sizes over all ideals sum to the module cardinality.
        for n in range(0, 7):
            for lam in partitions_of(n):
                total = ZERO
                for I in lattice(lam).ideals:
                    total = total + orbit_size(lam, I)
                assert total == monomial(lam.weight), str(lam)

    def test_monic_of_weighted_degree(self):
        lam = Partition.parse("4,2^2,1")
        for I in lattice(lam).ideals:
            p = orbit_size(lam, I)
            assert p.is_monic() if I else p == ONE
            assert (p.degree or 0) == I.weighted_size(lam)

    def test_out_of_context(self):
        with pytest.raises(IdealOutOfContext):
            orbit_size(Partition.parse("4,1"), OrderIdeal.parse("1:3"))


class TestCanonicalSplit:
    def test_running_example(self):
        sp = canonical_split(RUNNING_SHAPE, RUNNING_IDEAL)
        assert sp.prime_parts == (Point(1, 4), Point(0, 1))
        assert lambda_prime(sp) == Partition.parse("4,1")
        assert sp.lambda_dprime == Partition.parse("5,4,2")
        assert sp.quotient == Partition.parse("2")

    def test_maximal_ideal(self):
        lam = Partition.parse("3,2^2,1")
        sp = canonical_split(lam, OrderIdeal.parse("0:3"))
        assert lambda_prime(sp) == Partition.parse("3")
        assert sp.lambda_dprime == Partition.parse("2^2,1")
        assert sp.quotient == Partition()

    def test_empty_ideal(self):
        sp = canonical_split(Partition.parse("2,1"), OrderIdeal())
        assert sp.prime_parts == ()
        assert lambda_prime(sp) == Partition()
        assert sp.lambda_dprime == Partition.parse("2,1")
        assert sp.quotient == Partition()

    def test_quotient_weight_identity(self):
        # The distinguished part has |lambda'| points; its quotient shape
        # drops exactly k_1 - v_1 of them.
        for n in range(1, 8):
            for lam in partitions_of(n):
                for I in lattice(lam).ideals:
                    sp = canonical_split(lam, I)
                    if not I:
                        continue
                    top = sp.prime_parts[0]
                    assert sp.quotient.weight == lambda_prime(sp).weight - (top.k - top.v)


class TestAlphaAndCells:
    def test_max_minus(self):
        K = OrderIdeal.parse("1:4,0:1")
        J = OrderIdeal.parse("0:1")
        assert max_minus(K, J) == (Point(1, 4),)
        assert max_minus(K, K) == ()
        assert max_minus(K, OrderIdeal()) == K.max_points

    def test_context_mismatch(self):
        sp_lam = Partition.parse("2,1")
        I = OrderIdeal.parse("0:2")
        bad = OrderIdeal.parse("1:3")
        with pytest.raises(IdealOutOfContext):
            x_count(sp_lam, I, OrderIdeal(), bad)

    def test_maximal_ideal_closed_form(self):
        # When I is the maximal ideal the quotient is empty, J must be empty,
        # and alpha collapses to submodule size times orbit size while the
        # cell count is q^{lambda_1} times the orbit size.
        for lam in [Partition.parse("3,2^2,1"), Partition.parse("4,4"),
                    Partition.parse("2,1^2")]:
            I = OrderIdeal.parse(f"0:{lam.largest}")
            sp = canonical_split(lam, I)
            assert sp.quotient == Partition()
            for K in lattice(sp.lambda_dprime).ideals:
                expect_alpha = monomial(K.weighted_size(lambda_prime(sp))) * \
                    orbit_size(sp.lambda_dprime, K)
                assert alpha(lam, I, OrderIdeal(), K) == expect_alpha
                expect_x = monomial(lam.largest) * orbit_size(sp.lambda_dprime, K)
                assert x_count(lam, I, OrderIdeal(), K) == expect_x

    def test_alpha_monic_of_cell_degree(self):
        # The closed form agrees with the lattice scan on every cell, including
        # uncapped shapes where lambda'' keeps a multiplicity above one.
        shapes = [lam for n in range(1, 7) for lam in partitions_of(n)]
        shapes += [Partition.parse("2^3,1^2"), Partition.parse("3^3")]
        for lam in shapes:
            for I in lattice(lam).ideals:
                sp = canonical_split(lam, I)
                for J in lattice(sp.quotient).ideals:
                    for K in lattice(sp.lambda_dprime).ideals:
                        a = alpha(lam, I, J, K)
                        assert a.is_monic()
                        assert a.degree == union(J, K).weighted_size(lam)
                        assert a == brute_alpha(lam, I, J, K), f"{lam}; {I}; {J}; {K}"


class TestCensus:
    def test_cells_partition_the_module(self):
        # Summing every cell count gives the module cardinality before any
        # division happens.
        for n in range(1, 7):
            for lam in partitions_of(n):
                for I in lattice(lam).ideals:
                    sp = canonical_split(lam, I)
                    total = ZERO
                    for J in lattice(sp.quotient).ideals:
                        for K in lattice(sp.lambda_dprime).ideals:
                            total = total + x_count(lam, I, J, K)
                    assert total == monomial(lam.weight), f"{lam}; {I}"

    def test_census_counts_are_integer_polynomials(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for I in lattice(lam).ideals:
                    for a, cnt in orbit_census(lam, I).items():
                        assert all(type(c) is int for c in cnt.coeffs), f"{lam}; {I}; {a}"

    def test_key_space_matches_cells(self):
        # The keyed census has the same rows, in the same order, as grouping
        # the cells by their alpha polynomial; the uncapped shapes keep
        # multiplicities above two in lambda''.
        shapes = {lam.cap(2) for n in range(1, 13) for lam in partitions_of(n)}
        shapes |= {Partition.parse(text) for text in ("2^3,1^2", "3^3", "4,2^3,1")}
        for lam in shapes:
            assert_census_matches_cells(lam)

    @settings(deadline=None, max_examples=40)
    @given(st.dictionaries(st.integers(1, 6), st.integers(1, 3), min_size=1, max_size=4))
    def test_key_space_matches_cells_random_shapes(self, mults):
        assert_census_matches_cells(Partition(sorted(mults.items(), reverse=True)))

    @settings(deadline=None, max_examples=25)
    @given(SHAPES)
    def test_mass_random_shapes(self, lam):
        # Sum alpha * N_alpha as products here, independently of the group
        # totals that orbit_census checks.
        for I in lattice(lam).ideals:
            mass = ZERO
            for a, n in orbit_census(lam, I).items():
                mass = mass + a * n
            assert mass == monomial(lam.weight), f"{lam}; {I}"

    def test_published_running_example(self):
        census = orbit_census(RUNNING_SHAPE, RUNNING_IDEAL)
        expected = {a: n for a, n in PUBLISHED_CENSUS}
        assert len(PUBLISHED_CENSUS) == len(expected)
        assert census == expected
        assert census_total(RUNNING_SHAPE, RUNNING_IDEAL) == \
            4 * Q ** 3 + 6 * Q ** 2 + 6 * Q + 2

    def test_published_maximal_ideal_totals(self):
        # Closed forms for the number of stabilizer orbits at the maximal
        # ideal for shapes 2,1^m and 2^m,1^m with m > 1.
        for m in (1, 2, 3):
            lam = Partition.parse("2," + ",".join(["1"] * m))
            assert census_total(lam, OrderIdeal.parse("0:2")) == Q ** 2 + Q
        for m1 in (2, 3):
            lam = Partition(((2, m1), (1, 2)))
            assert census_total(lam, OrderIdeal.parse("0:2")) == \
                Q ** 2 + 2 * Q + 1

    def test_negative_coefficient_exists(self):
        # The per-ideal total for shape (2) at the orbit of [1:2] is the
        # documented example of a count with a negative coefficient.
        total = census_total(Partition.parse("2"), OrderIdeal.parse("1:2"))
        assert not total.has_nonnegative_coefficients()


class TestNLambda:
    def test_published_table(self):
        for key, expected in PUBLISHED_N_LAMBDA.items():
            assert n_lambda(Partition.parse(key)) == expected, key

    def test_empty_partition(self):
        assert n_lambda(Partition()) == ONE

    def test_closed_forms_at_large_k(self):
        # Each from a fresh store: a single row (k) gives q^k + 2 q^(k-1) + ...
        # + 2, and a doubled row (k^2) the sum over i <= k of (2k + 1 - 2i) q^i.
        for k in range(1, 121):
            assert n_lambda(Partition.parse(str(k)), {}).coeffs == (2,) * k + (1,), k
        for k in range(1, 31):
            assert n_lambda(Partition.parse(f"{k}^2"), {}).coeffs == \
                tuple(range(2 * k + 1, 0, -2)), k

    def test_monic_integer_of_degree_largest(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                p = n_lambda(lam)
                assert p.is_monic()
                assert p.degree == lam.largest
                assert all(type(c) is int for c in p.coeffs)

    def test_capping_invariance(self):
        # The count only depends on multiplicities capped at two; verify by
        # running the full uncapped computation on every shape of weight up
        # to eight that has a multiplicity above two, against the cell
        # batch of the capped shape.
        checked = 0
        for n in range(3, 9):
            for lam in partitions_of(n):
                capped = lam.cap(2)
                if capped == lam:
                    continue
                assert uncapped_total(lam) == n_lambda(capped, {}), str(lam)
                checked += 1
        assert checked > 10

    @settings(deadline=None, max_examples=25)
    @given(SHAPES)
    def test_capping_invariance_random_shapes(self, lam):
        assert uncapped_total(lam) == n_lambda(lam.cap(2), {}), str(lam)

    def test_store_protocol(self):
        store: dict[Partition, QPolynomial] = {}
        lam = Partition.parse("3,1")
        first = n_lambda(lam, store)
        assert store[lam] == first
        # A poisoned store entry is trusted, proving the cache is consulted.
        store[lam] = ZERO
        assert n_lambda(lam, store) == ZERO
        assert n_lambda(lam) == first


def n_lambda_by_cells(lam) -> QPolynomial:
    """Sum of every census_by_cells row over every first ideal of lam."""
    return sum((n for I in lattice(lam).ideals for n in census_by_cells(lam, I).values()),
               ZERO)


Arrays = namedtuple("Arrays", "v k m w")


def patch_ideal_arrays(monkeypatch, change):
    """Pass the arrays of the lattices that the cell batch and the refined
    grid read through change, as an Arrays copy, leaving the lattices
    themselves as they are."""
    for module in (orbits, refined):
        monkeypatch.setattr(module, "lattice", lambda mu: change(Arrays(
            *(getattr(lattice(mu), f) for f in Arrays._fields))))


@pytest.fixture
def fresh_lattices():
    """An empty lattice cache, emptied again at the end, so that lattices
    built under a patch stay in the test."""
    lattice.cache_clear()
    yield
    lattice.cache_clear()


def profiles_spy(monkeypatch) -> list:
    """The shapes that posets._profiles walks from now on, in order, through
    every orbitpairs module that holds it."""
    walked = []
    real = posets._profiles
    for name, module in list(sys.modules.items()):
        if name.startswith("orbitpairs.") and getattr(module, "_profiles", None) is real:
            monkeypatch.setattr(module, "_profiles", lambda mu: walked.append(mu) or real(mu))
    return walked


@pytest.fixture
def fresh_splits():
    """An empty canonical_split cache, emptied again at the end, so that
    splits made under a patch stay in the test."""
    canonical_split.cache_clear()
    yield
    canonical_split.cache_clear()


# Both engines, n_lambda on the cell batch and a census at the empty first
# ideal on the refined grid, each run every guard of its own.
ENGINES = (lambda lam: n_lambda(lam, {}), lambda lam: orbit_census(lam, OrderIdeal()))


class TestCensusGroups:
    def test_n_lambda_matches_cells(self):
        for lam in {lam.cap(2) for n in range(1, 10) for lam in partitions_of(n)}:
            assert n_lambda(lam, {}) == n_lambda_by_cells(lam), str(lam)

    def test_uncapped_n_lambda_matches_cells(self):
        # Multiplicities above two stay in lambda'' and in the factor keys.
        shapes = [lam for n in range(3, 8) for lam in partitions_of(n) if lam.cap(2) != lam]
        assert len(shapes) > 10
        for lam in shapes:
            assert uncapped_total(lam) == n_lambda_by_cells(lam), str(lam)

    def test_batch_matches_grouped_census(self):
        # n_lambda sums every cell's Laurent key of the cell batch at once;
        # the census rows of the refined grid sum theirs per (I, alpha), so
        # the two engines must agree (census_by_cells is the independent
        # reference).  Criterion 7 and verify sum shapes with multiplicities
        # above two through the refined grid, whose keys must hold them.
        for lam in {lam.cap(2) for n in range(1, 13) for lam in partitions_of(n)}:
            assert n_lambda(lam, {}) == uncapped_total(lam), str(lam)
        for lam in (lam for n in range(1, 9) for lam in partitions_of(n)):
            assert n_lambda(lam, {}) == uncapped_total(lam), str(lam)
        assert n_lambda(Partition(), {}) == uncapped_total(Partition()) == ONE

    def test_tables_built_once_per_context(self, monkeypatch, fresh_lattices):
        # n_lambda builds the lattice of each quotient and lambda'' once per
        # process, over all its first ideals and later calls.
        built = profiles_spy(monkeypatch)
        lam = Partition.parse("4,3^2,2,1")
        n_lambda(lam, {})
        # lambda's own arrays give its first ideals and their splits.
        splits = [canonical_split(lam, I) for I in lattice(lam).ideals]
        expected = {sp.quotient for sp in splits} | {sp.lambda_dprime for sp in splits} | {lam}
        assert sorted(built, key=str) == sorted(expected, key=str)
        n_lambda(lam, {})
        assert len(built) == len(expected)

    def test_weight_identity_guard(self, monkeypatch, fresh_splits):
        # The batch splits its first ideals in split_arrays, the grid each
        # one in canonical_split.
        real = orbits.split_arrays

        def heavy_fibers(rows, mults, v, k):
            fiber, quotient, dprime = real(rows, mults, v, k)
            return fiber + 1, quotient, dprime

        monkeypatch.setattr(orbits, "split_arrays", heavy_fibers)
        real_split = orbits.CanonicalSplit
        monkeypatch.setattr(orbits, "CanonicalSplit", lambda pts, dprime, quotient, fiber, rows:
                            real_split(pts, dprime, quotient, fiber + 1, rows))
        for engine in ENGINES:
            with pytest.raises(DegreeMismatch, match="does not partition"):
                engine(Partition.parse("2,1"))

    def test_table_mass_guard(self, monkeypatch, fresh_lattices):
        # Profiles missing their last ideal leave the orbit sizes short of
        # q**|mu|.
        real = posets._profiles
        monkeypatch.setattr(posets, "_profiles", lambda mu: real(mu)[:-1])
        for engine in ENGINES:
            with pytest.raises(DegreeMismatch, match="orbit sizes"):
                engine(Partition.parse("2,1"))
        # Orbit-size factors outweighing q**w are caught before they expand
        # below q**0.
        monkeypatch.setattr(posets, "_profiles", lambda mu: [p[:3] + (0,) for p in real(mu)])
        for engine in ENGINES:
            with pytest.raises(DegreeMismatch, match="orbit size factors"):
                engine(Partition.parse("2,1"))

    def test_negative_power_guard(self, monkeypatch):
        # Every orbit size with a factor q divided by q: each cell's Laurent
        # key keeps its exponent at least its factors' sum, but the cells of
        # some (I, alpha) no longer sum to a polynomial.
        patch_ideal_arrays(monkeypatch, lambda a: a._replace(w=a.w - (a.w > a.m.sum(1))))
        with pytest.raises(DegreeMismatch, match="negative power"):
            n_lambda(Partition.parse("2,1"), {})
        # The census of one first ideal sums all of its cells per alpha,
        # and the same check on N_alpha catches it.
        with pytest.raises(DegreeMismatch, match="negative power"):
            orbit_census(Partition.parse("2,1"), OrderIdeal())

    def test_cell_exponent_guard(self, monkeypatch):
        # Every orbit size far too light: some cell's Laurent key has an
        # exponent below its factors' sum.
        patch_ideal_arrays(monkeypatch, lambda a: a._replace(w=a.w - 10))
        # The batch refuses a key below q**-|lambda| where _cells builds it,
        # before any grouping indexes rows by its power.
        monkeypatch.setattr(orbits, "_group_sums", lambda *args: pytest.fail("grouped"))
        for engine in ENGINES:
            with pytest.raises(DegreeMismatch, match="negative power"):
                engine(Partition.parse("2,1"))
        # A grid key q**(3 - 3) * (q**4 - 1) / q**4 on 2,1 reaches below
        # q**-3, where no sum of N_alpha's cells looks.
        with pytest.raises(DegreeMismatch, match="negative power"):
            refined._laurent_sum(Partition.parse("2,1"), OrderIdeal(), (0, ()), {(3, (4,)): [1]})

    def test_alpha_key_guard(self, monkeypatch):
        # Factors heavier than the exponent: alpha would not be a polynomial.
        # The batch checks its alpha keys, the grid expands each alpha.
        patch_ideal_arrays(monkeypatch, lambda a: a._replace(m=a.m + 100 * (a.m > 0)))
        with pytest.raises(DegreeMismatch, match="no polynomial"):
            n_lambda(Partition.parse("2,1"), {})
        with pytest.raises(NegativeExponent):
            orbit_census(Partition.parse("2,1"), OrderIdeal())

    def test_wide_keys_widen_or_raise(self, monkeypatch):
        # The refined grid keeps 1^70's factors 69 and 70 in its keys.
        lam = Partition([(1, 70)])
        assert uncapped_total(lam) == Q + 3
        I = OrderIdeal.parse("0:1")
        assert list(orbit_census(lam, I).items()) == list(census_by_cells(lam, I).items())
        # A radix digit per factor value present in the cell batch; with one
        # factor value per point, too many digits for int64 is an error.
        fresh = itertools.count(1, 100)
        patch_ideal_arrays(monkeypatch, lambda a: a._replace(m=np.where(
            a.m > 0, next(fresh) + np.arange(a.m.size).reshape(a.m.shape), 0)))
        with pytest.raises(BudgetExceeded, match="past int64"):
            n_lambda(Partition.parse("4,3,2,1"), {})


# Lists of shapes of several weights, with repeats, multiplicities past the
# cap and the empty partition.
SHAPE_LISTS = st.lists(
    st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=3).map(
        lambda mults: Partition(sorted(mults.items(), reverse=True))),
    min_size=1, max_size=6).map(lambda lams: lams + lams[::2])

# Shapes of distinct weights, of which only 4 has the ideal lattice of 4.
MIXED = [Partition.parse(t) for t in ("1", "2,1", "4", "1^2")]


def cells_spy(monkeypatch) -> list:
    """The shapes of every block that orbits._cells builds from now on."""
    built, real = [], orbits._cells
    monkeypatch.setattr(orbits, "_cells", lambda block: built.append(
        [str(lam) for lam in block.shapes]) or real(block))
    return built


class TestBlocks:
    @pytest.mark.parametrize("cap", [1, 100, 10 ** 9])
    @settings(deadline=None, max_examples=15)
    @given(lams=SHAPE_LISTS)
    def test_blocks_match_one_shape_at_a_time(self, cap, lams):
        expected = [n_lambda(lam, {}) for lam in lams]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbits, "_BLOCK_SQUARES", cap)
            assert n_lambdas(lams, {}) == expected

    def test_blocks_across_weights(self, monkeypatch):
        # Each distinct capped shape is built once, in order, in blocks that
        # span weights.
        shapes = [lam for n in range(10) for lam in partitions_of(n)]
        expected = [n_lambda(lam, {}) for lam in shapes]
        built = cells_spy(monkeypatch)
        assert n_lambdas(shapes, {}) == expected
        assert sum(built, []) == list(dict.fromkeys(str(lam.cap(2)) for lam in shapes))
        assert len(built) < 10
        assert len({Partition.parse(t).weight for t in built[0]}) > 1

    def test_memoized_shapes_build_no_block(self, monkeypatch):
        lams = [Partition.parse(t) for t in ("2,1", "3", "1^3")]
        expected = [n_lambda(lam, {}) for lam in lams]
        store: dict = {}
        n_lambdas(lams[:2], store)
        built = cells_spy(monkeypatch)
        assert n_lambdas(lams, store) == expected
        assert built == [["1^2"]]
        assert n_lambdas(lams + [Partition.parse("1^5")], store) == expected + expected[2:]
        assert built == [["1^2"]]

    def test_weight_identity_names_its_shape(self, monkeypatch):
        # Heavy fibers in the first ideals of the shape 4 alone.
        real = orbits.split_arrays
        monkeypatch.setattr(orbits, "split_arrays", lambda rows, mults, v, k: (
            lambda fiber, quotient, dprime: (fiber + (mults @ rows == 4), quotient, dprime))(
                *real(rows, mults, v, k)))
        with pytest.raises(DegreeMismatch) as alone:
            n_lambda(Partition.parse("4"), {})
        with pytest.raises(DegreeMismatch) as block:
            n_lambdas(MIXED, {})
        assert str(block.value) == str(alone.value)
        assert str(alone.value).startswith("split of (4; ")

    def test_negative_power_names_its_shape(self, monkeypatch):
        # Orbit sizes with a factor q divided by q, in lattice(4) alone.
        real = orbits.lattice
        monkeypatch.setattr(orbits, "lattice", lambda mu: (lambda a: Arrays(
            a.v, a.k, a.m, a.w - (a.w > a.m.sum(1)) * (mu == Partition.parse("4"))))(real(mu)))
        with pytest.raises(DegreeMismatch, match="negative power") as alone:
            n_lambda(Partition.parse("4"), {})
        with pytest.raises(DegreeMismatch) as block:
            n_lambdas(MIXED, {})
        assert str(block.value) == str(alone.value)
        assert "census of (4; " in str(alone.value)

    def test_each_shape_split_once(self, monkeypatch):
        # One _Block per cell batch, and every shape in exactly one _Block.
        split, real = [], orbits._Block
        monkeypatch.setattr(orbits, "_Block", lambda entries: split.append(
            [str(lam) for lam, _, _ in entries]) or real(entries))
        built = cells_spy(monkeypatch)
        shapes = [lam for n in range(13) for lam in partitions_of(n)]
        n_lambdas(shapes, {})
        assert split == built
        assert sum(split, []) == list(dict.fromkeys(str(lam.cap(2)) for lam in shapes))

    def test_block_past_int64_raises(self, monkeypatch):
        # With int64 cut to the largest bound a single shape checks, the
        # block of all four raises, as that shape alone does one below.
        bounds, real = {}, orbits.check_int64
        for lam in MIXED:
            monkeypatch.setattr(orbits, "check_int64", lambda bound, what: bounds.update(
                {bound: lam}) or real(bound, what))
            n_lambda(lam, {})
        limit = max(bounds)
        monkeypatch.setattr(posets, "INT64_MAX", limit)
        built = cells_spy(monkeypatch)
        with pytest.raises(BudgetExceeded, match="past int64"):
            n_lambdas(MIXED, {})
        assert built == [[str(lam) for lam in MIXED]]
        monkeypatch.setattr(posets, "INT64_MAX", limit - 1)
        with pytest.raises(BudgetExceeded, match="past int64"):
            n_lambda(bounds[limit], {})

    @pytest.mark.parametrize("text, what", [("2,1", "(I, alpha) keys"),
                                            ("1^2", "packed Laurent keys"),
                                            ("4,3,2,1", "N_alpha coefficients")])
    def test_int64_guard_trips_alone(self, monkeypatch, text, what):
        # On each shape, one guard's bound lies above every other int64 bound
        # on n_lambda's path: with int64 cut to exactly that bound, the shape
        # passes, and one below, that guard alone raises.
        lam, bounds, real = Partition.parse(text), {}, orbits.check_int64
        monkeypatch.setattr(orbits, "check_int64", lambda bound, label: bounds.update(
            {label: bound}) or real(bound, label))
        expected = n_lambda(lam, {})
        label = f"{what} of the cells of {lam}"
        bound = bounds.pop(label)
        assert bound > max(bounds.values())
        monkeypatch.setattr(posets, "INT64_MAX", bound)
        assert n_lambda(lam, {}) == expected
        monkeypatch.setattr(posets, "INT64_MAX", bound - 1)
        with pytest.raises(BudgetExceeded, match=re.escape(f"{label} reach {bound}, past")):
            n_lambda(lam, {})

    def test_monic_degree_guard(self, monkeypatch):
        # Every expansion row doubled: the negative-power sums stay 0, but
        # each total comes out twice n_lambda, so none is monic.
        real = orbits._expansions
        monkeypatch.setattr(orbits, "_expansions", lambda cells, lcodes: (
            lambda codes: 2 * real(cells, lcodes)(codes)))
        with pytest.raises(DegreeMismatch, match=re.escape("n_lambda(2,1) = 2q^2")):
            n_lambda(Partition.parse("2,1"), {})
        with pytest.raises(DegreeMismatch, match="monic/degree"):
            n_lambdas(MIXED, {})


def arrays_from_lattice(mu: Partition) -> tuple:
    """(v, k, m, w) of every ideal of lattice(mu), in lattice order, read
    through OrderIdeal's own max_points and weighted_size, with the maximal
    points padded with zeros to mu's row count: the reference for
    the lattice's int rows."""
    ideals = lattice(mu).ideals

    def padded(field):
        return [[field(p) for p in X.max_points] + [0] * (len(mu.pairs) - len(X.max_points))
                for X in ideals]

    return (padded(lambda p: p.v), padded(lambda p: p.k), padded(lambda p: mu.mult(p.k)),
            [X.weighted_size(mu) for X in ideals])


CAPPED_TO_12 = sorted({lam.cap(2) for n in range(13) for lam in partitions_of(n)}, key=str)


class TestIdealArrays:
    def test_profiles_match_lattice(self, monkeypatch, fresh_lattices):
        # Every mu met by n_lambda with |lambda| <= 12: the shapes, their
        # quotients and their lambda''s, which are capped shapes again.
        # The points of .ideals are read off the same rows, but m and w are
        # checked against mu.mult and weighted_size, and the ideal set
        # against an antichain brute force in test_posets.
        walked = profiles_spy(monkeypatch)
        for lam in CAPPED_TO_12:
            n_lambda(lam, {})
        assert sorted(walked, key=str) == CAPPED_TO_12
        for mu in walked:
            lat = lattice(mu)
            assert tuple(getattr(lat, f).tolist() for f in Arrays._fields) == \
                arrays_from_lattice(mu), str(mu)
            assert lat.v.shape == (len(lat.ideals), len(mu.pairs))

    def test_splits_match_canonical_split(self):
        for lam in CAPPED_TO_12:
            lat = lattice(lam)
            fiber, quotient, dprime = orbits.split_arrays(
                np.array(lam.rows), np.array([m for _, m in lam.pairs]), lat.v, lat.k)
            for i, I in enumerate(lat.ideals):
                sp = canonical_split(lam, I)
                assert fiber[i] == sp.fiber, (str(lam), str(I))
                rows = quotient[i].tolist()
                assert rows == list(sp.quotient_rows) + [0] * (len(rows) - len(sp.prime_parts))
                assert Partition((p, 1) for p in rows if p) == sp.quotient
                assert Partition((p, m) for p, m in zip(lam.rows, dprime[i].tolist())
                                 if m) == sp.lambda_dprime, (str(lam), str(I))

    def test_each_shape_walked_once(self, monkeypatch, fresh_lattices):
        # One lattice per mu serves every engine in a process: n_lambda's
        # cell batch, refined's grid and verify's orbit labels.
        walked = profiles_spy(monkeypatch)
        shapes = [Partition.parse(t) for t in ("3,2,1", "2^2,1", "4,1", "1^3")]
        for lam in shapes:
            n_lambda(lam, {})
            uncapped_total(lam)
            refined_matrix(lam)
            assert verify(lam, 2)["pass"]
        assert set(shapes) < set(walked)
        assert len(walked) == len(set(walked))

    def test_n_lambda_builds_no_ideal_objects(self, monkeypatch, fresh_lattices):
        canonical_split.cache_clear()
        walked = profiles_spy(monkeypatch)
        made = []
        real = OrderIdeal.__init__
        monkeypatch.setattr(OrderIdeal, "__init__",
                            lambda self, *a: made.append(a) or real(self, *a))
        store = {}
        for lam in partitions_of(8):
            n_lambda(lam, store)
        assert len(walked) > len(store) == 21
        # No lattice below the API has built its OrderIdeals.
        assert not any("ideals" in vars(lattice(mu)) for mu in walked)
        assert canonical_split.cache_info().currsize == 0
        assert made == []
