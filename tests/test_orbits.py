import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitpairs.errors import IdealOutOfContext
from orbitpairs.orbits import (alpha, canonical_split, max_minus, n_lambda,
                               orbit_census, orbit_size, per_ideal_total,
                               x_count)
from orbitpairs.posets import (EMPTY_IDEAL, OrderIdeal, Partition, Point,
                               lattice, partitions_of)
from orbitpairs.qpoly import ONE, Q, QPolynomial, ZERO, monomial

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


def brute_alpha(lam, I, J, K) -> QPolynomial:
    """alpha by scanning the lattice of lambda'': q^[J union K] over lambda'
    times the orbit sizes of the ideals K2 inside J union K whose maximal
    points include every maximal point of K outside J."""
    sp = canonical_split(lam, I)
    JK = J.union(K)
    required = set(max_minus(K, J))
    total = ZERO
    for K2 in lattice(sp.lambda_dprime).ideals:
        if K2.is_subset_of(JK) and required <= set(K2.max_points):
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
    return {a: total.exact_div(a) for a, total in groups.items()}


def assert_census_matches_cells(lam):
    for I in lattice(lam).ideals:
        assert list(orbit_census(lam, I).items()) == \
            list(census_by_cells(lam, I).items()), f"{lam}; {I}"


class TestOrbitSize:
    def test_small_examples(self):
        lam = Partition.parse("2,1")
        assert orbit_size(lam, EMPTY_IDEAL) == ONE
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
        sp = canonical_split(Partition.parse("2,1"), EMPTY_IDEAL)
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
        assert max_minus(K, EMPTY_IDEAL) == K.max_points

    def test_context_mismatch(self):
        sp_lam = Partition.parse("2,1")
        I = OrderIdeal.parse("0:2")
        bad = OrderIdeal.parse("1:3")
        with pytest.raises(IdealOutOfContext):
            alpha(sp_lam, I, bad, EMPTY_IDEAL)
        with pytest.raises(IdealOutOfContext):
            x_count(sp_lam, I, EMPTY_IDEAL, bad)

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
                assert alpha(lam, I, EMPTY_IDEAL, K) == expect_alpha
                expect_x = monomial(lam.largest) * orbit_size(sp.lambda_dprime, K)
                assert x_count(lam, I, EMPTY_IDEAL, K) == expect_x

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
                        assert a.degree == J.union(K).weighted_size(lam)
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
                        assert cnt.is_integer_coefficients(), f"{lam}; {I}; {a}"

    def test_key_space_matches_cells(self):
        # The keyed census has the same rows, in the same order, as grouping
        # the cells by their alpha polynomial; the uncapped shapes keep
        # multiplicities above two in lambda''.
        shapes = {lam.cap(2) for n in range(1, 10) for lam in partitions_of(n)}
        shapes |= {Partition.parse(text) for text in ("2^3,1^2", "3^3", "4,2^3,1")}
        for lam in shapes:
            assert_census_matches_cells(lam)

    @settings(deadline=None, max_examples=40)
    @given(st.dictionaries(st.integers(1, 6), st.integers(1, 3), min_size=1, max_size=4))
    def test_key_space_matches_cells_random_shapes(self, mults):
        assert_census_matches_cells(Partition(sorted(mults.items(), reverse=True)))

    def test_published_running_example(self):
        census = orbit_census(RUNNING_SHAPE, RUNNING_IDEAL)
        expected = {a: n for a, n in PUBLISHED_CENSUS}
        assert len(PUBLISHED_CENSUS) == len(expected)
        assert census == expected
        assert per_ideal_total(RUNNING_SHAPE, RUNNING_IDEAL) == \
            4 * Q ** 3 + 6 * Q ** 2 + 6 * Q + 2

    def test_published_maximal_ideal_totals(self):
        # Closed forms for the number of stabilizer orbits at the maximal
        # ideal for shapes 2,1^m and 2^m,1^m with m > 1.
        for m in (1, 2, 3):
            lam = Partition.parse("2," + ",".join(["1"] * m))
            assert per_ideal_total(lam, OrderIdeal.parse("0:2")) == Q ** 2 + Q
        for m1 in (2, 3):
            lam = Partition(((2, m1), (1, 2)))
            assert per_ideal_total(lam, OrderIdeal.parse("0:2")) == \
                Q ** 2 + 2 * Q + 1

    def test_negative_coefficient_exists(self):
        # The per-ideal total for shape (2) at the orbit of [1:2] is the
        # documented example of a count with a negative coefficient.
        total = per_ideal_total(Partition.parse("2"), OrderIdeal.parse("1:2"))
        assert not total.has_nonnegative_coefficients()


class TestNLambda:
    def test_published_table(self):
        for key, expected in PUBLISHED_N_LAMBDA.items():
            assert n_lambda(Partition.parse(key)) == expected, key

    def test_empty_partition(self):
        assert n_lambda(Partition()) == ONE

    def test_monic_integer_of_degree_largest(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                p = n_lambda(lam)
                assert p.is_monic()
                assert p.degree == lam.largest
                assert p.is_integer_coefficients()

    def test_capping_invariance(self):
        # The count only depends on multiplicities capped at two; verify by
        # running the full uncapped computation on every shape of weight up
        # to eight that has a multiplicity above two.
        checked = 0
        for n in range(3, 9):
            for lam in partitions_of(n):
                capped = lam.cap(2)
                if capped == lam:
                    continue
                assert n_lambda(lam, cap=False) == n_lambda(capped, cap=False), str(lam)
                checked += 1
        assert checked > 10

    def test_store_protocol(self):
        store: dict[Partition, QPolynomial] = {}
        lam = Partition.parse("3,1")
        first = n_lambda(lam, store)
        assert store[lam] == first
        # A poisoned store entry is trusted, proving the cache is consulted.
        store[lam] = ZERO
        assert n_lambda(lam, store) == ZERO
        assert n_lambda(lam) == first
