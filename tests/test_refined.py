from itertools import product

import pytest
from cellcounts import is_subset, mobius_on, x_count, x_in_submodule
from hypothesis import given, settings
from hypothesis import strategies as st
from polydiv import exact_div
from test_orbits import alpha, census_total, profiles_spy

from orbitpairs import refined
from orbitpairs.errors import DegreeMismatch, IdealOutOfContext
from orbitpairs.orbits import canonical_split, n_lambda, orbit_size
from orbitpairs.posets import OrderIdeal, Partition, Point, lattice, partitions_of
from orbitpairs.qpoly import ONE, Q, QPolynomial, ZERO, monomial
from orbitpairs.refined import coset_count, exact_fiber_count, refined_censuses, refined_matrix


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


def single_census(lam, I, j):
    """The census of orbit(I) x orbit(L), L the j-th ideal of lattice(lam):
    the first census of a grid with I alone, whose columns start at L's."""
    return refined._grid(lam, [I], [j])[0][0]


def assert_refined_matches_cells(lam):
    ideals = lattice(lam).ideals
    for I, row in zip(ideals, refined_censuses(lam)):
        for L, census in zip(ideals, row):
            assert list(census.items()) == \
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


def coset_profile(k, a, b, vy):
    """Symbolic reference: the valuation distribution of {x in R/P^k :
    v(x) >= a, v(x - y) >= b} when v(y) = vy (None for y = 0), as the number
    of solutions per exact valuation w in 0..k (w = k is zero)."""
    a = max(0, min(a, k))
    b = max(0, min(b, k))
    counts = [ZERO] * (k + 1)
    if vy is None or vy >= b:
        for w in range(max(a, b), k):
            counts[w] = monomial(k - w) - monomial(k - w - 1)
        counts[k] = ONE
    elif vy >= a:
        # v(x - y) >= b > vy forces v(x) = vy exactly; solutions form a
        # coset of P^b.
        counts[vy] = monomial(k - b)
    return counts


def s_count(pts, a, b):
    """Symbolic reference for q**coset_count(pts, a, b): a dynamic program
    over the exact valuation of each coordinate, from the last up, each
    coordinate solving one coset condition given the valuation of the next."""
    if not pts:
        return ONE
    state = coset_profile(pts[-1].k, a[-1], b[-1], None)
    for i in range(len(pts) - 2, -1, -1):
        (v_i, k_i), (v_n, k_n) = pts[i], pts[i + 1]
        new_state = [ZERO] * (k_i + 1)
        for w_next, c in enumerate(state):
            vy = None if w_next == k_n else w_next + v_i - v_n
            for w, cnt in enumerate(coset_profile(k_i, a[i], b[i], vy)):
                new_state[w] = new_state[w] + c * cnt
        state = new_state
    return sum(state, ZERO)


@st.composite
def kernel_keys(draw):
    """A random antichain of prime parts, sorted by descending k (so both v
    and k - v fall strictly), with a[i] in [0, k_i] and b[i] in [0, quotient
    row i]."""
    n = draw(st.integers(0, 4))
    v, h, pts = draw(st.integers(0, 3)), draw(st.integers(1, 3)), []
    for _ in range(n):
        pts.insert(0, Point(v, v + h))
        v, h = v + draw(st.integers(1, 3)), h + draw(st.integers(1, 3))
    pts = tuple(pts)
    rows = [v_i + k_n - v_n for (v_i, _), (v_n, k_n) in zip(pts, pts[1:])] + [
        pt.v for pt in pts[-1:]]
    a = tuple(draw(st.integers(0, pt.k)) for pt in pts)
    b = tuple(draw(st.integers(0, row)) for row in rows)
    return pts, a, b


def brute_coset_profile(k, a, b, y, p):
    """Per-valuation counts of {x mod p^k : v(x) >= a, v(x - y) >= b}."""
    counts = [0] * (k + 1)
    for x in range(p ** k):
        if val(x, k, p) >= a and val(x - y, k, p) >= b:
            counts[val(x, k, p)] += 1
    return counts


def s_key(split, Lb, Jb, rows):
    """s_count's arguments for (L, J) given as boundary tuples, L's on the
    rows and J's on the quotient rows: the prime parts, L's boundaries on
    their rows and J's."""
    pts = split.prime_parts
    return pts, tuple(Lb[rows.index(pt.k)] for pt in pts), Jb


def bounds(X, rows):
    return tuple(X.boundary(k) for k in rows)


def fiber(split, L, J):
    """exact_fiber_count for one submodule L and one quotient ideal J."""
    pts = split.prime_parts
    return exact_fiber_count(pts, [tuple(L.boundary(pt.k) for pt in pts)],
                             mobius_on(J, split.quotient_rows))[0]


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
                            prof = coset_profile(k, a, b, vy)
                            got = [c(p) for c in prof]
                            assert got == brute_coset_profile(k, a, b, y, p), \
                                (p, k, a, b, vy)

    def test_unit_multiple_of_y_is_irrelevant(self):
        p, k = 3, 3
        for vy in range(k):
            for u in (1, 2):
                prof = coset_profile(k, 1, 2, vy)
                got = [c(p) for c in prof]
                assert got == brute_coset_profile(k, 1, 2, u * p ** vy, p)

    def test_total(self):
        assert sum(coset_profile(3, 1, 0, None), ZERO) == Q ** 2
        assert sum(coset_profile(2, 0, 0, None), ZERO) == Q ** 2

    @settings(deadline=None, max_examples=300)
    @given(kernel_keys(), st.integers(-4, 4))
    def test_closed_form_matches_dp(self, key, shift):
        # Every DP count is the single monomial q**coset_count, and the
        # closed form reads the v's only through their differences.
        pts, a, b = key
        ell = coset_count(pts, a, b)
        assert s_count(pts, a, b) == Q ** ell
        assert coset_count(tuple(Point(v + shift, k) for v, k in pts), a, b) == ell


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
                        pts, a, b = s_key(split, bounds(L, lam.rows),
                                          bounds(J, split.quotient_rows), lam.rows)
                        got = coset_count(pts, a, b)
                        assert p ** got == expected, \
                            (p, str(lam), str(I), str(L), str(J))
                        # The count reads the v's only through their differences.
                        assert coset_count(shifted(pts), a, b) == got

    def test_context_mismatch(self):
        # coset_count trusts its callers; the ideals are checked where they enter.
        lam = Partition.parse("2,1")
        I = OrderIdeal.parse("0:2")
        off_row = OrderIdeal.parse("1:3")
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
                        if is_subset(Jp, J):
                            resummed = resummed + QPolynomial(fiber(split, L, Jp))
                    assert resummed == Q ** coset_count(*s_key(
                        split, bounds(L, lam.rows), bounds(J, split.quotient_rows), lam.rows))

    def test_y_count_at_full_module_is_x_count(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                top = OrderIdeal.parse(f"0:{lam.largest}")
                for I in lattice(lam).ideals:
                    split = canonical_split(lam, I)
                    for J in lattice(split.quotient).ideals:
                        # The elements in the full module with invariants
                        # (J, K): the exact fiber times K's orbit size.
                        exact = QPolynomial(fiber(split, top, J))
                        for K in lattice(split.lambda_dprime).ideals:
                            assert exact * orbit_size(split.lambda_dprime, K) == \
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
        # The matrix's rows, from the grid over the L's columns, against the
        # censuses over the whole module, one grid per first ideal.
        for n in range(1, 6):
            for lam in partitions_of(n):
                lat = lattice(lam)
                matrix = refined_matrix(lam)
                grand = ZERO
                for I in lat.ideals:
                    row = sum((matrix[I, L] for L in lat.ideals), ZERO)
                    assert row == census_total(lam, I), (str(lam), str(I))
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
            for I, row in zip(ideals, refined_censuses(lam)):
                assert [list(c.items()) for c in row] == \
                    [list(single_census(lam, I, j).items()) for j in range(len(ideals))], \
                    f"{lam}; {I}"

    def test_matrix_call_matches_row_calls(self):
        # One call over every first ideal gives the rows of one call per first
        # ideal, in order.
        for lam in CENSUS_SHAPES:
            ideals = lattice(lam).ideals
            assert [[list(c.items()) for c in row] for row in refined_censuses(lam)] == \
                [[list(c.items()) for c in refined._grid(lam, [I], [0])[0]]
                 for I in ideals], str(lam)

    def test_matrix_matches_totals(self):
        for lam in CENSUS_SHAPES:
            ideals = lattice(lam).ideals
            assert list(refined_matrix(lam).items()) == \
                [((I, L), sum(single_census(lam, I, j).values(), ZERO))
                 for I in ideals for j, L in enumerate(ideals)], str(lam)

    def test_matrix_is_symmetric(self):
        # Swapping the two coordinates of a pair commutes with the diagonal
        # action, so it is a bijection from the pair orbits over (I, L) to
        # those over (L, I).  The matrix computes the pairs with L at or
        # after I and mirrors the rest; the full grid computes every pair,
        # and both must agree item for item, in order.
        for n in range(9):
            for lam in partitions_of(n):
                ideals = lattice(lam).ideals
                full = [((I, L), sum(census.values(), ZERO))
                        for I, row in zip(ideals, refined_censuses(lam))
                        for L, census in zip(ideals, row)]
                assert list(refined_matrix(lam).items()) == full, str(lam)
                totals = dict(full)
                assert all(total == totals[L, I] for (I, L), total in full), str(lam)

    def test_matrix_builds_tables_and_fibers_once_per_row(self, monkeypatch):
        # One table per mu over the whole matrix, for J and K alike, as the
        # matrix is one call, and one exact_fiber_count call per (I, J),
        # however many second ideals L the row holds.
        built = []
        real_lattice = refined.lattice
        monkeypatch.setattr(refined, "lattice", lambda mu: built.append(mu) or real_lattice(mu))
        fibers = []
        real_fibers = refined.exact_fiber_count
        monkeypatch.setattr(refined, "exact_fiber_count", lambda *args: fibers.append(
            args[2]) or real_fibers(*args))
        lam = Partition.parse("2^2,1")
        ideals = lattice(lam).ideals
        refined_matrix(lam)
        splits = [canonical_split(lam, I) for I in ideals]
        # The first lattice read is lambda's own, for the matrix keys.
        assert built[0] == lam
        assert sorted(built[1:], key=str) == sorted(
            {sp.quotient for sp in splits} | {sp.lambda_dprime for sp in splits}, key=str)
        assert len(fibers) == sum(len(lattice(sp.quotient).ideals) for sp in splits)

    def test_matrix_runs_each_kernel_once(self, monkeypatch):
        # From a cold kernel cache, one matrix runs the kernel once per
        # distinct (prime parts, a, b) key its fibers need, which are those
        # of the L at or after I only, and mobius_terms once per (mu, ideal).
        keys, listed = [], []
        coset_count.cache_clear()
        monkeypatch.setattr(refined, "coset_count", lambda *key: keys.append(key) or
                            coset_count(*key))
        real_terms = refined.mobius_terms
        monkeypatch.setattr(refined, "mobius_terms", lambda b, tops: listed.append(
            (b, tops)) or real_terms(b, tops))
        lam = Partition.parse("3,2^2,1")
        ideals = lattice(lam).ideals
        refined_matrix(lam)

        def args(X, rows):
            return bounds(X, rows), tuple(rows.index(k) for _, k in X.max_points)

        expected_keys, per_ideal = set(), {(lam, L): args(L, lam.rows) for L in ideals}
        for i, I in enumerate(ideals):
            sp = canonical_split(lam, I)
            for J in lattice(sp.quotient).ideals:
                per_ideal[sp.quotient, J] = args(J, sp.quotient.rows)
                for Jb, _ in mobius_on(J, sp.quotient_rows):
                    for L in ideals[i:]:
                        for Lb, _ in mobius_on(L, lam.rows):
                            pts, a, b = s_key(sp, Lb, Jb, lam.rows)
                            expected_keys.add((pts, a, b))
        assert set(keys) == expected_keys
        info = coset_count.cache_info()
        assert info.misses == info.currsize == len(expected_keys)
        assert sorted(listed) == sorted(per_ideal.values())

    def test_tables_match_ideal_lattices(self):
        # Every table the matrices with |lambda| <= 8 read equals one built
        # from lattice(mu).ideals, one OrderIdeal at a time.
        for lam in (lam for n in range(9) for lam in partitions_of(n)):
            mult, row = dict(lam.pairs), {k: i for i, k in enumerate(lam.rows)}
            for I in lattice(lam).ideals:
                sp = canonical_split(lam, I)
                for mu in (sp.quotient, sp.lambda_dprime):
                    expected = [(tuple(m * X.boundary(k) for k, m in lam.pairs),
                                 X.weighted_size(mu),
                                 sorted((mu.mult(k), row.get(k, -1), mult.get(k, 0) * v)
                                        for v, k in X.max_points),
                                 bounds(X, mu.rows),
                                 tuple(mu.rows.index(k) for _, k in X.max_points))
                                for X in lattice(mu).ideals]
                    assert refined._table(lam, mu) == expected, f"{lam}; {mu}"

    def test_matrix_builds_only_its_own_lattice(self, monkeypatch):
        # Below its API, refined builds no OrderIdeal: only the ideals of
        # the lambdas asked for, which key the matrix.  The lattices below
        # it keep their arrays only.
        shapes = partitions_of(6) + [Partition.parse("2^3,1")]
        lattice.cache_clear()
        walked = profiles_spy(monkeypatch)
        built = []
        real_init = OrderIdeal.__init__
        monkeypatch.setattr(OrderIdeal, "__init__", lambda self, *args: built.append(1) or
                            real_init(self, *args))
        for lam in shapes:
            refined_matrix(lam)
        monkeypatch.undo()
        assert {mu for mu in walked if "ideals" in vars(lattice(mu))} == set(shapes)
        assert len(built) == sum(len(lattice(lam).ideals) for lam in shapes)

    def test_kernel_values_shared_across_matrices(self):
        # The kernel cache outlives a matrix: (2^2, 1) needs only keys that
        # (3, 2^2, 1) already ran, and a repeated matrix runs no kernel at all.
        coset_count.cache_clear()
        first = refined_matrix(Partition.parse("3,2^2,1"))
        ran = coset_count.cache_info().misses
        assert ran == coset_count.cache_info().currsize > 0
        assert refined_matrix(Partition.parse("3,2^2,1")) == first
        refined_matrix(Partition.parse("2^2,1"))
        assert coset_count.cache_info().misses == ran

    def test_negative_power_guard(self, monkeypatch):
        # Every K one point lighter makes every Laurent key orbit_size(K)/alpha
        # one power of q short, and some N_alpha has a constant term.
        real = refined._table
        monkeypatch.setattr(refined, "_table", lambda lam, mu: [
            (b, w - 1, p, bm, tops) for b, w, p, bm, tops in real(lam, mu)])
        with pytest.raises(DegreeMismatch, match="negative power"):
            refined_matrix(Partition.parse("2,1"))
        with pytest.raises(DegreeMismatch, match="negative power"):
            refined_censuses(Partition.parse("2,1"))

    def test_census_counts_are_integer_polynomials(self):
        for row in refined_censuses(Partition.parse("3,1")):
            for census in row:
                for a, cnt in census.items():
                    assert a.is_monic()
                    assert all(type(c) is int for c in cnt.coeffs)

    def test_single_row_matrix(self):
        lam = Partition.parse("1")
        empty = OrderIdeal()
        full = OrderIdeal.parse("0:1")
        m = refined_matrix(lam)
        assert m[(empty, empty)] == ONE
        assert m[(empty, full)] == ONE
        assert m[(full, empty)] == ONE
        assert m[(full, full)] == Q - 1
