"""Acceptance gate: one test (and one pass/fail line under pytest -v) per
shipped criterion, with runtime budgets enforced where stated."""

import sys
import time

from autgroup import invertible_endomorphisms, pair_orbit_sizes
from cellcounts import x_count, x_in_submodule
from test_orbits import (PUBLISHED_CENSUS, PUBLISHED_N_LAMBDA, RUNNING_IDEAL,
                         RUNNING_SHAPE, census_total)
from test_quiver import brute_triple_orbits, series_matches_type_sums

from orbitpairs.oracle import ExplicitModule, orbits, verify
from orbitpairs.orbits import canonical_split, n_lambda, orbit_size
from orbitpairs.posets import OrderIdeal, Partition, lattice, partitions_of
from orbitpairs.qpoly import ONE, Q, QPolynomial, ZERO, monomial
from orbitpairs.quiver import r_n1
from orbitpairs.refined import orbit_census, refined_matrix


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def timed(budget, started):
    elapsed = time.perf_counter() - started
    return elapsed < budget, elapsed


def test_criterion_01_published_table_reproduction():
    t0 = time.perf_counter()
    mismatches = [key for key, expected in PUBLISHED_N_LAMBDA.items()
                  if n_lambda(Partition.parse(key)) != expected]
    in_budget, elapsed = timed(1.0, t0)
    report(1, not mismatches and in_budget,
           f"18 published polynomials, {len(mismatches)} mismatches, {elapsed:.2f}s")


def test_criterion_02_published_census_reproduction():
    t0 = time.perf_counter()
    census = orbit_census(RUNNING_SHAPE, RUNNING_IDEAL)
    expected = dict(PUBLISHED_CENSUS)
    total = census_total(RUNNING_SHAPE, RUNNING_IDEAL)
    spot = (census.get(ONE) == Q ** 3
            and census.get((Q - 1) * Q ** 15) == ONE
            and census.get((Q - 1) ** 2 * Q ** 11) == ONE
            and census.get((Q - 1) * Q ** 3) == 2 * Q ** 2)
    ok = (len(census) == 23 and census == expected and spot
          and total == 4 * Q ** 3 + 6 * Q ** 2 + 6 * Q + 2)
    in_budget, elapsed = timed(5.0, t0)
    report(2, ok and in_budget,
           f"23 cardinality classes and total for 5,4^2,2,1 at [1:4,0:1], {elapsed:.2f}s")


def test_criterion_03_maximal_ideal_examples():
    t0 = time.perf_counter()
    a = census_total(Partition.parse("2,1"), OrderIdeal.parse("0:2"))
    b = census_total(Partition.parse("2,2,1"), OrderIdeal.parse("0:2"))
    ok = a == Q ** 2 + Q and b == Q ** 2 + 2 * Q + 1
    in_budget, elapsed = timed(1.0, t0)
    report(3, ok and in_budget, f"maximal-ideal totals q^2+q and q^2+2q+1, {elapsed:.2f}s")


def test_criterion_04_degree_and_monicity():
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 11):
        for lam in partitions_of(n):
            p = n_lambda(lam)
            if not (p.is_monic() and p.degree == lam.largest
                    and all(type(c) is int for c in p.coeffs)):
                bad.append(str(lam))
    in_budget, elapsed = timed(120.0, t0)
    report(4, not bad and in_budget,
           f"monic integer degree-lambda_1 for |lambda| <= 10, {elapsed:.1f}s")


def test_criterion_05_conjecture_scan():
    t0 = time.perf_counter()
    bad = [str(lam) for n in range(1, 13) for lam in partitions_of(n)
           if not n_lambda(lam).has_nonnegative_coefficients()]
    in_budget, elapsed = timed(600.0, t0)
    report(5, not bad and in_budget,
           f"no negative coefficients for |lambda| <= 12, {elapsed:.1f}s")


def test_criterion_06_partition_of_unity():
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 9):
        for lam in partitions_of(n):
            total = ZERO
            for I in lattice(lam).ideals:
                total = total + orbit_size(lam, I)
                mass = ZERO
                for a, cnt in orbit_census(lam, I).items():
                    mass = mass + a * cnt
                if mass != monomial(lam.weight):
                    bad.append((str(lam), str(I)))
            if total != monomial(lam.weight):
                bad.append(str(lam))
    in_budget, elapsed = timed(60.0, t0)
    report(6, not bad and in_budget,
           f"orbit sizes and census masses sum to q^|lambda| for |lambda| <= 8, {elapsed:.1f}s")


def test_criterion_07_capping_invariance():
    t0 = time.perf_counter()
    bad, checked = [], 0
    for n in range(1, 9):
        for lam in partitions_of(n):
            capped = lam.cap(2)
            if capped == lam:
                continue
            checked += 1
            # lambda's own refined grid against the capped shape's cell batch.
            uncapped = sum((census_total(lam, I) for I in lattice(lam).ideals), ZERO)
            if uncapped != n_lambda(capped, {}):
                bad.append(str(lam))
    _, elapsed = timed(600.0, t0)
    report(7, not bad and checked > 0,
           f"uncapped equals capped on {checked} shapes with |lambda| <= 8, {elapsed:.1f}s")


def test_criterion_08_refined_consistency():
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 7):
        for lam in partitions_of(n):
            lat = lattice(lam)
            grand = sum(refined_matrix(lam).values(), ZERO)
            for I in lat.ideals:
                sp = canonical_split(lam, I)
                for J in lattice(sp.quotient).ideals:
                    for K in lattice(sp.lambda_dprime).ideals:
                        cell_sum = ZERO
                        for L in lat.ideals:
                            cell_sum = cell_sum + x_in_submodule(lam, I, J, K, L)
                        if cell_sum != x_count(lam, I, J, K):
                            bad.append((str(lam), str(I), str(J), str(K)))
            if grand != n_lambda(lam):
                bad.append(str(lam))
    _, elapsed = timed(600.0, t0)
    report(8, not bad,
           f"refined totals and per-cell sums consistent for |lambda| <= 6, {elapsed:.1f}s")


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    bad = []
    agree_checked = 0
    cases = [(lam, 2) for n in range(1, 6) for lam in partitions_of(n)] + \
            [(lam, 3) for n in range(1, 5) for lam in partitions_of(n)]
    for lam, p in cases:
        if not verify(lam, p)["pass"]:
            bad.append((str(lam), p))
        endos = p ** sum(min(a, b) for a in lam.expand() for b in lam.expand())
        if endos <= 2 ** 12:
            m = ExplicitModule.from_partition(lam, p)
            quick = sorted(orbits(m)[1].elements())
            full = pair_orbit_sizes(invertible_endomorphisms(m), m.size)
            agree_checked += 1
            if quick != full:
                bad.append(("enumeration disagreement", str(lam), p))
    in_budget, elapsed = timed(300.0, t0)
    report(9, not bad and in_budget and agree_checked > 0,
           f"oracle verify over {len(cases)} cases, generators and enumeration agree on "
           f"{agree_checked}, {elapsed:.1f}s")


def test_criterion_10_quiver_counts():
    t0 = time.perf_counter()
    ok = (r_n1(1)(2) == brute_triple_orbits(1, 2)
          and r_n1(1)(3) == brute_triple_orbits(1, 3)
          and r_n1(2)(2) == brute_triple_orbits(2, 2))
    for n in range(1, 7):
        p = r_n1(n)
        ok = ok and all(type(c) is int for c in p.coeffs) and p.has_nonnegative_coefficients()
    ok = ok and series_matches_type_sums(3)
    in_budget, elapsed = timed(120.0, t0)
    report(10, ok and in_budget,
           f"representation counts vs brute force, non-negativity to n=6, "
           f"series check to n=3, {elapsed:.1f}s")


def test_criterion_11_performance():
    t0 = time.perf_counter()
    store = {}
    for n in range(1, 13):
        for lam in partitions_of(n):
            n_lambda(lam, store)
    in_budget, elapsed = timed(300.0, t0)
    report(11, in_budget,
           f"full table |lambda| <= 12 in {elapsed:.1f}s (budget 300s)")
