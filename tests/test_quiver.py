import random
from itertools import product

import pytest

from orbitpairs import cli, quiver
from orbitpairs.errors import NonIntegerResult
from orbitpairs.posets import Partition, partitions_of
from orbitpairs.qpoly import Q, QPolynomial
from orbitpairs.quiver import (MatrixType, c_tau, enumerate_types,
                               genfunc_check, n_tau, phi_d, r_n1, type_sum)


def at(rational, q0):
    """The value at q0 of an (int polynomial, denominator) pair, asserting
    that it is an integer."""
    num, den = rational
    assert all(type(c) is int for c in num.coeffs) and type(den) is int and den >= 1
    assert num(q0) % den == 0, (num, den, q0)
    return num(q0) // den


def matrices(n, p):
    return [tuple(tuple(row) for row in chunk)
            for chunk in (list(zip(*[iter(flat)] * n))
                          for flat in product(range(p), repeat=n * n))]


def mat_mul(a, b, p):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p
                       for j in range(n)) for i in range(n))


def mat_vec(a, x, p):
    n = len(a)
    return tuple(sum(a[i][k] * x[k] for k in range(n)) % p for i in range(n))


def det(a, p):
    n = len(a)
    if n == 1:
        return a[0][0] % p
    if n == 2:
        return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % p
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in a[1:])
        total += (-1) ** j * a[0][j] * det(minor, p)
    return total % p


def general_linear(n, p):
    return [g for g in matrices(n, p) if det(g, p) != 0]


def inverse(g, group, p):
    identity = tuple(tuple(int(i == j) for j in range(len(g))) for i in range(len(g)))
    for h in group:
        if mat_mul(g, h, p) == identity:
            return h
    raise AssertionError("no inverse found")


def brute_similarity_classes(n, p):
    """Number of conjugation orbits of n x n matrices over F_p."""
    group = general_linear(n, p)
    pairs = [(g, inverse(g, group, p)) for g in group]
    seen = set()
    count = 0
    for a in matrices(n, p):
        if a in seen:
            continue
        count += 1
        for g, gi in pairs:
            seen.add(mat_mul(mat_mul(g, a, p), gi, p))
    return count


def brute_triple_orbits(n, p):
    """Number of orbits of triples (A, x, y) under simultaneous base change
    of the n-dimensional space and scaling of the 1-dimensional one."""
    group = general_linear(n, p)
    pairs = [(g, inverse(g, group, p)) for g in group]
    vectors = list(product(range(p), repeat=n))
    scalars = range(1, p)
    seen = set()
    count = 0
    for a in matrices(n, p):
        for x in vectors:
            for y in vectors:
                if (a, x, y) in seen:
                    continue
                count += 1
                for g, gi in pairs:
                    ga = mat_mul(mat_mul(g, a, p), gi, p)
                    gx, gy = mat_vec(g, x, p), mat_vec(g, y, p)
                    for c in scalars:
                        seen.add((ga,
                                  tuple(c * v % p for v in gx),
                                  tuple(c * v % p for v in gy)))
    return count


def brute_irreducible_count(d, p):
    """Monic irreducible polynomials of degree d over F_p (d <= 3, where
    reducibility is equivalent to having a root or a full linear split)."""
    count = 0
    for tail in product(range(p), repeat=d):
        # polynomial x^d + tail[d-1] x^{d-1} + ... + tail[0]
        if d == 1:
            count += 1
            continue
        has_root = any((pow(r, d, p) + sum(c * pow(r, i, p) for i, c in enumerate(tail))) % p == 0
                       for r in range(p))
        if not has_root:
            count += 1
    return count


def type_count_series(n_max):
    """Coefficients of prod over d >= 1, m >= 1 of (1 - x^{dm})^{-p(m)},
    the generating function for the number of similarity-class types."""
    coeffs = [1] + [0] * n_max
    for d in range(1, n_max + 1):
        for m in range(1, n_max // d + 1):
            for _ in range(len(partitions_of(m))):
                # multiply by 1/(1 - x^{dm})
                for i in range(d * m, n_max + 1):
                    coeffs[i] += coeffs[i - d * m]
    return coeffs


class TestTypes:
    def test_small_enumerations(self):
        assert len(enumerate_types(1)) == 1
        got = {str(t) for t in enumerate_types(2)}
        assert got == {"((2),1)", "((1^2),1)", "((1),1)^2", "((1),2)"}

    def test_counts_match_generating_function(self):
        series = type_count_series(8)
        for n in range(1, 9):
            assert len(enumerate_types(n)) == series[n], n

    def test_weights_and_uniqueness(self):
        for n in range(1, 7):
            types = enumerate_types(n)
            assert len(types) == len(set(types))
            assert all(t.weight == n for t in types)


class TestPhi:
    def test_closed_forms(self):
        assert phi_d(1) == (Q, 1)
        assert phi_d(2) == (Q ** 2 - Q, 2)
        assert phi_d(3) == (Q ** 3 - Q, 3)
        assert phi_d(4) == (Q ** 4 - Q ** 2, 4)
        assert phi_d(6) == (Q ** 6 - Q ** 3 - Q ** 2 + Q, 6)

    def test_against_brute_irreducible_counts(self):
        for p in (2, 3):
            for d in (1, 2, 3):
                assert at(phi_d(d), p) == brute_irreducible_count(d, p), (p, d)

    def test_spot_values(self):
        assert at(phi_d(2), 2) == 1
        assert at(phi_d(2), 3) == 3
        assert at(phi_d(3), 2) == 2
        # Necklace counts: d * phi_d(q) is divisible by d at every integer q.
        for d in range(1, 13):
            for q0 in range(2, 12):
                at(phi_d(d), q0)


class TestClassCounts:
    def test_c_tau_closed_forms(self):
        one = Partition.parse("1")
        assert c_tau(MatrixType.from_pairs([(one, 1)])) == (Q, 1)
        assert c_tau(MatrixType.from_pairs([(one, 1), (one, 1)])) == (Q * (Q - 1), 2)
        assert c_tau(MatrixType.from_pairs([(one, 2)])) == phi_d(2)
        assert c_tau(MatrixType.from_pairs([(Partition.parse("2"), 1)])) == (Q, 1)
        # Two distinct degree-2 pairs and one of degree 1: phi_2 (phi_2 - 1) phi_1
        # = (2 phi_2)(2 phi_2 - 2) q / 2^2; a repeated pair adds its a! below.
        two = Partition.parse("2")
        assert c_tau(MatrixType.from_pairs([(one, 2), (two, 2), (one, 1)])) == \
            ((Q ** 2 - Q) * (Q ** 2 - Q - 2) * Q, 4)
        assert c_tau(MatrixType.from_pairs([(one, 2), (one, 2), (one, 1)])) == \
            ((Q ** 2 - Q) * (Q ** 2 - Q - 2) * Q, 8)

    def test_total_classes_against_brute_force(self):
        # Summing class counts over all types of weight n gives the number
        # of similarity classes of n x n matrices.
        for n, p in [(2, 2), (2, 3), (3, 2)]:
            total = sum(at(c_tau(t), p) for t in enumerate_types(n))
            assert total == brute_similarity_classes(n, p), (n, p)

    def test_n_tau_composition(self):
        one = Partition.parse("1")
        assert n_tau(MatrixType.from_pairs([(one, 2)])) == Q ** 2 + 2
        tau = MatrixType.from_pairs([(one, 1), (one, 1)])
        assert n_tau(tau) == (Q + 2) ** 2


class TestRepresentationCount:
    def test_against_brute_force(self):
        assert r_n1(1)(2) == brute_triple_orbits(1, 2)
        assert r_n1(1)(3) == brute_triple_orbits(1, 3)
        assert r_n1(2)(2) == brute_triple_orbits(2, 2)

    def test_small_closed_forms(self):
        assert r_n1(1) == Q ** 2 + 2 * Q
        assert r_n1(2) == Q ** 4 + 2 * Q ** 3 + 4 * Q ** 2 + 2 * Q

    def test_nonnegative_integer_coefficients(self):
        for n in range(1, 13):
            p = r_n1(n)
            assert all(type(c) is int for c in p.coeffs), n
            assert p.has_nonnegative_coefficients(), n

    def test_genfunc(self, monkeypatch):
        # The series against the type sum for every n <= 8.
        assert genfunc_check(8)
        monkeypatch.setattr(quiver, "n_tau", lambda tau: n_tau(tau) + 1)
        assert not genfunc_check(2)

    def test_nonzero_remainder_raises(self, monkeypatch):
        # With d phi_d off by one at d = 2, 2 R_2 gains b_1(q^2) = q^2 + 2, so
        # the division by 2 is inexact.  An emptied store makes r_n1 compute
        # the weights again.
        monkeypatch.setattr(quiver, "_STORE", quiver._STORE[:1])
        monkeypatch.setattr(quiver, "phi_d", lambda d: (phi_d(d)[0] + (d == 2), d))
        assert r_n1(1) == Q ** 2 + 2 * Q
        with pytest.raises(NonIntegerResult, match=r"R_2,1 = \(2q\^4 \+ 4q\^3 \+ 9q\^2 \+ 4q \+ 2\) / 2"):
            r_n1(3)

    def test_series_memo(self, monkeypatch):
        # R_{n,1} needs only the weights <= n, so each call asks n_lambdas
        # for the shapes of the weights past the store's end, and no others.
        expected = {n: r_n1(n) for n in range(1, 11)}
        monkeypatch.setattr(quiver, "_STORE", quiver._STORE[:1])
        real, calls = quiver.n_lambdas, []

        def spy(lams):
            lams = list(lams)
            calls.append(lams)
            return real(lams)

        monkeypatch.setattr(quiver, "n_lambdas", spy)
        for n in (7, 3, 10, 1):
            assert r_n1(n) == expected[n], n
        assert calls == [[lam for m in range(1, 8) for lam in partitions_of(m)],
                         [lam for m in range(8, 11) for lam in partitions_of(m)]]

    def test_shuffled_order_matches_increasing(self, monkeypatch):
        # Each order from an emptied store.
        monkeypatch.setattr(quiver, "_STORE", quiver._STORE[:1])
        increasing = [r_n1(n) for n in range(1, 15)]
        monkeypatch.setattr(quiver, "_STORE", quiver._STORE[:1])
        order = list(range(1, 15))
        random.Random(7).shuffle(order)
        shuffled = {n: r_n1(n) for n in order}
        assert [shuffled[n] for n in range(1, 15)] == increasing

    def test_type_sum_cross_multiplies(self, monkeypatch):
        # A class count off by a factor in its denominator alone breaks the
        # check, as does one off by one in a single coefficient.
        for n in range(1, 6):
            terms, ok = type_sum(n, r_n1(n))
            assert ok and [t for t, *_ in terms] == enumerate_types(n)
            assert not type_sum(n, r_n1(n) + 1)[1]
        monkeypatch.setattr(quiver, "c_tau", lambda tau: (c_tau(tau)[0], 2 * c_tau(tau)[1]))
        assert not type_sum(3, r_n1(3))[1]
        assert not genfunc_check(3)

    def test_breakdown_checks_type_sum(self, monkeypatch, capsys):
        assert cli.main(["quiver", "3", "--breakdown"]) == 0
        monkeypatch.setattr(quiver, "n_tau", lambda tau: n_tau(tau) + 1)
        assert cli.main(["quiver", "3", "--breakdown"]) == 2
        assert "internal consistency failure" in capsys.readouterr().err

    def test_bad_input(self):
        with pytest.raises(ValueError):
            enumerate_types(0)
        with pytest.raises(ValueError):
            phi_d(0)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be positive"):
                r_n1(n)
