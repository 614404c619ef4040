import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polydiv import NonExactDivision, exact_div

from orbitpairs.errors import NegativeExponent
from orbitpairs.qpoly import (ONE, Q, QPolynomial, ZERO, format_poly, latex_poly,
                              laurent_product, monomial)


def poly(*ascending):
    return QPolynomial(ascending)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (Q + 1) * (Q - 1) == Q ** 2 - 1

    def test_add_zero_identity(self):
        p = poly(2, 2, 1)
        assert p + ZERO == p

    def test_self_cancellation(self):
        p = poly(2, 2, 1)
        assert p - p == ZERO
        assert not (p - p)

    def test_normalization_strips_trailing_zeros(self):
        assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPolynomial([0, 0]).coeffs == ()

    def test_fraction_collapses_to_int(self):
        # An integral Fraction coefficient is observed exactly like an int.
        p = poly(Fraction(1, 2)) * 2
        assert p == ONE and hash(p) == hash(ONE)
        assert p.is_integer_coefficients()
        assert p.to_json() == {"coeffs": [1]}
        assert format_poly(p) == "1"

    def test_degree(self):
        assert ZERO.degree is None
        assert ONE.degree == 0
        assert (Q ** 5).degree == 5

    def test_hash_and_grouping_keys(self):
        d = {Q + 1: "a"}
        assert d[poly(1, 1)] == "a"

    def test_scalar_and_power(self):
        assert 3 * (Q + 1) == poly(3, 3)
        assert (Q + 1) ** 2 == poly(1, 2, 1)
        assert (Q + 1) ** 0 == ONE


class TestExactDiv:
    # The tests' monic-only division helper (tests/polydiv.py).
    def test_factorization(self):
        assert exact_div(Q ** 2 - 1, Q - 1) == Q + 1

    def test_monomials(self):
        assert exact_div(Q ** 3, Q) == Q ** 2

    def test_remainder_raises(self):
        with pytest.raises(NonExactDivision):
            exact_div(Q ** 2 + 1, Q)
        with pytest.raises(NonExactDivision):
            exact_div(Q, Q ** 2)
        with pytest.raises(ValueError):
            exact_div(2 * Q, 2 * Q)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(ONE, ZERO)

    def test_roundtrip_property(self):
        for pc in [(1,), (2, 1), (0, -1, 3), (5,), ()]:
            for rc in [(1,), (1, 1), (3, 1), (-1, 0, 2, 1)]:
                p, r = QPolynomial(pc), QPolynomial(rc)
                assert exact_div(p * r, r) == p


class TestComposeEval:
    def test_table_row_composed(self):
        assert (Q + 2).compose_power(2) == Q ** 2 + 2

    def test_identity(self):
        p = poly(2, 2, 1)
        assert p.compose_power(1) == p

    def test_exponent_scaling(self):
        assert poly(2, 2, 1).compose_power(3) == poly(2, 0, 0, 2, 0, 0, 1)

    def test_compose_distributes_over_mul(self):
        p, r = poly(1, 2), poly(-1, 0, 1)
        assert (p * r).compose_power(3) == p.compose_power(3) * r.compose_power(3)

    def test_eval(self):
        assert (Q + 2)(3) == 5
        assert poly(5, 5, 1)(2) == 19
        assert ZERO(7) == 0

    def test_eval_of_composition(self):
        p = poly(1, -2, 0, 1)
        for q0 in (2, 3, 5):
            assert p.compose_power(2)(q0) == p(q0 ** 2)


class TestLaurentProduct:
    def test_single_factor(self):
        assert laurent_product(1, [1]) == Q - 1
        assert laurent_product(3, [1]) == Q ** 3 - Q ** 2

    def test_empty_product(self):
        assert laurent_product(4, []) == Q ** 4

    def test_monic_of_full_degree(self):
        for e, ms in [(5, [1, 2]), (7, [3, 2, 1]), (2, [2])]:
            p = laurent_product(e, ms)
            assert p.degree == e
            assert p.is_monic()

    def test_negative_power_raises(self):
        with pytest.raises(NegativeExponent):
            laurent_product(1, [1, 1])


class TestRendering:
    def test_descending_powers(self):
        assert format_poly(poly(4, 7, 5, 1)) == "q^3 + 5q^2 + 7q + 4"
        assert format_poly(ZERO) == "0"
        assert format_poly(Q - 1) == "q - 1"
        assert format_poly(-Q) == "-q"
        assert format_poly(poly(Fraction(1, 2))) == "(1/2)"

    def test_latex(self):
        assert latex_poly(poly(0, 0, -1, 1)) == "q^3 - q^2"
        assert latex_poly(monomial(15)) == "q^{15}"

    def test_json_roundtrip(self):
        for p in [ZERO, Q + 2, poly(Fraction(1, 2), -3, 1)]:
            assert QPolynomial.from_json(p.to_json()) == p
        obj = poly(Fraction(1, 2)).to_json()
        assert obj == {"coeffs": ["1/2"]}


# Independent arithmetic: sympy polynomials over QQ.
X = sympy.Symbol("q")
COEFF = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=7))
COEFFS = st.lists(COEFF, max_size=6)
POINT = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=4))


def rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(p):
    return sympy.Poly([rational(c) for c in reversed(p.coeffs)] or [0], X,
                      domain=sympy.QQ)


class TestAgainstSympy:
    @settings(deadline=None, max_examples=100)
    @given(COEFFS, COEFFS)
    def test_ring_operations(self, a, b):
        p, r = QPolynomial(a), QPolynomial(b)
        P, R = to_sympy(p), to_sympy(r)
        assert to_sympy(p + r) == P + R
        assert to_sympy(p - r) == P - R
        assert to_sympy(p * r) == P * R
        assert to_sympy(-p) == -P

    @settings(deadline=None, max_examples=100)
    @given(COEFFS, POINT)
    def test_evaluation(self, a, q0):
        p = QPolynomial(a)
        assert rational(p(q0)) == to_sympy(p).eval(rational(q0))

    @settings(deadline=None, max_examples=100)
    @given(COEFFS, COEFFS)
    def test_exact_div_by_monic(self, a, b):
        p, r = QPolynomial(a), QPolynomial(b + [1])
        quot = exact_div(p * r, r)
        assert quot == p
        expected, rem = sympy.div(to_sympy(p * r), to_sympy(r))
        assert to_sympy(quot) == expected and rem.is_zero

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.integers(-30, 30), max_size=6))
    def test_integral_fractions_observed_as_ints(self, cs):
        p, f = QPolynomial(cs), QPolynomial(map(Fraction, cs))
        assert p == f and hash(p) == hash(f)
        assert f.is_integer_coefficients() and p.is_integer_coefficients()
        assert json.dumps(f.to_json()) == json.dumps(p.to_json())
        assert format_poly(f) == format_poly(p)
        assert latex_poly(f) == latex_poly(p)
