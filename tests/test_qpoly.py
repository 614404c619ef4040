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

    def test_constant_collapses_to_int(self):
        # A constant polynomial is observed exactly like its int.
        p = poly(3) * 2 - 5
        assert p == ONE and p == 1 and hash(p) == hash(ONE)
        assert p.to_json() == {"coeffs": [1]}
        assert format_poly(p) == "1"

    def test_non_int_scalars_refused(self):
        for x in (0.5, Fraction(1, 2)):
            with pytest.raises(TypeError):
                Q * x
            with pytest.raises(TypeError):
                Q + x
            assert Q != x

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

    def test_over_a_denominator(self):
        assert format_poly(ONE, 2) == "(1/2)"
        assert format_poly(poly(0, -1, 1), 2) == "(1/2)q^2 - (1/2)q"
        assert format_poly(poly(4, -6, 2), 4) == "(1/2)q^2 - (3/2)q + 1"
        assert format_poly(poly(0, 3, -3), 3) == "-q^2 + q"
        assert format_poly(ZERO, 5) == "0"

    def test_latex(self):
        assert latex_poly(poly(0, 0, -1, 1)) == "q^3 - q^2"
        assert latex_poly(monomial(15)) == "q^{15}"
        assert latex_poly(monomial(15) - 3 * Q, 24) == "\\frac{1}{24}q^{15} - \\frac{1}{8}q"

    def test_json_roundtrip(self):
        for p in [ZERO, Q + 2, poly(-1, -3, 1), Q ** 70 * 10 ** 30]:
            assert QPolynomial(p.to_json()["coeffs"]) == p
            assert json.loads(json.dumps(p.to_json())) == p.to_json()
        obj = poly(-1, 0, 2).to_json()
        assert obj == {"coeffs": [-1, 0, 2]}
        assert all(type(c) is int for c in obj["coeffs"])


# Independent arithmetic: sympy polynomials over ZZ, evaluated over QQ.
X = sympy.Symbol("q")
COEFF = st.one_of(st.integers(-30, 30), st.integers())
COEFFS = st.lists(COEFF, max_size=6)
POINT = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=4))


def rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(p):
    assert all(type(c) is int for c in p.coeffs)
    return sympy.Poly(list(reversed(p.coeffs)) or [0], X, domain=sympy.ZZ)


def reference_render(p, den, latex):
    """p / den rendered on Fraction coefficients, term by term."""
    parts = []
    for power in range(len(p.coeffs) - 1, -1, -1):
        c = Fraction(p.coeffs[power], den)
        if c == 0:
            continue
        var = "" if power == 0 else "q" if power == 1 else \
            f"q^{{{power}}}" if latex and power > 9 else f"q^{power}"
        a = abs(c)
        if a.denominator != 1:
            num = f"\\frac{{{a.numerator}}}{{{a.denominator}}}" if latex \
                else f"({a.numerator}/{a.denominator})"
        else:
            num = "" if a == 1 and var else str(a)
        parts.append(("-" if c < 0 else "+", num + var or "0"))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(f" {sign} {term}" for sign, term in parts[1:])


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
    @given(COEFFS, COEFFS, st.integers(0, 3), st.integers(1, 4))
    def test_coefficients_stay_int(self, a, b, n, d):
        p, r = QPolynomial(a), QPolynomial(b)
        for out in (p + r, p - r, p * r, -p, 3 * p, p ** n, p.compose_power(d),
                    QPolynomial(json.loads(json.dumps(p.to_json()))["coeffs"])):
            assert all(type(c) is int for c in out.coeffs)
        assert QPolynomial(p.to_json()["coeffs"]) == p and hash(p) == hash(QPolynomial(a))


class TestRenderingReference:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(-60, 60), max_size=14), st.integers(1, 60))
    def test_matches_fraction_reference(self, cs, den):
        p = QPolynomial(cs)
        assert format_poly(p, den) == reference_render(p, den, latex=False)
        assert latex_poly(p, den) == reference_render(p, den, latex=True)
        if den == 1:
            assert format_poly(p) == format_poly(p, 1) and latex_poly(p) == latex_poly(p, 1)
