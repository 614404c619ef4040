"""Exact polynomials in the formal variable q.

A polynomial is a dense tuple of coefficients in ascending powers with no
trailing zero; the zero polynomial is the empty tuple.  Coefficients are
stored as given, ints or Fractions, and never converted: an integral Fraction
equals and hashes like its int, and the observers that tell integers from
fractions (is_integer_coefficients, to_json, the renderers) read denominator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import NegativeExponent

Coeff = Union[int, Fraction]


class QPolynomial:
    """Immutable exact polynomial in q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPolynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def has_nonnegative_coefficients(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return QPolynomial(cs)

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        cs = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    cs[i + j] += ai * bj
        return QPolynomial(cs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def compose_power(self, d: int) -> "QPolynomial":
        """Substitute q^d for q (coefficient of q^i moves to q^{i*d})."""
        if d < 1:
            raise ValueError("d must be >= 1")
        if d == 1 or not self:
            return self
        cs = [0] * ((len(self.coeffs) - 1) * d + 1)
        for i, c in enumerate(self.coeffs):
            cs[i * d] = c
        return QPolynomial(cs)

    def __call__(self, q0) -> Coeff:
        """Exact evaluation at a rational point (Horner)."""
        acc: Coeff = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    # -- rendering / serialization ----------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"QPolynomial({list(self.coeffs)!r})"

    def to_json(self):
        return {"coeffs": [int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
                           for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> "QPolynomial":
        return cls(Fraction(c) if isinstance(c, str) else c for c in obj["coeffs"])


def _coerce(x):
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return QPolynomial((x,))
    return None


ZERO = QPolynomial()
ONE = QPolynomial((1,))
Q = QPolynomial((0, 1))


def monomial(power: int, coeff: Coeff = 1) -> QPolynomial:
    """coeff * q**power."""
    if power < 0:
        raise NegativeExponent(f"monomial with power {power}")
    return QPolynomial([0] * power + [coeff])


def laurent_product(exponent: int, factors: Iterable[int]) -> QPolynomial:
    """Expand q**exponent * prod(1 - q**-m for m in factors) as a polynomial.

    Raises NegativeExponent if the expansion would leave a negative power,
    which indicates a caller bug (the exponent must dominate sum(factors)).
    """
    p = monomial(exponent)
    for m in factors:
        if m < 1:
            raise ValueError("factors must be positive")
        cs = p.coeffs
        if any(cs[:m]):
            raise NegativeExponent(f"shift by q^-{m} of {p}")
        shifted = cs[m:]
        p = p - QPolynomial(shifted)
    return p


def _term(coeff: Coeff, power: int, latex: bool) -> str:
    if power == 0:
        var = ""
    elif power == 1:
        var = "q"
    elif latex:
        var = f"q^{{{power}}}" if power > 9 else f"q^{power}"
    else:
        var = f"q^{power}"
    if coeff.denominator != 1:
        c = f"\\frac{{{coeff.numerator}}}{{{coeff.denominator}}}" if latex \
            else f"({coeff.numerator}/{coeff.denominator})"
    elif coeff == 1 and var:
        c = ""
    else:
        c = str(coeff)
    return (c + var) if (c or var) else "0"


def _render(p: QPolynomial, latex: bool) -> str:
    if not p:
        return "0"
    parts = []
    for power in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        parts.append((sign, _term(abs(c), power, latex)))
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


def format_poly(p: QPolynomial) -> str:
    """Plain-text rendering with descending powers, e.g. 'q^3 + 5q^2 + 7q + 4'."""
    return _render(p, latex=False)


def latex_poly(p: QPolynomial) -> str:
    """LaTeX rendering with descending powers."""
    return _render(p, latex=True)
