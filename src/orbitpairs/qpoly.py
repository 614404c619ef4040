"""Exact polynomials in the formal variable q.

A polynomial is a dense tuple of int coefficients in ascending powers with
no trailing zero; the zero polynomial is the empty tuple.  Every count of
the package lies in Z[q]; a rational quantity is carried as an int
polynomial over an int denominator, which the renderers reduce per term.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .errors import NegativeExponent


class QPolynomial:
    """Immutable exact polynomial in q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
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
        if isinstance(other, int):
            return self == QPolynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

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
        if isinstance(other, int):
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

    def __call__(self, q0):
        """Exact evaluation at q0 (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    # -- rendering / serialization ----------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"QPolynomial({list(self.coeffs)!r})"

    def to_json(self):
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, obj) -> "QPolynomial":
        return cls(obj["coeffs"])


def _coerce(x):
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, int):
        return QPolynomial((x,))
    return None


ZERO = QPolynomial()
ONE = QPolynomial((1,))
Q = QPolynomial((0, 1))


def monomial(power: int) -> QPolynomial:
    """q**power."""
    if power < 0:
        raise NegativeExponent(f"monomial with power {power}")
    return QPolynomial([0] * power + [1])


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


def _term(coeff: int, den: int, power: int, latex: bool) -> str:
    if power == 0:
        var = ""
    elif power == 1:
        var = "q"
    elif latex:
        var = f"q^{{{power}}}" if power > 9 else f"q^{power}"
    else:
        var = f"q^{power}"
    g = gcd(coeff, den)
    coeff, den = coeff // g, den // g
    if den != 1:
        c = f"\\frac{{{coeff}}}{{{den}}}" if latex else f"({coeff}/{den})"
    elif coeff == 1 and var:
        c = ""
    else:
        c = str(coeff)
    return (c + var) if (c or var) else "0"


def _render(p: QPolynomial, den: int, latex: bool) -> str:
    if not p:
        return "0"
    parts = []
    for power in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        parts.append((sign, _term(abs(c), den, power, latex)))
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


def format_poly(p: QPolynomial, den: int = 1) -> str:
    """Plain-text rendering of p / den with descending powers, each
    coefficient in lowest terms, e.g. 'q^3 + 5q^2 + 7q + 4' or '(1/2)q^2 - (1/2)q'."""
    return _render(p, den, latex=False)


def latex_poly(p: QPolynomial, den: int = 1) -> str:
    """LaTeX rendering of p / den with descending powers."""
    return _render(p, den, latex=True)
