"""Exact division of polynomials by a monic divisor, for the cell-by-cell
reference censuses of the tests; the package itself never divides."""

from orbitpairs.qpoly import QPolynomial, ZERO


class NonExactDivision(ArithmeticError):
    """The division left a nonzero remainder."""


def exact_div(num: QPolynomial, den: QPolynomial) -> QPolynomial:
    """num / den for a monic den; NonExactDivision on a nonzero remainder."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not den.is_monic():
        raise ValueError(f"divisor {den} is not monic")
    if not num:
        return ZERO
    rem = list(num.coeffs)
    d = den.coeffs
    if len(rem) < len(d):
        raise NonExactDivision(f"{num} not divisible by {den}")
    quot = [0] * (len(rem) - len(d) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + len(d) - 1]
        if c:
            for j, dj in enumerate(d):
                rem[i + j] -= c * dj
    if any(rem):
        raise NonExactDivision(f"{num} not divisible by {den}")
    return QPolynomial(quot)
