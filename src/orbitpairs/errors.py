"""Exception hierarchy.

User-facing input problems raise ValueError subclasses; the remaining
exceptions signal internal consistency failures of the counting pipeline
and should never be seen on valid input.
"""


class OrbitPairsError(Exception):
    pass


class NegativeExponent(OrbitPairsError):
    """A Laurent expansion would leave a negative power of q."""


class IdealOutOfContext(ValueError, OrbitPairsError):
    """An order ideal has maximal points off the rows of the partition."""


class DegreeMismatch(OrbitPairsError):
    """A monicity/degree assertion on a computed polynomial failed."""


class NonIntegerResult(OrbitPairsError):
    """A count that must have integer coefficients came out rational."""


class BudgetExceeded(ValueError, OrbitPairsError):
    """An explicit enumeration would exceed the configured size budget."""
