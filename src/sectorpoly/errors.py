"""Exception hierarchy with stable machine-readable names.

The CLI serializes errors as ``{"error": <name>, "message": ...}`` and the
``name`` attribute is part of that contract, so it must stay stable even if
class names are refactored.
"""


class SectorPolyError(Exception):
    """Base class for all package errors."""

    name = "SectorPolyError"


class DomainError(SectorPolyError):
    """Input outside the mathematical domain of an operation."""

    name = "DomainError"


class PreconditionError(SectorPolyError):
    """A documented precondition of an operation was violated."""

    name = "PreconditionError"


class DegenerateInput(SectorPolyError):
    """Degree-0 polynomial passed to the root solver."""

    name = "DegenerateInput"


class AngleTooSmall(SectorPolyError):
    """The target argument is below the admissible sector for the degree."""

    name = "AngleTooSmall"


class ZeroModulus(SectorPolyError):
    """The prescribed zero has modulus zero."""

    name = "ZeroModulus"


class DegreeOne(SectorPolyError):
    """Positive-coefficient synthesis is undefined at degree 1."""

    name = "DegreeOne"


class DimensionCap(SectorPolyError):
    """Matrix dimension exceeds the minor-enumeration cap."""

    name = "DimensionCap"


class ComplexCharPoly(SectorPolyError):
    """Principal-minor sums are not real: no real characteristic polynomial."""

    name = "ComplexCharPoly"


class NotConjugateClosed(SectorPolyError):
    """A spectrum multiset is not closed under conjugation."""

    name = "NotConjugateClosed"


class ZeroLambda(SectorPolyError):
    """lambda = 0 is excluded from the weak-class eigenvalue region."""

    name = "ZeroLambda"


class NotAdmissible(SectorPolyError):
    """The requested eigenvalue lies outside the admissible region."""

    name = "NotAdmissible"


class FeasibleButUnwitnessed(SectorPolyError):
    """Admissible P eigenvalue whose witness reads below P: too close to a
    boundary for spectrum_feasible to tell it from P0."""

    name = "FeasibleButUnwitnessed"
