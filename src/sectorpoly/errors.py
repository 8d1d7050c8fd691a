"""Exception hierarchy with stable machine-readable names.

The CLI serializes errors as ``{"error": <name>, ...}`` and the oracle
campaigns record them as ``error_<name>``, so ``name`` is wire text. Every
class takes its own class name as ``name`` unless its body sets one, so a
new subclass never reports its parent's name.
``tests/test_cli.py::TestErrorWireNames`` pins the names of the classes
below: renaming one is a change of the wire text, and fails that test.
"""


class SectorPolyError(Exception):
    """Base class for all package errors."""

    name = "SectorPolyError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "name" not in cls.__dict__:
            cls.name = cls.__name__


class DomainError(SectorPolyError):
    """Input outside the mathematical domain of an operation."""


class PreconditionError(SectorPolyError):
    """A documented precondition of an operation was violated."""


class DegenerateInput(SectorPolyError):
    """Degree-0 polynomial passed to the root solver."""


class AngleTooSmall(SectorPolyError):
    """The target argument is below the admissible sector for the degree."""


class ZeroModulus(SectorPolyError):
    """The prescribed zero has modulus zero."""


class DegreeOne(SectorPolyError):
    """Positive-coefficient synthesis is undefined at degree 1."""


class DimensionCap(SectorPolyError):
    """Matrix dimension exceeds the minor-enumeration cap."""


class ComplexCharPoly(SectorPolyError):
    """Principal-minor sums are not real: no real characteristic polynomial."""


class NotConjugateClosed(SectorPolyError):
    """A spectrum multiset is not closed under conjugation."""


class ZeroLambda(SectorPolyError):
    """lambda = 0 is excluded from the weak-class eigenvalue region."""


class NotAdmissible(SectorPolyError):
    """The requested eigenvalue lies outside the admissible region."""


class FeasibleButUnwitnessed(SectorPolyError):
    """Admissible P eigenvalue whose witness reads below P: too close to a
    boundary for spectrum_feasible to tell it from P0."""
