"""Exception types shared across the package."""


class GenblochError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(GenblochError, ValueError):
    pass


class ResourceLimit(GenblochError, ValueError):
    pass


class BadIndex(GenblochError, ValueError):
    pass


class ModeMismatch(GenblochError, ValueError):
    pass


class DimensionMismatch(GenblochError, ValueError):
    pass


class GradeOutOfRange(GenblochError, ValueError):
    pass


class GradeMismatch(GenblochError, ValueError):
    pass


class NonUnitTrace(GenblochError, ValueError):
    pass


class UnsupportedM(GenblochError, ValueError):
    pass


class UnknownName(GenblochError, KeyError):
    pass


class NotUnitary(GenblochError, ValueError):
    pass


class KindMismatch(GenblochError, ValueError):
    pass


class ComplexRoots(GenblochError, ArithmeticError):
    """Closed-form roots came out complex for input that should give real ones.

    Signals an internal inconsistency (bad invariants fed to a spectrum
    formula), not a user error.
    """


class InvariantMismatch(GenblochError, ArithmeticError):
    """An identity between rotation invariants failed numerically.

    Raised when T4 exceeds its bound 2 r^2, or when the epsilon sum for D3
    disagrees with 48 times the Pfaffian.
    """


class NonFiniteResult(GenblochError, ValueError):
    """A result holds inf or NaN, which has no JSON spelling."""


class NegativeDiscriminant(ComplexRoots, ValueError):
    """2 r^2 - T4 is negative, so sqrt(2 r^2 - T4) in the m = 2 spectrum and in
    the z variable is complex: (r, T4) are not the invariants of any tensor."""


class BadResolution(GenblochError, ValueError):
    pass


class MalformedInput(GenblochError, ValueError):
    """A JSON input field is missing or of the wrong kind; the message names it."""


class UsageError(GenblochError, ValueError):
    """Bad command-line arguments."""
