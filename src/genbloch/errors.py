"""Exception types shared across the package, and the one JSON spelling of
an answer, which refuses a value that is not finite."""


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


class NotUnitary(GenblochError, ValueError):
    pass


class KindMismatch(GenblochError, ValueError):
    pass


class InvariantMismatch(GenblochError, ArithmeticError):
    """An identity between rotation invariants failed numerically.

    Raised when T4 exceeds its bound 2 r^2, and by the tests' D3 claim when
    the epsilon sum disagrees with 48 times the Pfaffian.
    """


class NonFiniteResult(GenblochError, ValueError):
    """A result holds inf or NaN, which has no JSON spelling."""

    def __init__(self, message="result is not finite (input beyond floating-point range?)"):
        super().__init__(message)


class BadResolution(GenblochError, ValueError):
    pass


class MalformedInput(GenblochError, ValueError):
    """An input is missing, of the wrong kind or not finite: a JSON field, or a
    value handed to a library constructor; the message names it."""


class UsageError(GenblochError, ValueError):
    """Bad command-line arguments."""


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), refusing inf and NaN."""
    import json

    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult() from exc
