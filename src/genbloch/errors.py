"""Exception types shared across the package, the one JSON spelling of an
answer, which refuses a value that is not finite, and the input rules that
refuse with them and load no numpy: the field rule (wire_field), a bounded
number (_bounded) and the range of m (_check_m)."""

import contextlib
import math
import operator

from . import MAX_M, _is_int


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


def wire_field(value, kind: type, name):
    """A JSON field or a record argument as kind, or MalformedInput naming the field (name,
    or a function spelling it when called), which cli.run() reports in one line.  The one
    float rule, for every input number and float argument: a finite numbers.Real that is
    no bool, as float(value) (a float skips the costly isinstance check); a str, Decimal,
    complex, None, inf, NaN or int beyond float range is refused.  An int is read by
    operator.index, which refuses 2.0, "2" and True."""
    import numbers  # here, so that importing the CLI loads no more than the package

    try:
        if kind is not float or type(value) is float or isinstance(value, numbers.Real):
            out = operator.index(value) if kind is int else float(value) if kind is float else value
            if (isinstance(out, kind) and not isinstance(value, bool)
                    and (kind is not float or math.isfinite(out))):
                return out
    except (TypeError, ValueError, OverflowError):
        pass
    name = name() if callable(name) else name
    raise MalformedInput(f"field {name!r}: expected {kind.__name__}, got {value!r:.60}")


def _bounded(value, name: str, rule: str, top: float = math.inf) -> float:
    """value by the float rule (wire_field) in [0, top], else ResourceLimit."""
    with contextlib.suppress(MalformedInput):
        if 0 <= (x := wire_field(value, float, name)) <= top:
            return x
    raise ResourceLimit(f"{name} must be {rule}, got {value!r}")


def _check_m(m: int) -> None:
    """The range of m: BadIndex unless an integer >= 1 (genbloch._is_int),
    ResourceLimit above MAX_M."""
    if not _is_int(m) or m < 1:
        raise BadIndex(f"m must be a positive integer, got {m!r}")
    if m > MAX_M:
        raise ResourceLimit(f"m = {m} exceeds the supported maximum {MAX_M}")
