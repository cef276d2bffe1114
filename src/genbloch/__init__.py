"""Clifford-algebra embeddings of m-qubit states.

Density matrices are expanded over the graded basis of a hermitian Clifford
algebra representation; their spectra become closed-form functions of
rotation invariants, and admissible parameter regions become generalized
Bloch spheres.  Every closed form ships with an independent eigensolver
oracle to check it against.

The public names below are imported on first use (PEP 562), so importing
one module of the package, such as the CLI, loads only what it needs.
The package itself holds the limits and the rules that load no numpy and
that the numpy-free answers (figures, ball) share with the array engine:
the integer rule, the positivity rule, the sum of squares, the tunnel
amplitudes and the generators' Pauli strings; the errors module holds the
rules that refuse.
"""

import math
import sys
from importlib import import_module

# the tolerance of every admissibility rule, kept here so the CLI reads it without numpy
DEFAULT_TOL = 1e-9
# the most qubits of any answer: a state's 2^m x 2^m matrix and its 4^m coordinates
MAX_M = 6
# the most rows a table answer may have: a figure's candidate rows (fig1 up to
# resolution 1024), the basis dump's 16^m matrix entries (m up to 5) or sample's draws
MAX_ROWS = 2 ** 20
# the memory of one bounded stage, divided by what one row costs there: a stack
# of decided draws, a block of sample's columns, a block's text grid
CHUNK_BYTES = 2 ** 20


def _is_int(n) -> bool:
    """An int or numpy integer, and no bool: the package's integer argument
    rule, which loads no numpy (a numpy integer exists only once it is loaded)."""
    numpy = sys.modules.get("numpy")
    integer = isinstance(n, int) or numpy is not None and isinstance(n, numpy.integer)
    return integer and not isinstance(n, bool)


def admits(min_eig, tol: float = DEFAULT_TOL):
    """The one positivity rule: lambda_min >= -tol, elementwise for an array."""
    return min_eig >= -tol


def sum_of_squares(values):
    """Sum of v * v added left to right, elementwise when the values are arrays.

    The builtin sum() of floats is compensated from Python 3.12 on, so it
    would not add in this order there.
    """
    total = 0.0
    for v in values:
        total = total + v * v
    return total


def tunnel_amplitudes(g) -> tuple:
    """(mu_0, mu_1) = ((a_+ + a_-) / 2, |a_+ - a_-| / 2), the paired singular
    values of a 4 x 4 antisymmetric G given by its entries in wire order,
    g = (G_12, G_13, G_14, G_23, G_24, G_34), elementwise when they are numpy
    values.  so(4) = su(2) + su(2) splits G into two vectors of lengths a_pm,
    whose unit balls are the paper's elliptic tunnels at m = 2:

        a_pm^2 = (G_12 +- G_34)^2 + (G_13 -+ G_24)^2 + (G_14 +- G_23)^2.

    The entries are scaled by 2^-e, e the binary exponent of the largest
    |G_ij|, and mu back by 2^e, each power in two factors within float range,
    so no square overflows or underflows where mu does not.  Every step is
    exact or one correctly rounded + - * / or sqrt, so floats and arrays give
    the same bits.
    """
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(g[0], (numpy.ndarray, numpy.generic)):
        frexp, ldexp, sqrt = numpy.frexp, numpy.ldexp, numpy.sqrt
        big = numpy.max(numpy.abs(g), axis=0)
    else:
        frexp, ldexp, sqrt = math.frexp, math.ldexp, math.sqrt
        big = max(map(abs, g))
    e = frexp(big)[1]
    low, high = ldexp(1.0, e // 2), ldexp(1.0, e - e // 2)
    g12, g13, g14, g23, g24, g34 = (x / low / high for x in g)
    plus = sqrt(sum_of_squares((g12 + g34, g13 - g24, g14 + g23)))
    minus = sqrt(sum_of_squares((g12 - g34, g13 + g24, g14 - g23)))
    return (plus + minus) / 2.0 * low * high, abs(plus - minus) / 2.0 * low * high


def _generators(m: int) -> list:
    """The Pauli strings (x, z, p) of Gamma_1 .. Gamma_2m, each i^p X^x Z^z, by
    the Pauli iteration (clifford): from {sigma1, sigma2}, each step maps every
    generator to (2x + 1, 2z, p) and appends (1, 1, 1) and (0, 1, 0)."""
    gens = [(1, 0, 0), (1, 1, 1)]
    for _ in range(m - 1):
        gens = [(2 * x + 1, 2 * z, p) for x, z, p in gens] + [(1, 1, 1), (0, 1, 0)]
    return gens


# public name -> the module that defines it
_OWNERS = {name: module for module, names in {
    "clifford": ("CliffordBasis", "basis_element", "cached_basis", "full_basis",
                 "verify_algebra"),
    "coords": ("AntisymTensor", "StateCoords", "antisym", "coords_from_json", "coords_to_json",
               "decode", "encode", "state_coords", "tensor_config", "vector"),
    "domains": ("DomainVerdict", "min_eigenvalue_verdict", "positivity", "sample_domain"),
    "figures": ("figure_columns",),
    "invariants": ("InvariantSet", "frobenius_r", "trace_T4", "two_tensor_invariants"),
    "linalg": ("exp_minus_i_hermitian", "hermitian_eigenvalues", "matrix_from_json",
               "matrix_to_json"),
    "spectra": ("Spectrum", "bordered_parts", "closed_form_spectrum", "numeric_spectrum",
                "pfaffian", "spectrum_from_values"),
    "symmetry": ("orthogonal_from_generator", "rotate_coords"),
}.items() for name in names}

__all__ = sorted(_OWNERS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _OWNERS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
