"""The vector atlas without numpy: `sample --k 1`, drawn, decided and checked
from Python floats.

A vector configuration rho = 2^-m (I + sum_j v_j Gamma_j) has the spectrum
(1 +- |v|) / 2^m, so its generalized Bloch sphere is the unit ball of the 2m
coordinates.  The CLI answers a vector atlas of at most PLAIN_CELLS draws x
4^m matrix entries here (vector_atlas), with domains.sample_domain's table,
value for value: the same random.Random(seed).random() draws; the closed
form lambda_min = (1 - |v|) / 2^m, |v|^2 added left to right, bit for bit
what domains.lowest_eigenvalues gives a vector; and an oracle that shares
nothing with it, a Cholesky factor of 2^m (rho + tol I) assembled from the
generators' Pauli strings i^p X^x Z^z, which exists exactly when
lambda_min > -tol (_positive_definite).  It can differ from sample_domain's
LAPACK oracle only for a draw within rounding of -tol.  The table is one
block of list columns, which plain spells byte for byte as it spells
sample_domain's arrays.  Every sample request is held to one rule
(_check_sample), on either path.

Per fresh process, with every draw admissible (each Cholesky runs to its
end), the plain path beats numpy's import and sample_domain together up to
between 2^16 and 2^17 draws x 4^m at m = 1, 2 and 6, and further at
m = 3..5 (README); PLAIN_CELLS sits a factor of 2 below each crossover.
Like figures, the module imports nothing of the package but its root and
errors.
"""

from __future__ import annotations

import math
import operator
import random
import sys

from . import DEFAULT_TOL, MAX_ROWS, _generators, _is_int, admits, sum_of_squares
from .errors import GradeOutOfRange, NonFiniteResult, ResourceLimit, _bounded, _check_m

# the most draws x 4^m matrix entries of a vector atlas answered here: 8,192
# draws at m = 1, 512 at m = 3, 8 at m = 6
PLAIN_CELLS = 2 ** 15


def _check_sample(m, k, n, seed, box) -> tuple:
    """(m, k, n, seed, box) as four ints and a float, once they name an atlas
    the package draws: m by _check_m, grade k 1 or 2, at most MAX_ROWS draws
    n >= 0 and seed >= 0, each an integer by genbloch._is_int, and a finite
    box >= 0 with 2 box finite."""
    _check_m(m)
    if not _is_int(k) or k not in (1, 2):
        raise GradeOutOfRange("sampling covers tensor grades 1 and 2")
    if not _is_int(n) or n < 0 or n > MAX_ROWS:
        raise ResourceLimit(f"sample count {n!r} out of range")
    if not _is_int(seed) or seed < 0:
        raise ResourceLimit(f"seed must be an integer >= 0, got {seed!r}")
    # the draws span [-box, box], so 2 * box must be finite as well
    box = _bounded(box, "box", "a finite number >= 0 with 2 * box finite", sys.float_info.max / 2)
    # random.Random refuses a numpy integer
    return int(m), int(k), int(n), int(seed), box


def _sample_names(d: int) -> list:
    """The column names of an atlas of d coefficients."""
    return (["index"] + [f"c{i}" for i in range(d)]
            + ["closed_admissible", "oracle_admissible", "boundary_margin"])


def _shifted(m: int, strings: list, v: list) -> list:
    """2^m (rho + tol I) = (1 + 2^m tol) I + sum_j v_j i^p X^x Z^z of one draw v,
    as rows of complex: X^x Z^z has (-1)^{|z & r|} at (r ^ x, r)."""
    dim = 1 << m
    a = [[0j] * dim for _ in range(dim)]
    for r in range(dim):
        a[r][r] = 1.0 + dim * DEFAULT_TOL
    for (x, z, p), c in zip(strings, v):
        c = c * 1j ** p
        for r in range(dim):
            a[r ^ x][r] += -c if (z & r).bit_count() & 1 else c
    return a


def _positive_definite(a: list) -> bool:
    """Whether the hermitian matrix a, rows of complex read on and below the
    diagonal, is L L^dagger for a lower triangular L with a positive diagonal:
    Cholesky's factorisation, row by row, which stops at the first pivot that
    is not > 0 (NaN included).  No step raises: each division is by a pivot > 0."""
    conj = []  # the rows of L, conjugated
    for i, row in enumerate(a):
        li = []
        for j, cj in enumerate(conj):
            li.append((row[j] - sum(map(operator.mul, li, cj))) / cj[j])
        ci = [x.conjugate() for x in li]
        pivot = row[i].real - sum(map(operator.mul, li, ci)).real
        if not pivot > 0.0:
            return False
        ci.append(math.sqrt(pivot))
        conj.append(ci)
    return True


def vector_atlas(m: int, n: int, seed: int, box: float) -> tuple:
    """domains.sample_domain(m, 1, n, seed, box) of a checked request
    (_check_sample) as (column names, [one block of list columns]): index
    (int), c0..c{2m-1} (float), closed_admissible and oracle_admissible (bool)
    and boundary_margin (float).  A margin that is not finite is
    NonFiniteResult, before the oracle runs."""
    d, dim = 2 * m, 1 << m
    rng = random.Random(seed)
    draws = [-box + 2.0 * box * rng.random() for _ in range(n * d)]
    rows = [draws[lo:lo + d] for lo in range(0, n * d, d)]
    lam = [(1.0 - math.sqrt(sum_of_squares(v))) / dim for v in rows]
    margin = [abs(x) for x in lam]
    if not all(map(math.isfinite, margin)):
        raise NonFiniteResult()
    strings = _generators(m)
    oracle = [_positive_definite(_shifted(m, strings, v)) for v in rows]
    columns = [list(range(n)), *(draws[j::d] for j in range(d)),
               [admits(x) for x in lam], oracle, margin]
    return _sample_names(d), [columns]
