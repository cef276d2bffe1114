"""Small atlases without numpy: `sample` of a vector, or of a grade-2 tensor
at m <= 2, drawn, decided and checked from Python floats.

A vector configuration rho = 2^-m (I + sum_j v_j Gamma_j) has the spectrum
(1 +- |v|) / 2^m, so its generalized Bloch sphere is the unit ball of the 2m
coordinates.  A grade-2 tensor is a vector too at m = 1 (E_12 borders the
normal form's matrix as the (2m+1)-th vector entry), and at m = 2 its
normal form is mu = ((a_+ + a_-) / 2, |a_+ - a_-| / 2, 0), the paper's
tunnel lengths a_pm (genbloch.tunnel_amplitudes), so lambda_min is
(1 - max(a_+, a_-)) / 4 and its sphere is the pair of elliptic tunnels.
The CLI answers such an atlas of at most PLAIN_CELLS draws x 4^m matrix
entries here (atlas), with domains.sample_domain's table, value for
value: the same random.Random(seed).random() draws; lambda_min from the
same mu by spectra.sign_sums' order of operations, bit for bit what
domains.lowest_eigenvalues gives; and an oracle that shares nothing with
it, a Cholesky factor of 2^m (rho + tol I) assembled from the elements'
Pauli strings i^p X^x Z^z (_strings), which exists exactly when
lambda_min > -tol (_positive_definite).  It can differ from sample_domain's
LAPACK oracle only for a draw within rounding of -tol.  The table is one
block of list columns, which plain spells byte for byte as it spells
sample_domain's arrays.  Every sample request is held to one rule
(_check_sample), on either path.  A grade-2 atlas at m >= 3 stays with
sample_domain: its normal form needs LAPACK's singular values.

Per fresh process, with every draw admissible (each Cholesky runs to its
end), the plain path beats numpy's import and sample_domain together up to
between 2^16 and 2^17 draws x 4^m at m = 1, 2 and 6, for either grade at
m <= 2, and further at m = 3..5 (README); PLAIN_CELLS sits a factor of 2
below each crossover.  Like figures, the module imports nothing of the
package but its root and errors.
"""

from __future__ import annotations

import math
import operator
import random
import sys

from . import (DEFAULT_TOL, MAX_ROWS, _generators, _is_int, admits, sum_of_squares,
               tunnel_amplitudes)
from .errors import GradeOutOfRange, NonFiniteResult, ResourceLimit, _bounded, _check_m

# the most draws x 4^m matrix entries of an atlas answered here: 8,192 draws
# at m = 1, 2,048 at m = 2, 512 at m = 3, 8 at m = 6
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


def _strings(m: int, k: int) -> list:
    """The Pauli strings (x, z, p) of the grade-k elements at m, k 1 or 2, in
    wire order: the generators, or E_ij = i Gamma_i Gamma_j, i < j
    lexicographic, by the product rule of the clifford module's docstring."""
    gens = _generators(m)
    if k == 1:
        return gens
    return [(x1 ^ x2, z1 ^ z2, (p1 + p2 + 2 * (z1 & x2).bit_count() + 1) % 4)
            for i, (x1, z1, p1) in enumerate(gens) for x2, z2, p2 in gens[i + 1:]]


def _entries(m: int, strings: list) -> tuple:
    """The plan of _shifted for strings at m, built once per atlas: each
    string's phase i^p, and for each row of 2^m (rho + tol I) its entries on
    and below the diagonal as [start, terms], terms indexing the d draws'
    c i^p, then their negations, in string order: X^x Z^z has (-1)^{|z & r|}
    at (r ^ x, r)."""
    dim, d = 1 << m, len(strings)
    rows = [[[1.0 + dim * DEFAULT_TOL if c == r else 0j, []] for c in range(r + 1)]
            for r in range(dim)]
    for s, (x, z, _) in enumerate(strings):
        for r in range(dim):
            if r ^ x >= r:
                rows[r ^ x][r][1].append(s + d * ((z & r).bit_count() & 1))
    return [1j ** p for _, _, p in strings], rows


def _shifted(plan: tuple, v: list) -> list:
    """2^m (rho + tol I) = (1 + 2^m tol) I + sum_j v_j i^p X^x Z^z of one draw v,
    as rows of complex on and below the diagonal, each entry its start plus
    its terms in string order (_entries)."""
    phases, rows = plan
    w = [c * phase for c, phase in zip(v, phases)]
    w += [-c for c in w]
    shifted = []
    for row in rows:
        cells = []
        for a, terms in row:
            for t in terms:
                a = a + w[t]
            cells.append(a)
        shifted.append(cells)
    return shifted


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


def atlas(m: int, k: int, n: int, seed: int, box: float) -> tuple:
    """domains.sample_domain(m, k, n, seed, box) of a checked request
    (_check_sample) with k = 1 or m <= 2, as (column names, [one block of list
    columns]): index (int), c0..c{d-1} (float), closed_admissible and
    oracle_admissible (bool) and boundary_margin (float).  A margin that is
    not finite is NonFiniteResult, before the oracle runs."""
    strings, dim = _strings(m, k), 1 << m
    d = len(strings)
    rng = random.Random(seed)
    draws = [-box + 2.0 * box * rng.random() for _ in range(n * d)]
    rows = [draws[lo:lo + d] for lo in range(0, n * d, d)]
    if k == 2 and m == 2:
        mus = map(tunnel_amplitudes, rows)
    else:  # a vector, or at m = 1 the grade 2m, which borders M as one
        mus = ((math.sqrt(sum_of_squares(v)), 0.0) for v in rows)
    # spectra.sign_sums' lowest sum in its order, 0.0 - mu_0 - mu_1 (the zero
    # amplitudes add +-0.0, and the sign of a zero sum is lost in 1.0 + it)
    lam = [(1.0 + (-mu0 - mu1)) / dim for mu0, mu1 in mus]
    margin = [abs(x) for x in lam]
    if not all(map(math.isfinite, margin)):
        raise NonFiniteResult()
    plan = _entries(m, strings)
    oracle = [_positive_definite(_shifted(plan, v)) for v in rows]
    columns = [list(range(n)), *(draws[j::d] for j in range(d)),
               [admits(x) for x in lam], oracle, margin]
    return _sample_names(d), [columns]
