"""Hermitian Clifford generators and the graded basis, stored as Pauli strings.

A phased m-qubit Pauli string is a triple (x, z, p) of two m-bit masks and a
phase exponent: i^p X^x Z^z, whose only nonzero entries are
(X^x Z^z)[r ^ x, r] = (-1)^{|z & r|}, with |.| counting set bits and bit
m-1-j acting on the j-th kron factor.  Moving Z^{z1} past X^{x2} costs
(-1)^{|z1 & x2|}, so

    (x1, z1, p1) (x2, z2, p2) = (x1 ^ x2, z1 ^ z2, p1 + p2 + 2|z1 & x2| mod 4).

The generators follow the Pauli iteration: from {sigma1, sigma2}, each step
maps every generator G to kron(G, sigma1) and appends kron(I, sigma2),
kron(I, sigma3); on masks (x, z, p) -> (2x + 1, 2z, p), plus (1, 1, 1) and
(0, 1, 0).  The graded basis elements

    E_{i1..ik} = i^{k(k-1)/2} * Gamma_{i1} ... Gamma_{ik},   i1 < ... < ik,

are single strings, hermitian (p = |x & z| mod 2) and trace-orthogonal,
trace(E_A E_B) = 2^m delta_AB, because their 4^m (x, z) pairs are distinct.
Two strings anticommute iff |z1 & x2| + |x1 & z2| is odd.  CliffordBasis
stores only the (x, z, p) table; dense matrices are built on request.

"extended" mode appends the top element Gamma_{2m+1} (the phased product of
all generators, anticommuting with each) and builds grades 0..m over the
2m+1 indices: again 4^m orthogonal elements.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import BadIndex, DimensionMismatch, ModeMismatch, ResourceLimit

MAX_M = 6

_PHASES = np.array([1.0, 1j, -1.0, -1j])


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Record:
    """Base of the package's immutable records: a subclass's __init__ sets its
    __slots__ once, in order, through _set; assigning or deleting an attribute
    later raises.  copy and pickle rebuild a record through its __init__."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _check_m(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise BadIndex(f"m must be a positive integer, got {m!r}")
    if m > MAX_M:
        raise ResourceLimit(f"m = {m} exceeds the supported maximum {MAX_M}")


def m_from_dim(dim: int) -> int:
    """The package's one rule for m from a matrix dimension: m when dim = 2^m
    with m >= 1, held to _check_m's range; else DimensionMismatch."""
    m = dim.bit_length() - 1
    if dim < 2 or dim != 1 << m:
        raise DimensionMismatch(f"matrix dim {dim} is not 2^m for an integer m >= 1")
    _check_m(m)
    return m


def side(m: int, mode: str = "standard") -> int:
    """Number of generator indices: 2m, plus the top element in extended mode."""
    if mode not in ("standard", "extended"):
        raise ModeMismatch(f"unknown mode {mode!r}")
    return 2 * m if mode == "standard" else 2 * m + 1


def max_grade(m: int, mode: str = "standard") -> int:
    """Top grade of the orthogonal family: 2m, or m over the 2m + 1 extended indices."""
    return side(m, mode) if mode == "standard" else m


@lru_cache(maxsize=None)
def _signs(m: int) -> np.ndarray:
    """Walsh-Hadamard signs H[r, c] = (-1)^{|r & c|}, by Sylvester doubling."""
    h = np.ones((1, 1))
    for _ in range(m):
        h = np.block([[h, h], [h, -h]])
    return _freeze(h)


def _product(strings) -> tuple:
    """Product of phased Pauli strings (x, z, p), left to right."""
    x = z = p = 0
    for x2, z2, p2 in strings:
        p += p2 + 2 * (z & x2).bit_count()
        x ^= x2
        z ^= z2
    return x, z, p % 4


def _dense(m: int, x: int, z: int, p: int) -> np.ndarray:
    """The 2^m x 2^m matrix i^p X^x Z^z."""
    r = np.arange(2 ** m)
    out = np.zeros((2 ** m, 2 ** m), dtype=complex)
    out[r ^ x, r] = _PHASES[p % 4] * _signs(m)[z] + 0j  # + 0j clears signed zeros
    return out


@lru_cache(maxsize=None)
def _generator_strings(m: int, mode: str = "standard") -> tuple:
    """(x, z, p) of Gamma_1 .. Gamma_side by the Pauli iteration."""
    _check_m(m)
    side(m, mode)  # rejects an unknown mode
    gens = [(1, 0, 0), (1, 1, 1)]
    for _ in range(m - 1):
        gens = [(2 * x + 1, 2 * z, p) for x, z, p in gens] + [(1, 1, 1), (0, 1, 0)]
    if mode == "extended":
        # Gamma_{2m+1} = (-i)^m Gamma_1 ... Gamma_{2m}, and (-i)^m = i^{3m}
        x, z, p = _product(gens)
        gens.append((x, z, (p + 3 * m) % 4))
    return tuple(gens)


@lru_cache(maxsize=None)
def generate_gammas(m: int) -> tuple:
    """The 2m generators for m qubits: hermitian, traceless, dim 2^m."""
    return tuple(_freeze(_dense(m, *g)) for g in _generator_strings(m))


@lru_cache(maxsize=None)
def chirality(m: int) -> np.ndarray:
    """Gamma_{2m+1} = (-i)^m Gamma_1 ... Gamma_{2m}; squares to I, anticommutes with all generators."""
    return _freeze(_dense(m, *_generator_strings(m, "extended")[-1]))


@lru_cache(maxsize=None)
def extended_gammas(m: int) -> tuple:
    """The 2m+1 mutually anticommuting elements: generators plus chirality."""
    return generate_gammas(m) + (chirality(m),)


@lru_cache(maxsize=None)
def multi_indices(side: int, k: int) -> MappingProxyType:
    """Read-only table of the increasing k-tuples of 1..side, in lexicographic order."""
    return MappingProxyType(dict.fromkeys(itertools.combinations(range(1, side + 1), k)))


def _int_key(indices) -> tuple:
    """indices as a tuple, or BadIndex unless each is a Python int (no bool, float, numpy int)."""
    key = tuple(indices)
    if any(type(i) is not int for i in key):
        raise BadIndex(f"indices {key} must be Python ints")
    return key


def normalize_key(indices) -> tuple[tuple, int]:
    """Sort a multi-index (see _int_key), returning (increasing tuple, permutation sign).

    This is the package's one permutation parity: the sign of the swaps an
    insertion sort makes.  A repeated index is BadIndex.
    """
    idx = list(_int_key(indices))
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    if any(idx[i] == idx[i + 1] for i in range(len(idx) - 1)):
        raise BadIndex(f"repeated index in {tuple(indices)}")
    return tuple(idx), sign


def multi_index(indices, side: int) -> tuple:
    """The package's one multi-index rule: indices as a tuple of ints (see
    _int_key) increasing strictly within 1..side, or BadIndex."""
    key = _int_key(indices)
    if key not in multi_indices(side, len(key)):
        raise BadIndex(f"indices {key} are not strictly increasing within 1..{side}")
    return key


def basis_element(m: int, indices, mode: str = "standard") -> np.ndarray:
    """Graded basis element for a strictly increasing multi-index (1-based) of
    any grade; only the orthogonal family of full_basis stops at m in extended mode."""
    gens = _generator_strings(m, mode)
    idx = multi_index(indices, len(gens))
    x, z, p = _product(gens[i - 1] for i in idx)
    return _dense(m, x, z, p + len(idx) * (len(idx) - 1) // 2)


class CliffordBasis(Record):
    """The 4^m graded elements E_A = i^p X^x Z^z as one Pauli-string table.

    rows maps each increasing multi-index A to its row of the x, z, p
    arrays; rows run grade by grade, lexicographically within a grade.
    """

    __slots__ = ("m", "mode", "rows", "x", "z", "p")

    def __init__(self, m: int, mode: str, rows: dict, x: np.ndarray, z: np.ndarray,
                 p: np.ndarray):
        self._set(m, mode, rows, x, z, p)

    @property
    def dim(self) -> int:
        return 2 ** self.m

    @property
    def side(self) -> int:
        return side(self.m, self.mode)

    @property
    def max_grade(self) -> int:
        return max_grade(self.m, self.mode)

    @property
    def indices(self) -> list:
        """Every multi-index of the family, in table order."""
        return list(self.rows)

    def indices_of_grade(self, k: int):
        return [idx for idx in self.rows if len(idx) == k]

    def element(self, indices) -> np.ndarray:
        """Dense E_A, built on each call."""
        row = self.rows.get(multi_index(indices, self.side))
        if row is None:
            raise BadIndex(f"no basis element with index {tuple(indices)}")
        return _dense(self.m, int(self.x[row]), int(self.z[row]), int(self.p[row]))

    def expand(self, coeffs: dict) -> np.ndarray:
        """Dense sum_A c_A E_A for a mapping {increasing multi-index: c_A}.

        With i^p c_A collected at (x, z), one Walsh-Hadamard product gives
        the entries (r ^ x, r).  The c_A may also be arrays that broadcast
        to one shape S; the result is then an S + (2^m, 2^m) stack.
        """
        rows = np.array([self.rows[idx] for idx in coeffs], dtype=int)
        vals = np.array(np.broadcast_arrays(*coeffs.values()), dtype=complex)
        w = np.zeros(vals.shape[1:] + (self.dim, self.dim), dtype=complex)
        w[..., self.x[rows], self.z[rows]] = np.moveaxis(vals, 0, -1) * _PHASES[self.p[rows]]
        r = np.arange(self.dim)
        out = np.empty_like(w)
        out[..., r[:, None] ^ r, r] = w @ _signs(self.m)
        return out

    def project(self, rho: np.ndarray) -> np.ndarray:
        """trace(rho E_A) for every row, in the order of indices.

        trace(rho X^x Z^z) = sum_r rho[r, r ^ x] (-1)^{|z & r|}.
        """
        r = np.arange(self.dim)
        t = rho[r, r[:, None] ^ r] @ _signs(self.m)
        return _PHASES[self.p] * t[self.x, self.z]


def full_basis(m: int, mode: str = "standard") -> CliffordBasis:
    """The Pauli-string table of every graded basis element (4^m in either mode)."""
    gens = _generator_strings(m, mode)
    # unphased products, each from its prefix by one more factor
    raw = {(): (0, 0, 0)}
    for k in range(1, max_grade(m, mode) + 1):
        for idx in multi_indices(len(gens), k):
            raw[idx] = _product((raw[idx[:-1]], gens[idx[-1] - 1]))
    table = [(x, z, p + len(idx) * (len(idx) - 1) // 2) for idx, (x, z, p) in raw.items()]
    x, z, p = np.array(table, dtype=np.int64).T
    return CliffordBasis(m=m, mode=mode, rows={idx: n for n, idx in enumerate(raw)},
                         x=_freeze(x), z=_freeze(z), p=_freeze(p % 4))


@lru_cache(maxsize=None)
def cached_basis(m: int, mode: str = "standard") -> CliffordBasis:
    """Shared immutable basis (construction is deterministic, so caching is safe)."""
    return full_basis(m, mode)


def element_stack(basis: CliffordBasis) -> tuple:
    """(ordered index list, stacked dense elements), built on each call."""
    order = basis.indices
    return order, np.stack([basis.element(idx) for idx in order])


def verify_algebra(basis: CliffordBasis) -> dict:
    """Exact residual report over all pairs: anticommutators, hermiticity, orthogonality.

    Each relation holds exactly or fails by a fixed amount: 2 for a
    commuting generator pair or a non-hermitian element (then E^dag = -E),
    4 for a generator squaring to -I, 2^m for two rows sharing (x, z) and
    2^{m+1} for E_A^2 = -I on the Gram diagonal.
    """
    h = _signs(basis.m)
    hermitian = (1 - 2 * (basis.p & 1)) == h[basis.x, basis.z]
    gens = [basis.rows[(i,)] for i in range(1, basis.side + 1)]
    gx, gz = basis.x[gens], basis.z[gens]
    commute = h[gz[:, None], gx] * h[gx[:, None], gz] > 0
    np.fill_diagonal(commute, False)
    n = len(basis.rows)
    duplicate = len(np.unique(basis.x * basis.dim + basis.z)) < n
    herm_bad, gen_bad = not hermitian.all(), not hermitian[gens].all()
    return {
        "m": basis.m,
        "mode": basis.mode,
        "n_elements": n,
        "pairs_checked": n * n,
        "max_anticommutator_residual": max(2.0 * bool(commute.any()), 4.0 * gen_bad),
        "max_hermiticity_residual": 2.0 * herm_bad,
        "max_orthogonality_residual": max(1.0 * basis.dim * duplicate, 2.0 * basis.dim * herm_bad),
    }
