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
Two strings anticommute iff |z1 & x2| + |x1 & z2| is odd.

A multi-index is keyed by its bitmask, index i being bit i - 1
(index_mask), and its grade is the count of bits set.  CliffordBasis holds
(x, z, p) at every mask of 1..side and the family's masks in wire order;
dense matrices are built on request.

"extended" mode appends the top element Gamma_{2m+1} (the phased product of
all generators, anticommuting with each) and builds grades 0..m over the
2m+1 indices: again 4^m orthogonal elements.  Its table's first 4^m rows, the
masks without index 2m + 1, are the standard table, so it expands either mode.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _generators
from .errors import BadIndex, DimensionMismatch, GradeMismatch, ModeMismatch, _check_m, wire_field

_PHASES = np.array([1.0, 1j, -1.0, -1j])


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Record:
    """Base of the package's immutable records: a subclass's __init__ sets its
    __slots__ once, in order, through _set; assigning or deleting an attribute
    later raises.  copy and pickle rebuild a record through its __init__, and
    repr spells Name(slot=value, ...) in __slots__ order."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


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
    n = side(m, mode)  # ModeMismatch for an unknown mode
    return n if mode == "standard" else m


@lru_cache(maxsize=None)
def _signs(m: int) -> np.ndarray:
    """Walsh-Hadamard signs H[r, c] = (-1)^{|r & c|}, by Sylvester doubling."""
    h = np.ones((1, 1))
    for _ in range(m):
        h = np.block([[h, h], [h, -h]])
    return _freeze(h)


def index_mask(indices, side: int, increasing: bool = False) -> tuple:
    """(mask, sign) of a multi-index over 1..side in any order: index i is bit
    i - 1 of mask, and sign is the parity of the permutation that sorts the
    indices.  The package's one multi-index rule and permutation parity:
    BadIndex unless each index is a Python int (no bool, float or numpy int),
    none repeats and each lies within 1..side, increasing strictly if asked
    (an index outside 1..side is named so unless that order is asked for).
    """
    key = tuple(indices)
    if not set(map(type, key)) <= {int}:
        raise BadIndex(f"indices {key} must be Python ints")
    if len(set(key)) < len(key):
        raise BadIndex(f"repeated index in {key}")
    inside = not key or 0 < min(key) and max(key) <= side
    if not (inside or increasing):
        raise BadIndex(f"index outside 1..{side} in {key}")
    mask = swaps = 0
    if inside:
        for i in key:
            swaps += (mask >> i).bit_count()  # the greater indices placed before i
            mask |= 1 << (i - 1)
        if not (increasing and swaps):
            return mask, -1 if swaps % 2 else 1
    raise BadIndex(f"indices {key} are not strictly increasing within 1..{side}")


def mask_indices(masks, k: int, side: int) -> np.ndarray:
    """The (n, k) array of the increasing 1-based indices of n masks, or
    GradeMismatch unless each mask sets k of the bits 0..side-1 and no other."""
    masks = np.asarray(masks, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(side)) & 1
    if (bits.sum(axis=1) != k).any() or (masks >> side).any():
        raise GradeMismatch(f"masks {masks[:4].tolist()} are not of grade {k} over 1..{side}")
    return np.nonzero(bits)[1].reshape(len(masks), k) + 1


def basis_element(m: int, indices, mode: str = "standard") -> np.ndarray:
    """Graded basis element for a strictly increasing multi-index (1-based) of
    any grade; only the orthogonal family of full_basis stops at m in extended mode."""
    basis = cached_basis(m, mode)
    return basis.expand({index_mask(indices, basis.side, increasing=True)[0]: 1.0}) + 0j


class CliffordBasis(Record):
    """The graded elements E_A = i^p X^x Z^z as one Pauli-string table.

    x, z, p and grade run over every mask A of 1..side (clifford.index_mask);
    masks lists the 4^m masks of the orthogonal family in wire order, grade
    by grade and lexicographically within a grade.
    """

    __slots__ = ("m", "mode", "masks", "grade", "x", "z", "p")

    def __init__(self, m: int, mode: str, masks: np.ndarray, grade: np.ndarray, x: np.ndarray,
                 z: np.ndarray, p: np.ndarray):
        self._set(m, mode, masks, grade, x, z, p)

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
        """Every multi-index of the family as a tuple, in table order."""
        return [tuple(i + 1 for i in range(self.side) if mask >> i & 1)
                for mask in self.masks.tolist()]

    def element(self, indices) -> np.ndarray:
        """Dense E_A, built on each call by expand; + 0j clears signed zeros."""
        mask, _ = index_mask(indices, self.side, increasing=True)
        if self.grade[mask] > self.max_grade:
            raise BadIndex(f"no basis element with index {tuple(indices)}")
        return self.expand({mask: 1.0}) + 0j

    def expand(self, coeffs: dict) -> np.ndarray:
        """Dense sum_A c_A E_A for a mapping {mask of A: c_A}, any masks of the table.

        With i^p c_A collected at (x, z), one Walsh-Hadamard product gives
        the entries (r ^ x, r).  The c_A may also be arrays that broadcast
        to one shape S; the result is then an S + (2^m, 2^m) stack.
        """
        masks = np.fromiter(coeffs, dtype=np.int64, count=len(coeffs))
        vals = np.array(np.broadcast_arrays(*coeffs.values()), dtype=complex)
        w = np.zeros(vals.shape[1:] + (self.dim, self.dim), dtype=complex)
        w[..., self.x[masks], self.z[masks]] = np.moveaxis(vals, 0, -1) * _PHASES[self.p[masks]]
        r = np.arange(self.dim)
        out = np.empty_like(w)
        out[..., r[:, None] ^ r, r] = w @ _signs(self.m)
        return out

    def project(self, rho: np.ndarray) -> np.ndarray:
        """trace(rho E_A) for every A of masks, in that order.

        trace(rho X^x Z^z) = sum_r rho[r, r ^ x] (-1)^{|z & r|}.
        """
        r = np.arange(self.dim)
        t = rho[r, r[:, None] ^ r] @ _signs(self.m)
        return _PHASES[self.p[self.masks]] * t[self.x[self.masks], self.z[self.masks]]


def full_basis(m: int, mode: str = "standard") -> CliffordBasis:
    """The Pauli-string table of every mask of 1..side, doubled once per
    generator (a mask with bit j is the mask without it times Gamma_{j+1}),
    and the family's 4^m masks in wire order."""
    _check_m(m)
    n = side(m, mode)
    gens = _generators(m)
    h = _signs(m)
    x = z = p = grade = rev = np.zeros(1, dtype=np.int64)
    for j in range(n):
        # Gamma_{2m+1} = (-i)^m Gamma_1 ... Gamma_{2m}: the last product so far,
        # unphased, times (-i)^m = i^{3m}
        gx, gz, gp = gens[j] if j < 2 * m else (x[-1], z[-1], p[-1] + 3 * m)
        x, z, p = (np.concatenate([x, x ^ gx]), np.concatenate([z, z ^ gz]),
                   np.concatenate([p, p + gp + 2 * (h[z, gx] < 0)]))
        grade = np.concatenate([grade, grade + 1])
        rev = np.concatenate([rev, rev + (1 << (n - 1 - j))])
    # within a grade, lexicographic order is descending order of the bit-reversed
    # mask; the family, grades 0..max_grade, is the first 4^m masks in either mode
    masks = np.lexsort((-rev, grade))[:4 ** m]
    p = (p + grade * (grade - 1) // 2) % 4
    return CliffordBasis(m=m, mode=mode, masks=_freeze(masks), grade=_freeze(grade),
                         x=_freeze(x), z=_freeze(z), p=_freeze(p))


@lru_cache(maxsize=None)
def cached_basis(m: int, mode: str = "standard") -> CliffordBasis:
    """Shared immutable basis (construction is deterministic, so caching is safe)."""
    return full_basis(m, mode)


def verify_algebra(basis: CliffordBasis) -> dict:
    """Exact residual report over all pairs: anticommutators, hermiticity, orthogonality.

    Each relation holds exactly or fails by a fixed amount: 2 for a
    commuting generator pair or a non-hermitian element (then E^dag = -E),
    4 for a generator squaring to -I, 2^m for two rows sharing (x, z) and
    2^{m+1} for E_A^2 = -I on the Gram diagonal.
    """
    h = _signs(wire_field(basis, CliffordBasis, "basis").m)
    hermitian = (1 - 2 * (basis.p & 1)) == h[basis.x, basis.z]
    gens = 1 << np.arange(basis.side)
    gx, gz = basis.x[gens], basis.z[gens]
    commute = h[gz[:, None], gx] * h[gx[:, None], gz] > 0
    np.fill_diagonal(commute, False)
    n = len(basis.masks)
    # sorted, a repeated (x, z) pair sits beside its twin (np.unique would load numpy.ma)
    keys = np.sort((basis.x * basis.dim + basis.z)[basis.masks])
    duplicate = bool((keys[1:] == keys[:-1]).any())
    herm_bad, gen_bad = not hermitian[basis.masks].all(), not hermitian[gens].all()
    return {
        "m": basis.m,
        "mode": basis.mode,
        "n_elements": n,
        "pairs_checked": n * n,
        "max_anticommutator_residual": max(2.0 * bool(commute.any()), 4.0 * gen_bad),
        "max_hermiticity_residual": 2.0 * herm_bad,
        "max_orthogonality_residual": max(1.0 * basis.dim * duplicate, 2.0 * basis.dim * herm_bad),
    }
