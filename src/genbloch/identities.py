"""The paper's identities, kept as checked claims beside the engine.

Tests and demos check each claim against the engine; no answer depends on
one.  This module imports the engine, and no engine module imports it.

spin_lift is the Clifford side of a rotation: for a generator alpha,
U = exp(-(i/2) sum_{i<j} alpha_{ij} E_{ij}) satisfies
U Gamma_i U^dag = sum_k L[i, k] Gamma_k with L = symmetry.orthogonal_from_generator(alpha),
and the compatibility identity that fixes the sign conventions is

    encode(rotate_coords(G, L)) = U^dag encode(G) U      (conjugate_state).

rotate_coords uses no Clifford algebra, so the identity checks one engine
against another.

char_poly is the Faddeev-LeVerrier characteristic polynomial.  Writing
P(lambda) = sum_i (-1)^i a_i lambda^i, a state is positive semidefinite
exactly when every a_i >= 0 (its roots are real); descartes_positivity
applies that sign rule, whose coefficients lose their relative accuracy as
the dimension grows.

Every Levi-Civita contraction goes through epsilon_contract, signed by the
package's one permutation parity (clifford.index_mask): the 720-term D3
sum (epsilon_sum_D3, checked against 48 Pf by epsilon_D3), the linear and
quadratic duals, and the O(7) pseudo-vector.  The duals tie 2 r^2 - T4 to
quadratic functions of the dual, which gives z directly from the
coordinates (z_from_coords).

At m = 3, grouping the normal-form eigenvalues (1 + sum_k s_k mu_k) / 2^m
by s = sign(Pf G) s_1 s_2 s_3 yields the paper's two quartets, monic in
z = 2^m lambda:

    Pbar_s(z) = z^4 - 4 z^3 + 2 (3 - r) z^2
                + (4 (r - 1) - s D3 / 6) z
                + (2 - (r + 1)^2 + T4 + s D3 / 6),      s = +-1.

These coefficients were fixed against the numeric oracle (the widely
circulated 64/3 and 256/3 prefactors on D3 overstate the cubic term by a
factor of 512, and the linear term carries 4(r-1), not -(r-1));
factorized_charpoly multiplies them out.

fig1's rule max((r + 1)^2 - 2, 0) <= T4 <= 2 r^2, 0 <= r <= 1 is
lambda_min >= 0 (mu_1 + mu_2 <= 1) with T4's bound; rT4_domain decides one
point by it.  Grade-2 states at m = 2, r = mu_1^2 + mu_2^2 and
T4 = 2 (mu_1^4 + mu_2^4), fill only its part T4 >= r^2: the wedge
|r - 1/2| <= z <= 1/2 in z = 1/2 - sqrt(2 r^2 - T4), whose z >= 1/2 - r is
T4 >= r^2, so the rule admits (0.3, 0.05) and the wedge refuses it.  The slice
(G_12, G_34, G_23) = (x, y, z) is the intersection of the elliptic tunnels
alpha_pm = sqrt((x +- y)^2 + z^2) <= 1 (tunnel_membership, tunnel_spectrum).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import DEFAULT_TOL
from .clifford import cached_basis, index_mask
from .coords import AntisymTensor, antisym, grade_entries
from .domains import DomainVerdict
from .errors import (
    ComplexRoots,
    DimensionMismatch,
    GradeMismatch,
    InvariantMismatch,
    KindMismatch,
    ModeMismatch,
    NegativeDiscriminant,
    UnknownName,
    UnsupportedM,
)
from .figures import _RT4_CONSTRAINTS, _rT4_family, _tunnel_family
from .invariants import InvariantSet, frobenius_r, trace_T4
from .linalg import as_matrix, exp_minus_i_hermitian, require_hermitian, wire_field
from .spectra import Spectrum, pfaffian, spectrum_from_values
from .symmetry import check_orthogonal


def char_poly(a) -> np.ndarray:
    """Coefficients of det(A - lambda I), ascending powers of lambda.

    Faddeev-LeVerrier recursion on the hermitian part of A, whose
    coefficients are real up to rounding.
    """
    a = require_hermitian(as_matrix(a))
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    m = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        am = a @ m
        c = -np.trace(am) / k
        coeffs[n - k] = c
        m = am + c * np.eye(n, dtype=complex)
    # Faddeev-LeVerrier yields det(lambda I - A); det(A - lambda I) flips by (-1)^n.
    if n % 2 == 1:
        coeffs = -coeffs
    return coeffs.real.copy()


def spin_lift(alpha: AntisymTensor) -> np.ndarray:
    """U = exp(-(i/2) sum_{i<j} alpha_{ij} E_{ij}), the unitary of the rotation alpha generates.

    E_{ij} = i Gamma_i Gamma_j; the repeated-index sum over both orders,
    -(i/4) sum_{i,j}, doubles each stored i < j term.
    """
    m = wire_field(alpha, AntisymTensor, "alpha").of_grade(2).m
    if alpha.side != 2 * m:
        raise ModeMismatch("spin_lift rotates the 2m standard generators")
    coeffs = grade_entries(2, alpha.side, alpha.values)  # {mask: alpha_ij}
    return exp_minus_i_hermitian(0.5 * cached_basis(m, "standard").expand(coeffs))


def conjugate_state(rho, u) -> np.ndarray:
    """U^dag rho U; the spectrum is preserved by similarity."""
    rho = as_matrix(rho)
    u = check_orthogonal(as_matrix(u), rho.shape[0])
    return u.conj().T @ rho @ u


def discriminant(r: float, t4: float) -> float:
    """2 r^2 - T4, clamped at 0; NegativeDiscriminant if it is below -1e-12."""
    disc = 2.0 * r * r - t4
    if disc < -1e-12:
        raise NegativeDiscriminant(f"2 r^2 - T4 = {disc} < 0")
    return max(disc, 0.0)


def perm_sign(perm) -> int:
    """Parity of a permutation of 0..n-1 (+1 even, -1 odd)."""
    return index_mask([i + 1 for i in perm], len(perm))[1]


@lru_cache(maxsize=None)
def _signed_pairings(n: int) -> tuple:
    """(parity, ((p1, p2), (p3, p4), ...)) of each permutation p of range(n), in order."""
    return tuple((perm_sign(p), tuple(zip(p[::2], p[1::2])))
                 for p in itertools.permutations(range(n)))


def epsilon_contract(mat: np.ndarray, lead: tuple, factors: int):
    """sum_p eps_{lead, p} mat[p1, p2] ... mat[p_{2f-1}, p_{2f}] over every
    order p of the 0-based indices of mat that are not in lead.

    eps_{lead, p} is the sign of (lead, sorted rest) times the parity of p; terms
    are added in itertools.permutations order, each formed left to right from its sign.
    """
    rest = [x for x in range(mat.shape[0]) if x not in lead]
    if len(rest) != 2 * factors:
        raise DimensionMismatch(f"{len(rest)} free indices cannot fill {factors} factors")
    sub = mat[np.ix_(rest, rest)].tolist()
    base = perm_sign(tuple(lead) + tuple(rest))
    total = 0.0
    for sign, pairs in _signed_pairings(len(rest)):
        term = base * sign
        for i, j in pairs:
            term = term * sub[i][j]
        total += term
    return total


def epsilon_sum_D3(g: AntisymTensor) -> float:
    """Brute-force eps contraction over all 720 index permutations (m = 3)."""
    if wire_field(g, AntisymTensor, "g").of_grade(2).side != 6:
        raise DimensionMismatch("the triple eps contraction needs 6 indices (m = 3)")
    return epsilon_contract(g.as_matrix(), (), 3)


def epsilon_D3(g: AntisymTensor) -> float:
    """The cubic invariant D3; eps-sum with the 48*Pfaffian fast path cross-checked."""
    brute = epsilon_sum_D3(g)
    fast = 48.0 * pfaffian(g.as_matrix())
    scale = max(1.0, abs(brute))
    if abs(brute - fast) > 1e-10 * scale:
        raise InvariantMismatch(f"eps-sum {brute} and 48*Pf {fast} disagree")
    return brute


def dual_tensor(g: AntisymTensor) -> AntisymTensor:
    """Dual grade-2 tensor.

    m=2:  Gd_{ij} = eps_{ijkl} G_{kl}     (linear dual)
    m=3:  Ad_{ij} = eps_{ij k1..k4} G_{k1 k2} G_{k3 k4}  (quadratic dual)

    Both sums run over all orders of the contracted indices, matching the
    repeated-index convention of the defining expressions.
    """
    if wire_field(g, AntisymTensor, "g").of_grade(2).side not in (4, 6):
        raise UnsupportedM(f"dual_tensor supports sides 4 and 6, got {g.side}")
    mat = g.as_matrix()
    vals = {}
    for i, j in itertools.combinations(range(1, g.side + 1), 2):
        total = epsilon_contract(mat, (i - 1, j - 1), g.side // 2 - 1)
        if total != 0.0:
            vals[(i, j)] = total
    return AntisymTensor(g.m, 2, g.side, vals)


def dual_identity_residual(g: AntisymTensor) -> float:
    """|2r^2 - T4 - quadratic-dual expression|; zero in exact arithmetic.

    m=2: 2r^2 - T4 = (trace(Gd G))^2 / 16
    m=3: 2r^2 - T4 = trace(Ad^T Ad) / 32
    """
    r = frobenius_r(g)
    t4 = trace_T4(g)
    lhs = 2.0 * r * r - t4
    dual = dual_tensor(g)
    if g.side == 4:
        rhs = float(np.trace(dual.as_matrix() @ g.as_matrix())) ** 2 / 16.0
    else:
        dm = dual.as_matrix()
        rhs = float(np.trace(dm.T @ dm)) / 32.0
    return abs(lhs - rhs)


def det_identity_check(g: AntisymTensor) -> tuple[float, float]:
    """(2r^2 - T4, 4 det G) for a 4x4 grade-2 tensor; equal up to rounding."""
    if wire_field(g, AntisymTensor, "g").of_grade(2).side != 4:
        raise UnsupportedM("the determinant identity is specific to side 4 (m = 2)")
    lhs = 2.0 * frobenius_r(g) ** 2 - trace_T4(g)
    rhs = 4.0 * float(np.linalg.det(g.as_matrix()))
    return lhs, rhs


def pseudo_vector_V(g: AntisymTensor) -> np.ndarray:
    """V_i = eps_{i,i1..i6} G_{i1 i2} G_{i3 i4} G_{i5 i6} over 7 indices.

    When G is supported on indices 1..6, V_7 reduces to the 6-index D3 and
    the other components vanish.
    """
    if wire_field(g, AntisymTensor, "g").of_grade(2).side != 7:
        raise DimensionMismatch("pseudo_vector_V needs a side-7 grade-2 tensor")
    mat = g.as_matrix()
    return np.array([epsilon_contract(mat, (i,), 3) for i in range(7)])


SCALE_DIMENSIONS = {
    "scalar": 1,
    "r": 2,
    "D3": 3,
    "T4": 4,
    "r^2": 4,
}


def scale_dimension(name: str) -> int:
    """Homogeneity degree of a named invariant under G -> s G."""
    try:
        return SCALE_DIMENSIONS[name]
    except KeyError:
        raise UnknownName(name) from None


def _pbar_coefficients(r: float, t4: float, d3: float, s: float) -> np.ndarray:
    """Ascending z-coefficients of Pbar_s."""
    return np.array([
        2.0 - (r + 1.0) ** 2 + t4 + s * d3 / 6.0,
        4.0 * (r - 1.0) - s * d3 / 6.0,
        2.0 * (3.0 - r),
        -4.0,
        1.0,
    ])


def quartet_eigenvalues(m: int, inv: InvariantSet) -> np.ndarray:
    """The m = 2 grade-2 spectrum (1 +- sqrt(r +- sqrt(2 r^2 - T4))) / 4 from (r, T4).

    The (r, T4) region of the domains module is read off this form; other m
    go through spectra.closed_form_spectrum, which works from the tensor itself.
    """
    if m != 2:
        raise UnsupportedM(f"the (r, T4) quartet closed form is for m = 2, got m = {m}")
    r = inv.r
    root = math.sqrt(discriminant(r, inv.T4))
    out = []
    for s_out in (1.0, -1.0):
        for s_in in (1.0, -1.0):
            arg = r + s_in * root
            if arg < -1e-12:
                raise ComplexRoots(f"r - sqrt(2r^2-T4) = {arg} is negative")
            out.append((1.0 + s_out * math.sqrt(max(arg, 0.0))) / 4.0)
    return np.sort(np.array(out))


def tunnel_spectrum(x: float, y: float, z: float) -> Spectrum:
    """m = 2 family G_12 = x, G_34 = y, G_23 = z: quartet (1 +- alpha_pm)/4."""
    ap = math.hypot(x + y, z)
    am = math.hypot(x - y, z)
    vals = np.array([(1 + ap) / 4, (1 - ap) / 4, (1 + am) / 4, (1 - am) / 4])
    return spectrum_from_values(2, vals)


def _polypow(poly: np.ndarray, n: int) -> np.ndarray:
    out = np.array([1.0])
    base = np.asarray(poly, dtype=float)
    while n > 0:
        if n & 1:
            out = np.convolve(out, base)
        base = np.convolve(base, base)
        n >>= 1
    return out


def factorized_charpoly(m: int, config_kind: str, inv: InvariantSet) -> np.ndarray:
    """Monic coefficients (ascending in lambda) of det(rho - lambda I) predicted
    by the factorized closed forms.

    vector:      (lambda^2 - lambda/2^{m-1} + (1-r)/2^{2m})^{2^{m-1}}
    two_tensor:  product of the Pbar quartets at z = 2^m lambda, each raised
                 to 2^{m-3} (a single quartet with D3 = 0 at m = 2).
    """
    if config_kind == "vector":
        base = np.array([(1.0 - inv.r) / 4 ** m, -1.0 / 2 ** (m - 1), 1.0])
        return _polypow(base, 2 ** (m - 1))
    if config_kind == "two_tensor":
        if m < 2:
            raise KindMismatch("two_tensor needs m >= 2")
        d3 = inv.D3 if inv.D3 is not None else 0.0
        if m != 3 and d3 != 0.0:
            raise KindMismatch(f"a cubic invariant only exists at m = 3, got D3 = {d3}")
        scale = np.array([(2.0 ** m) ** k for k in range(5)])
        if m == 2:
            lam_poly = _pbar_coefficients(inv.r, inv.T4, 0.0, 1.0) * scale
            out = lam_poly
        else:
            plus = _pbar_coefficients(inv.r, inv.T4, d3, 1.0) * scale
            minus = _pbar_coefficients(inv.r, inv.T4, d3, -1.0) * scale
            out = _polypow(np.convolve(plus, minus), 2 ** (m - 3))
        return out / out[-1]
    raise KindMismatch(f"unknown configuration kind {config_kind!r}")


def rT4_domain(r: float, t4: float, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """The (r, T4) region for grade-2 configurations at m = 2."""
    inv = InvariantSet(r=max(r, 0.0), T4=max(t4, 0.0))
    failed, boundary = _rT4_family(np.array([r], dtype=float), np.array([t4], dtype=float), tol)
    violated = next((name for name, bad in zip(_RT4_CONSTRAINTS, failed[:, 0]) if bad), None)
    return DomainVerdict(admissible=violated is None, boundary=bool(boundary[0]),
                         violated=violated, invariants_used=inv, tol=tol)


def z_variable(r: float, t4: float) -> float:
    """z = 1/2 - sqrt(2 r^2 - T4); NegativeDiscriminant if 2 r^2 - T4 is genuinely negative."""
    return 0.5 - math.sqrt(discriminant(r, t4))


def z_from_coords(g2: AntisymTensor) -> float:
    """z computed directly from the tensor components (not through r, T4).

    side 4: z = 1/2 - 2 |G_12 G_34 - G_13 G_24 + G_14 G_23|  (the Pfaffian)
    side 6: z = 1/2 - sqrt(sum_{i<j} Ad_ij^2) / 4 via the quadratic dual.
    """
    if wire_field(g2, AntisymTensor, "g2").of_grade(2).side == 4:
        return 0.5 - 2.0 * abs(pfaffian(g2.as_matrix()))
    if g2.side == 6:
        dual = dual_tensor(g2)
        return 0.5 - math.sqrt(dual.norm_sq()) / 4.0
    raise UnsupportedM(f"z_from_coords supports sides 4 and 6, got {g2.side}")


def tunnel_membership(x: float, y: float, z: float, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Intersection of the elliptic tunnels alpha_pm <= 1, with r and T4 of G(x, y, z)."""
    ap, am = (float(v[0]) for v in _tunnel_family(*np.array([[x], [y], [z]], dtype=float)))
    g = antisym(2, 2, {(1, 2): x, (3, 4): y, (2, 3): z})
    inv = InvariantSet(r=frobenius_r(g), T4=trace_T4(g))
    violated = None
    if ap > 1.0 + tol:
        violated = "tunnel_plus"
    elif am > 1.0 + tol:
        violated = "tunnel_minus"
    admissible = violated is None
    boundary = admissible and (abs(ap - 1.0) <= tol or abs(am - 1.0) <= tol)
    return DomainVerdict(admissible=admissible, boundary=boundary, violated=violated,
                         invariants_used=inv, tol=tol)


def descartes_positivity(poly, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Sign-rule verdict for a real-rooted characteristic polynomial.

    After making the polynomial monic, a_i = (-1)^{n-i} c_i are the
    elementary symmetric functions of the roots; the state is positive
    semidefinite iff all a_i >= 0 (> 0 strictly for definiteness).  The
    test runs in the rescaled variable z = n * lambda, which places the
    roots of an n-dimensional density matrix at order one, so the -tol
    relaxation admits boundary rank-deficient states while anything with
    an eigenvalue meaningfully below zero still fails.  (On the raw
    lambda coefficients an absolute tolerance would be useless: the
    determinant compresses a clearly negative eigenvalue by the product
    of the remaining ones, each about 1/n.)
    """
    c = np.asarray(poly, dtype=float)
    if c.ndim != 1 or c.size < 2 or c[-1] == 0.0:
        raise GradeMismatch("expected polynomial coefficients with nonzero leading term")
    q = c / c[-1]
    n = q.size - 1
    a = np.array([(-1.0) ** (n - i) * q[i] * float(n) ** (n - i) for i in range(n + 1)])
    violated = None
    for i in range(n + 1):
        if a[i] < -tol:
            violated = f"coeff_{i}"
            break
    admissible = violated is None
    boundary = admissible and bool(np.min(a) <= tol)
    return DomainVerdict(admissible=admissible, boundary=boundary, violated=violated,
                         invariants_used=None, tol=tol)
