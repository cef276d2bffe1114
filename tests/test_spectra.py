import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from genbloch import tunnel_amplitudes
from genbloch.clifford import basis_element, full_basis
from genbloch.coords import (
    AntisymTensor,
    antisym,
    decode,
    encode,
    state_coords,
    tensor_config,
    vector,
)
from genbloch.errors import GradeMismatch
from genbloch.invariants import InvariantSet, pfaffian, two_tensor_invariants
from genbloch.linalg import hermitian_eigenvalues
from genbloch.spectra import (
    CLUSTER_TOL,
    bordered_parts,
    closed_form_spectrum,
    normal_form,
    numeric_spectrum,
    sign_sums,
    spectrum_from_values,
)
from genbloch.symmetry import orthogonal_from_generator

from claims import (
    ComplexRoots,
    UnsupportedM,
    _pbar_coefficients,
    char_poly,
    epsilon_D3,
    factorized_charpoly,
    quartet_eigenvalues,
    tunnel_spectrum,
)
from conftest import random_tensor


def normal_form_eigenvalues(g):
    """Sorted (1 + sum_k s_k mu_k) / 2^m of rho = 2^{-m}(I + G o E^{(2)}), m = side // 2."""
    mode = "standard" if g.side == 2 * g.m else "extended"
    return sign_sums(1.0, *normal_form(g.m, state_coords(g.m, mode, grades={2: g}).grades))


def rank2_tensor(rng, m, mu1, mu2):
    """Grade-2 tensor with two active canonical planes, in a random frame."""
    g = antisym(m, 2, {(1, 2): mu1, (3, 4): mu2})
    el = orthogonal_from_generator(random_tensor(rng, m, 2))
    return AntisymTensor.from_matrix(m, el @ g.as_matrix() @ el.T)


def test_vector_spectrum_m1_pure():
    s = closed_form_spectrum(state_coords(1, grades={1: vector(1, [1, 0])}))
    assert np.allclose(s.eigenvalues, [0.0, 1.0], atol=1e-14)
    oracle = hermitian_eigenvalues(tensor_config(1, 1, vector(1, [1, 0])))
    assert np.max(np.abs(s.eigenvalues - oracle)) < 1e-12


def test_vector_spectrum_m3_zero():
    s = closed_form_spectrum(state_coords(3, grades={1: vector(3, [0] * 6)}))
    assert np.allclose(s.eigenvalues, [1 / 8] * 8, atol=1e-15)


def test_vector_spectrum_with_pseudoscalar():
    coords = state_coords(2, grades={1: vector(2, [0.6, 0, 0, 0]), 4: {(1, 2, 3, 4): 0.8}})
    s = closed_form_spectrum(coords)
    assert np.allclose(s.eigenvalues, [0, 0, 0.5, 0.5], atol=1e-14)
    oracle = hermitian_eigenvalues(encode(coords))
    assert np.max(np.abs(s.eigenvalues - oracle)) < 1e-12


def test_vector_closed_vs_oracle(rng):
    for m in (1, 2, 3, 4):
        for _ in range(20):
            g = random_tensor(rng, m, 1)
            s = closed_form_spectrum(state_coords(m, grades={1: g}))
            oracle = hermitian_eigenvalues(tensor_config(m, 1, g))
            assert np.max(np.abs(s.eigenvalues - oracle)) < 1e-9
            assert [mult for _, mult in s.multiplets] == [2 ** (m - 1)] * 2


def test_two_tensor_m2_frozen():
    g = antisym(2, 2, {(1, 2): 0.6, (3, 4): 0.3})
    s = closed_form_spectrum(state_coords(2, grades={2: g}))
    assert np.allclose(s.eigenvalues, [0.025, 0.175, 0.325, 0.475], atol=1e-15)
    oracle = hermitian_eigenvalues(tensor_config(2, 2, g))
    assert np.max(np.abs(s.eigenvalues - oracle)) < 1e-12


def test_two_tensor_m2_zero():
    s = closed_form_spectrum(state_coords(2, grades={2: antisym(2, 2, {})}))
    assert np.allclose(s.eigenvalues, [0.25] * 4, atol=1e-15)


def test_two_tensor_m2_random_vs_oracle(rng):
    for _ in range(50):
        g = random_tensor(rng, 2, 2)
        s = closed_form_spectrum(state_coords(2, grades={2: g}))
        oracle = hermitian_eigenvalues(tensor_config(2, 2, g))
        assert np.max(np.abs(s.eigenvalues - oracle)) < 1e-9


def test_two_tensor_m3_canonical_block():
    a = 1 / math.sqrt(3)
    g = antisym(3, 2, {(1, 2): a, (3, 4): a, (5, 6): a})
    inv = two_tensor_invariants(g)
    assert abs(inv.r - 1.0) < 1e-12
    assert abs(inv.T4 - 2.0 / 3.0) < 1e-12
    assert abs(inv.D3 - 16 / math.sqrt(3)) < 1e-12
    s = closed_form_spectrum(state_coords(3, grades={2: g}))
    oracle = hermitian_eigenvalues(tensor_config(3, 2, g))
    assert np.max(np.abs(s.eigenvalues - oracle)) < 1e-9
    # equal amplitudes give triple roots inside each quartet: pattern 1,3,3,1
    assert [mult for _, mult in s.multiplets] == [1, 3, 3, 1]


def test_two_tensor_m3_generic_D3_distinct_quartets():
    g = antisym(3, 2, {(1, 2): 0.61, (3, 4): 0.37, (5, 6): 0.19})
    assert abs(epsilon_D3(g)) > 1e-3
    s = closed_form_spectrum(state_coords(3, grades={2: g}))
    oracle = hermitian_eigenvalues(tensor_config(3, 2, g))
    assert np.max(np.abs(s.eigenvalues - oracle)) < 1e-9
    # D3 != 0 with unequal amplitudes: the two quartets differ, 8 distinct values
    assert len(s.multiplets) == 8


def test_two_tensor_m3_random_vs_oracle(rng):
    for _ in range(50):
        g = random_tensor(rng, 3, 2)
        s = closed_form_spectrum(state_coords(3, grades={2: g}))
        oracle = hermitian_eigenvalues(tensor_config(3, 2, g))
        assert np.max(np.abs(s.eigenvalues - oracle)) < 1e-9


def test_two_tensor_m3_D3_zero_reduces_to_quartet_pattern(rng):
    a, b = 0.7, 0.35
    g = antisym(3, 2, {(1, 2): a, (3, 4): b})
    assert abs(epsilon_D3(g)) < 1e-14
    s = closed_form_spectrum(state_coords(3, grades={2: g}))
    r = a * a + b * b
    root = math.sqrt(2 * r * r - (2 * a ** 4 + 2 * b ** 4))
    expected = sorted(
        (1 + so * math.sqrt(r + si * root)) / 8 for so in (1, -1) for si in (1, -1)
    )
    # two identical quartets: each closed-form value appears twice
    assert np.allclose(s.eigenvalues[::2], expected, atol=1e-12)
    assert np.allclose(s.eigenvalues[1::2], expected, atol=1e-12)
    pattern = s.multiplets
    assert [mult for _, mult in pattern] == [2, 2, 2, 2]


def _pbar(inv, s, z):
    """The paper's quartet polynomial Pbar_s at z = 2^m lambda."""
    return polyval(z, _pbar_coefficients(inv.r, inv.T4, inv.D3, s))


def test_quartic_factor_roots_match_oracle(rng):
    # Pbar_s vanishes at z = 1 + sum_k s_k mu_k exactly when s = sign(Pf) s1 s2 s3,
    # and those z / 8 are the normal-form and the oracle eigenvalues
    a = 1 / math.sqrt(3)
    cases = [((a, a, a), np.eye(6))]
    for i in range(50):
        el = orthogonal_from_generator(random_tensor(rng, 3, 2))
        if i % 2:
            el = el @ np.diag([-1.0, 1, 1, 1, 1, 1])  # det -1 flips the Pfaffian
        cases.append((tuple(rng.uniform(0, 1, size=3)), el))
    for mu, el in cases:
        canon = antisym(3, 2, {(1, 2): mu[0], (3, 4): mu[1], (5, 6): mu[2]}).as_matrix()
        g = AntisymTensor.from_matrix(3, el @ canon @ el.T)
        inv = two_tensor_invariants(g)
        pf_sign = math.copysign(1.0, pfaffian(g.as_matrix()))
        zs = []
        for signs in itertools.product((1, -1), repeat=3):
            z = 1 + float(np.dot(signs, mu))
            assert abs(_pbar(inv, pf_sign * np.prod(signs), z)) < 1e-10
            zs.append(z)
        oracle = hermitian_eigenvalues(tensor_config(3, 2, g))
        assert np.max(np.abs(np.sort(zs) / 8 - oracle)) < 1e-9
        assert np.max(np.abs(normal_form_eigenvalues(g) - oracle)) < 1e-9


def test_quartet_sign_structure(rng):
    # a reflection negates D3 and keeps the spectrum, so the roots of Pbar_+
    # and Pbar_- trade places
    flip = np.diag([-1.0, 1, 1, 1, 1, 1])
    for _ in range(10):
        g = random_tensor(rng, 3, 2)
        mirrored = AntisymTensor.from_matrix(3, flip @ g.as_matrix() @ flip)
        inv, inv_m = two_tensor_invariants(g), two_tensor_invariants(mirrored)
        assert abs(inv_m.D3 + inv.D3) < 1e-10 and abs(inv.D3) > 1e-6
        z = 8 * normal_form_eigenvalues(g)
        assert np.max(np.abs(8 * normal_form_eigenvalues(mirrored) - z)) < 1e-12
        plus = np.abs(_pbar(inv, 1, z)) < 1e-10
        assert plus.sum() == 4
        assert np.all(np.abs(_pbar(inv, -1, z[~plus])) < 1e-10)
        assert np.array_equal(np.abs(_pbar(inv_m, -1, z)) < 1e-10, plus)
        assert np.array_equal(np.abs(_pbar(inv_m, 1, z)) < 1e-10, ~plus)


def test_quartet_complex_roots_signal():
    with pytest.raises(ComplexRoots):
        quartet_eigenvalues(2, InvariantSet(r=0.1, T4=5.0))
    # T4 < r^2: the discriminant is real, and r - sqrt(2 r^2 - T4) is negative
    with pytest.raises(ComplexRoots) as info:
        quartet_eigenvalues(2, InvariantSet(r=0.3, T4=0.05))
    assert type(info.value) is ComplexRoots


def test_quartet_eigenvalues_m2_only():
    with pytest.raises(UnsupportedM):
        quartet_eigenvalues(3, InvariantSet(r=0.5, T4=0.1, D3=0.2))


def test_two_tensor_m4_rank2_class(rng):
    for _ in range(10):
        mu1, mu2 = rng.uniform(-1, 1, size=2)
        g = rank2_tensor(rng, 4, mu1, mu2)
        s = closed_form_spectrum(state_coords(4, grades={2: g}))
        oracle = hermitian_eigenvalues(tensor_config(4, 2, g))
        assert np.max(np.abs(s.eigenvalues - oracle)) < 1e-9


def test_two_tensor_m4_m5_generic_vs_oracle(rng):
    # three or more active planes, where the quartet factorization stops at m = 3
    tensors = [antisym(4, 2, {(1, 2): 0.9, (3, 4): 0.5, (5, 6): 0.2})]
    tensors += [random_tensor(rng, m, 2) for m in (4, 4, 5, 5)]
    for g in tensors:
        s = closed_form_spectrum(state_coords(g.m, grades={2: g}))
        oracle = hermitian_eigenvalues(tensor_config(g.m, 2, g))
        assert np.max(np.abs(s.eigenvalues - oracle)) < 1e-9


@st.composite
def grade2_tensors(draw):
    """Canonical forms with repeated and zero amplitudes, optionally rotated,
    at side 2m (m = 1..5) and side 2m + 1 (m = 2..4)."""
    m, side = draw(st.sampled_from([(m, 2 * m) for m in range(1, 6)]
                                   + [(m, 2 * m + 1) for m in range(2, 5)]))
    amplitude = st.sampled_from([0.0, 0.25, -0.25, 0.5, 1.0]) | st.floats(-1.0, 1.0)
    mu = draw(st.lists(amplitude, min_size=m, max_size=m))
    canon = antisym(m, 2, {(2 * k + 1, 2 * k + 2): v for k, v in enumerate(mu)}, side=side)
    seed = draw(st.none() | st.integers(0, 2 ** 32 - 1))
    if seed is None:
        return canon
    el = orthogonal_from_generator(random_tensor(np.random.default_rng(seed), m, 2, side=side))
    return AntisymTensor.from_matrix(m, el @ canon.as_matrix() @ el.T, side=side)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(grade2_tensors())
def test_normal_form_matches_oracle(g):
    mode = "standard" if g.side == 2 * g.m else "extended"
    oracle = hermitian_eigenvalues(tensor_config(g.m, 2, g, mode=mode))
    assert np.max(np.abs(normal_form_eigenvalues(g) - oracle)) < 1e-9


# the grade-2 masks at m = 2 in wire order: (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)
_TUNNEL_MASKS = [(1 << i) | (1 << j) for i, j in itertools.combinations(range(4), 2)]


@st.composite
def tunnel_entries(draw):
    """Six grade-2 entries at m = 2 at a scale from 1e-200 to 1e200: free, or
    with a_+ = a_- (G_34 = G_24 = G_23 = 0), or with a_+ = 0."""
    unit = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-1.0, 1.0)
    g = draw(st.lists(unit, min_size=6, max_size=6))
    shape = draw(st.sampled_from(["free", "equal", "plus-zero"]))
    if shape == "equal":
        g[3:] = [0.0, 0.0, 0.0]
    elif shape == "plus-zero":
        g[3:] = [-g[2], g[1], -g[0]]
    scale = draw(st.sampled_from([1.0, 1e-200, 1e200, 2.0 ** -60, 3.0]))
    return [x * scale for x in g]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tunnel_entries())
@example([0.0] * 6)
@example([1.3e200, 0.0, 0.0, 0.0, 0.0, -1.3e200])
@example([1e-200, 0.0, 0.0, 0.0, 0.0, 0.0])
@example([0.6, 0.0, 0.0, 0.0, 0.0, 0.3])
def test_tunnel_closed_form_matches_svd(g):
    # at m = 2 a grade-2 tensor's normal form is the closed form of the package
    # (genbloch.tunnel_amplitudes), the same bits from floats and arrays, and
    # within 16 eps |G| of LAPACK's singular values, |G|^2 the sum of the G_ij^2
    grades = {2: dict(zip(_TUNNEL_MASKS, g))}
    mu, pf = normal_form(2, grades)
    closed = tunnel_amplitudes(g)
    assert mu.tolist() == [*closed, 0.0] and pf == 0.0
    assert closed[0] >= closed[1] >= 0.0
    # a stack of the state and its negative gives each its own bits
    stack, _ = normal_form(2, {2: {mask: np.array([x, -x]) for mask, x in grades[2].items()}})
    assert stack.tolist() == [mu.tolist()] * 2
    svd = np.linalg.svd(bordered_parts(2, grades), compute_uv=False)[::2]
    bound = 16 * np.finfo(float).eps * math.hypot(*g)
    assert np.max(np.abs(mu - svd)) <= bound, (mu, svd)


def _vector_configs(rng, m):
    """A vector, a vector plus pseudoscalar and an extended-mode vector at m."""
    side = 2 * m
    v = rng.uniform(-0.5, 0.5, size=side)
    p = float(rng.uniform(-0.5, 0.5))
    yield state_coords(m, grades={1: vector(m, v)})
    yield state_coords(m, grades={1: vector(m, v), side: {tuple(range(1, side + 1)): p}})
    yield state_coords(m, mode="extended", grades={1: vector(m, [*v, p], side=side + 1)})


@pytest.mark.parametrize("m", range(1, 7))
def test_vector_closed_form_is_the_doublet(rng, m):
    # the sign sum over mu = (|v|, 0, ..., 0) is, bit for bit, the doublet
    # formula (1 -+ |v|) / 2^m written out here, |v|^2 added over the nonzero
    # grade-1 entries in index order, then the (2m+1)-th
    for _ in range(20):
        for coords in _vector_configs(rng, m):
            bordered = bordered_parts(coords.m, coords.grades)
            assert bordered.shape == (2 * m + 2, 2 * m + 2) and not bordered[1:, 1:].any()
            v = bordered[0, 1:]
            norm_sq = 0.0
            for x in v[:-1]:
                if x != 0.0:
                    norm_sq = norm_sq + float(x) * float(x)
            norm = math.sqrt(norm_sq + float(v[-1]) ** 2)
            lo = (1.0 - norm) / 2 ** m
            hi = (1.0 + norm) / 2 ** m
            doublet = np.array([lo] * 2 ** (m - 1) + [hi] * 2 ** (m - 1))
            assert np.array_equal(closed_form_spectrum(coords).eigenvalues, doublet)


@pytest.mark.parametrize("m", range(1, 7))
def test_standard_phase_map(m):
    # standard grades 2m and 2m - 1 are extended grades 1 and 2:
    # E_{1..2m} = (-1)^m E_{2m+1} and E_{1..2m minus a} = (-1)^{a+1} E_{a,2m+1}
    n = 2 * m + 1
    assert np.array_equal(basis_element(m, tuple(range(1, n))),
                          (-1) ** m * basis_element(m, (n,), "extended"))
    for a in range(1, n):
        assert np.array_equal(basis_element(m, tuple(i for i in range(1, n) if i != a)),
                              (-1) ** (a + 1) * basis_element(m, (a, n), "extended"))
    # the standard table is the first 4^m rows of the extended one, so one
    # table expands a state of either mode
    standard, extended = full_basis(m), full_basis(m, "extended")
    for name in ("x", "z", "p", "grade"):
        assert np.array_equal(getattr(standard, name), getattr(extended, name)[:4 ** m])


@lru_cache(maxsize=None)
def _phase_map(m, mode):
    """{extended key of grade 1 or 2: (key in mode, sign)}: E^ext_K = sign E_J, from the basis."""
    out = {}
    for k in (1, 2):
        for key in itertools.combinations(range(1, 2 * m + 2), k):
            coords = decode((np.eye(2 ** m) + basis_element(m, key, "extended")) / 2 ** m, mode)
            (k,) = coords.grades
            ((target, sign),) = coords.grade(k).items()
            out[key] = target, sign
    return out


@st.composite
def bordered_matrices(draw, m):
    """(M, sign Pf M) with M = O canon O^T, O in O(2m+2) of either determinant
    and canon's amplitudes with repeated and zero values."""
    amplitude = st.sampled_from([0.0, 0.25, -0.25, 0.5, 1.0]) | st.floats(-1.0, 1.0)
    mu = draw(st.lists(amplitude, min_size=m + 1, max_size=m + 1))
    n = 2 * m + 2
    canon = np.zeros((n, n))
    for k, x in enumerate(mu):
        canon[2 * k, 2 * k + 1], canon[2 * k + 1, 2 * k] = x, -x
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    o, _ = np.linalg.qr(rng.normal(size=(n, n)))
    det = draw(st.sampled_from([1.0, -1.0]))
    o[:, 0] *= det * np.sign(np.linalg.det(o))
    # Pf(O A O^T) = det(O) Pf(A), and Pf(canon) = prod_k mu_k
    return o @ canon @ o.T, det * np.prod(np.sign(mu))


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("m", range(1, 7))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bordered_closed_form_matches_oracle(m, mode, data):
    # M read back into coords through the phase map: its closed form is the
    # LAPACK spectrum, and the spectrum of M's own amplitudes and chirality
    bordered, pf_sign = data.draw(bordered_matrices(m))
    grades = {}
    for key, (target, sign) in _phase_map(m, mode).items():
        x = bordered[0, key[0]] if len(key) == 1 else bordered[key[0], key[1]]
        entries = grades.setdefault(len(target), {})
        entries[target] = entries.get(target, 0.0) + sign * x
    coords = state_coords(m, mode, grades=grades)
    closed = closed_form_spectrum(coords).eigenvalues
    tol = 1e-12 * max(1.0, np.linalg.norm(bordered, 2))
    assert np.max(np.abs(closed - hermitian_eigenvalues(encode(coords)))) <= tol
    mu = np.linalg.svd(bordered, compute_uv=False)[::2]
    chirality = (-1) ** m * (pf_sign if pf_sign else 1.0)
    own = [(1 + np.dot(s, mu)) / 2 ** m
           for s in itertools.product((1, -1), repeat=m + 1) if np.prod(s) == chirality]
    assert np.max(np.abs(closed - np.sort(own))) <= tol


@pytest.mark.parametrize("scalar", [0.5, 1 + 5e-9], ids=["half", "near-one"])
@pytest.mark.parametrize("m, grades", [
    (2, {1: {(1,): 0.3, (3,): -0.4}, 4: {(1, 2, 3, 4): 0.2}}),
    (3, {2: {(1, 2): 0.4, (3, 4): -0.2, (1, 5): 0.1, (2, 6): 0.3}}),
    # at m = 1 grade 2 is 2m, which joins grade 1 in M's border row
    (1, {1: {(2,): 0.3}, 2: {(1, 2): 0.4}}),
    # grades 1, 2, 2m - 1 and 2m together
    (3, {1: {(1,): 0.1, (4,): -0.05}, 2: {(1, 2): 0.2, (3, 6): -0.1},
         5: {(1, 2, 3, 4, 6): 0.15}, 6: {(1, 2, 3, 4, 5, 6): 0.05}}),
], ids=["vector", "grade2", "m1-grades-1-2", "grades-1-2-5-6"])
def test_closed_form_at_every_scalar(scalar, m, grades):
    # the scalar enters the formula, so the closed form is the spectrum of
    # the encoded matrix whatever its trace
    coords = state_coords(m, scalar=scalar, grades=grades)
    oracle = hermitian_eigenvalues(encode(coords))
    assert np.max(np.abs(closed_form_spectrum(coords).eigenvalues - oracle)) < 1e-12


def test_two_tensor_grade_checks():
    # a tensor of the wrong grade is refused where the state is built,
    # before any closed form is asked for
    with pytest.raises(GradeMismatch):
        state_coords(2, grades={2: antisym(2, 1, {(1,): 1.0})})
    with pytest.raises(GradeMismatch):
        state_coords(2, grades={1: antisym(2, 2, {(1, 2): 1.0})})


def test_factorized_charpoly_vector_frozen():
    p = factorized_charpoly(2, "vector", InvariantSet(r=1.0, T4=0.0))
    assert np.allclose(p, [0.0, 0.0, 0.25, -1.0, 1.0], atol=1e-15)


def test_factorized_charpoly_vector_random(rng):
    for m in (2, 3):
        g = random_tensor(rng, m, 1)
        inv = InvariantSet(r=g.norm_sq(), T4=0.0)
        pred = factorized_charpoly(m, "vector", inv)
        direct = char_poly(tensor_config(m, 1, g))
        assert np.max(np.abs(pred - direct)) < 1e-9


def test_factorized_charpoly_two_tensor_m2(rng):
    g = random_tensor(rng, 2, 2)
    pred = factorized_charpoly(2, "two_tensor", two_tensor_invariants(g))
    direct = char_poly(tensor_config(2, 2, g))
    assert np.max(np.abs(pred - direct)) < 1e-10


def test_factorized_charpoly_two_tensor_m3(rng):
    g = random_tensor(rng, 3, 2)
    pred = factorized_charpoly(3, "two_tensor", two_tensor_invariants(g))
    direct = char_poly(tensor_config(3, 2, g))
    scale = np.maximum(1.0, np.abs(direct))
    assert np.max(np.abs(pred - direct) / scale) < 1e-10


def test_factorized_charpoly_two_tensor_m4_single_plane():
    g = antisym(4, 2, {(1, 2): 0.5})
    inv = two_tensor_invariants(g)
    pred = factorized_charpoly(4, "two_tensor", inv)
    direct = char_poly(tensor_config(4, 2, g))
    scale = np.maximum(1.0, np.abs(direct))
    assert np.max(np.abs(pred - direct) / scale) < 1e-8


def test_degeneracy_pattern_vector_m3():
    s = closed_form_spectrum(state_coords(3, grades={1: vector(3, [0.5, 0, 0, 0, 0, 0])}))
    assert [mult for _, mult in s.multiplets] == [4, 4]


def test_degeneracy_pattern_m3_two_tensor_regimes(rng):
    # three generic planes: 8 distinct; two planes (D3=0): four pairs;
    # one plane: two 4-clusters; maximally mixed: a single cluster
    g3 = antisym(3, 2, {(1, 2): 0.61, (3, 4): 0.37, (5, 6): 0.19})
    assert [m_ for _, m_ in numeric_spectrum(tensor_config(3, 2, g3)).multiplets] == [1] * 8
    g2 = antisym(3, 2, {(1, 2): 0.61, (3, 4): 0.37})
    assert [m_ for _, m_ in numeric_spectrum(tensor_config(3, 2, g2)).multiplets] == [2] * 4
    g1 = antisym(3, 2, {(1, 2): 0.61})
    assert [m_ for _, m_ in numeric_spectrum(tensor_config(3, 2, g1)).multiplets] == [4, 4]
    mixed = numeric_spectrum(np.eye(8) / 8)
    assert [m_ for _, m_ in mixed.multiplets] == [8]


def test_tunnel_spectrum_frozen():
    assert np.allclose(tunnel_spectrum(0, 0, 0).eigenvalues, [0.25] * 4, atol=1e-15)
    s = tunnel_spectrum(1, 0, 0)
    assert np.allclose(s.eigenvalues, [0, 0, 0.5, 0.5], atol=1e-14)
    oracle = hermitian_eigenvalues(tensor_config(2, 2, antisym(2, 2, {(1, 2): 1.0})))
    assert np.max(np.abs(s.eigenvalues - oracle)) < 1e-12
    s2 = tunnel_spectrum(0.6, 0.3, 0.0)
    assert np.allclose(s2.eigenvalues, [0.025, 0.175, 0.325, 0.475], atol=1e-14)


def test_tunnel_agrees_with_two_tensor(rng):
    for _ in range(25):
        x, y, z = rng.uniform(-1, 1, size=3)
        g = antisym(2, 2, {(1, 2): x, (3, 4): y, (2, 3): z})
        a = tunnel_spectrum(x, y, z).eigenvalues
        b = closed_form_spectrum(state_coords(2, grades={2: g})).eigenvalues
        assert np.max(np.abs(a - b)) < 1e-12


def test_numeric_spectrum_examples():
    s = numeric_spectrum(np.eye(8) / 8)
    assert np.allclose(s.eigenvalues, [1 / 8] * 8, atol=1e-14)
    g = vector(2, [1, 0, 0, 0])
    s2 = numeric_spectrum(tensor_config(2, 1, g))
    assert np.allclose(s2.eigenvalues, [0, 0, 0.5, 0.5], atol=1e-12)


def test_numeric_spectrum_within_hermiticity_tolerance():
    # accepted by numeric_spectrum's own 1e-10 check, so it must not be
    # rejected by the eigensolver's tighter one
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 5e-11j
    assert np.allclose(numeric_spectrum(rho).eigenvalues, [0.25] * 4, atol=1e-10)


def test_spectrum_sums_to_one(rng):
    for m in (2, 3):
        g = random_tensor(rng, m, 2)
        s = closed_form_spectrum(state_coords(m, grades={2: g}))
        assert abs(np.sum(s.eigenvalues) - 1.0) < 1e-10


def test_vector_scale_homogeneity():
    # deviations from the mixed value scale linearly with the tensor
    g = vector(3, [0.4, 0.2, 0, 0, 0.1, 0])
    base = closed_form_spectrum(state_coords(3, grades={1: g})).eigenvalues - 1 / 8
    for s in (0.25, 0.5):
        scaled = closed_form_spectrum(state_coords(3, grades={1: g.scaled(s)})).eigenvalues
        scaled = scaled - 1 / 8
        assert np.max(np.abs(scaled - s * base)) < 1e-12


def test_grade3_configurations_empirical(rng):
    # grade-3 elements anticommute with the chirality element, so the
    # spectrum is symmetric about 1/8; generically all 8 values are distinct
    distinct_seen = False
    for _ in range(10):
        g = random_tensor(rng, 3, 3)
        vals = hermitian_eigenvalues(tensor_config(3, 3, g))
        assert np.max(np.abs(vals + vals[::-1] - 2.0 / 8.0)) < 1e-10
        if len(spectrum_from_values(3, vals).multiplets) == 8:
            distinct_seen = True
    assert distinct_seen


def test_spectrum_from_values_checks_count():
    with pytest.raises(GradeMismatch):
        spectrum_from_values(2, [0.5, 0.5])


def _gap_scan(values) -> list:
    """(mean, count) of each run of the sorted values, split where a gap
    exceeds CLUSTER_TOL, by a scan over the gaps: the reference rule."""
    vals = np.sort(np.asarray(values, dtype=float))
    clusters, start = [], 0
    for i in range(1, vals.size + 1):
        if i == vals.size or vals[i] - vals[i - 1] > CLUSTER_TOL:
            clusters.append((float(np.mean(vals[start:i])), i - start))
            start = i
    return clusters


# gaps of exactly 0, at CLUSTER_TOL, just above it, and well below and above
_GAPS = st.sampled_from([0.0, CLUSTER_TOL, math.nextafter(CLUSTER_TOL, 1.0),
                         CLUSTER_TOL * (1 + 1e-7), 1e-9, 3e-9, 1e-7, 0.05])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.just(m), st.floats(-1.0, 1.0), st.lists(_GAPS, min_size=2 ** m - 1, max_size=2 ** m - 1),
    st.permutations(range(2 ** m)))))
def test_multiplets_match_the_gap_scan(case):
    m, first, gaps, order = case
    vals = first + np.concatenate([[0.0], np.cumsum(gaps)])
    assert spectrum_from_values(m, vals[list(order)]).multiplets == _gap_scan(vals)
