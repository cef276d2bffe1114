import itertools
import math

import numpy as np
import pytest

from genbloch.cli import run
from genbloch.clifford import (
    CliffordBasis,
    basis_element,
    cached_basis,
    full_basis,
    index_mask,
    side,
    verify_algebra,
)
from genbloch.coords import AntisymTensor, antisym
from genbloch.errors import BadIndex, ResourceLimit

from conftest import SIGMA1, SIGMA2, SIGMA3, gammas


@pytest.mark.parametrize("idx", [(1.7, 2.2), (True, 2), (1.0, 2.0)],
                         ids=["float", "bool", "integral-float"])
@pytest.mark.parametrize("build", [
    lambda idx: basis_element(2, idx),
    lambda idx: cached_basis(2).element(idx),
    lambda idx: AntisymTensor(2, 2, 4, {idx: 0.5}),
    lambda idx: antisym(2, 2, {idx: 0.5}),
], ids=["basis_element", "CliffordBasis.element", "AntisymTensor", "antisym"])
def test_multi_index_entries_must_be_ints(build, idx):
    # one rule for every consumer of a multi-index: no truncation to E_12
    with pytest.raises(BadIndex):
        build(idx)


def test_m1_generators_are_sigma12():
    g = gammas(1)
    assert len(g) == 2
    assert np.array_equal(g[0], SIGMA1)
    assert np.array_equal(g[1], SIGMA2)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_anticommutation_exact(m):
    g = gammas(m)
    assert len(g) == 2 * m
    eye2 = 2.0 * np.eye(2 ** m)
    for i in range(2 * m):
        for j in range(i, 2 * m):
            anti = g[i] @ g[j] + g[j] @ g[i]
            target = eye2 if i == j else np.zeros_like(anti)
            assert np.array_equal(anti, target)


def test_m3_traceless_and_normalized():
    for g in gammas(3):
        assert g.shape == (8, 8)
        assert abs(np.trace(g)) == 0.0
        assert abs(np.trace(g @ g) - 8.0) == 0.0


def test_chirality_m1_is_sigma3():
    assert np.array_equal(basis_element(1, (3,), "extended"), SIGMA3)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_chirality_algebra(m):
    c = basis_element(m, (2 * m + 1,), "extended")
    assert np.array_equal(c, c.conj().T)
    assert np.array_equal(c @ c, np.eye(2 ** m) + 0j)
    for g in gammas(m):
        assert np.max(np.abs(c @ g + g @ c)) == 0.0


def test_basis_element_scalar():
    assert np.array_equal(basis_element(1, ()), np.eye(2) + 0j)


def test_basis_element_m1_pseudoscalar():
    # i * s1 s2 = -s3 under the hermiticity phase
    assert np.array_equal(basis_element(1, (1, 2)), -SIGMA3)


def test_basis_element_m2_grade2():
    e = basis_element(2, (1, 3))
    assert np.max(np.abs(e - e.conj().T)) == 0.0
    assert abs(np.trace(e)) == 0.0
    assert np.allclose(e @ e, np.eye(4), atol=1e-14)


def test_basis_element_bad_index():
    with pytest.raises(BadIndex):
        basis_element(2, (3, 1))
    with pytest.raises(BadIndex):
        basis_element(2, (1, 5))
    with pytest.raises(BadIndex):
        basis_element(2, (2, 2))


def test_basis_element_extended_high_grade():
    # individual extended elements exist above grade m (only the orthogonal
    # family of full_basis stops at m); all are hermitian involutions
    e = basis_element(2, (1, 2, 3), "extended")
    assert np.max(np.abs(e - e.conj().T)) == 0.0
    top = basis_element(2, (1, 2, 3, 4, 5), "extended")
    assert np.allclose(top @ top, np.eye(4), atol=1e-14)
    with pytest.raises(BadIndex):
        basis_element(2, (1, 2, 3, 4, 5), "standard")


def test_full_basis_m1_elements():
    b = full_basis(1)
    assert len(b.indices) == 4
    assert np.array_equal(b.element(()), np.eye(2) + 0j)
    assert np.array_equal(b.element((1,)), SIGMA1)
    assert np.array_equal(b.element((2,)), SIGMA2)
    assert np.array_equal(b.element((1, 2)), -SIGMA3)


def test_full_basis_m2_orthogonality():
    report = verify_algebra(full_basis(2))
    assert report["n_elements"] == 16
    assert report["max_orthogonality_residual"] == 0.0
    assert report["pairs_checked"] == 256


def test_full_basis_grade_counts():
    for m in (1, 2, 3):
        b = full_basis(m)
        for k in range(0, 2 * m + 1):
            assert sum(len(idx) == k for idx in b.indices) == math.comb(2 * m, k)


def test_full_basis_extended_m3():
    b = full_basis(3, "extended")
    assert len(b.indices) == 64
    assert b.side == 7
    assert b.max_grade == 3
    counts = {k: sum(len(idx) == k for idx in b.indices) for k in range(4)}
    assert counts == {0: 1, 1: 7, 2: 21, 3: 35}


def _kron_iteration(m):
    """The Pauli iteration written out with dense Kronecker products."""
    gams = [SIGMA1, SIGMA2]
    for _ in range(m - 1):
        eye = np.eye(gams[0].shape[0])
        gams = [np.kron(g, SIGMA1) for g in gams] + [np.kron(eye, SIGMA2), np.kron(eye, SIGMA3)]
    return gams


@pytest.mark.parametrize("m", range(1, 7))
def test_generators_follow_kron_iteration(m):
    dense = _kron_iteration(m)
    assert len(gammas(m)) == len(dense)
    for g, want in zip(gammas(m), dense):
        assert np.array_equal(g, want)


def _dense_product(gams, idx):
    prod = np.eye(gams[0].shape[0], dtype=complex)
    for i in idx:
        prod = prod @ gams[i - 1]
    k = len(idx)
    return (1, 1j, -1, -1j)[(k * (k - 1) // 2) % 4] * prod


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("m", range(1, 7))
def test_table_matches_dense_products(m, mode):
    b = full_basis(m, mode)
    gams = gammas(m, mode)
    indices = b.indices
    if m == 6:
        rng = np.random.default_rng(6)
        indices = [indices[i] for i in rng.choice(len(indices), size=64, replace=False)]
    for idx in indices:
        assert np.array_equal(b.element(idx), _dense_product(gams, idx)), idx


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_mask_table_matches_dense_products_at_every_grade(m, mode):
    # every multi-index of every grade, above m too in extended mode, against
    # products of the Kronecker generators and their phased product
    # Gamma_{2m+1} = (-i)^m Gamma_1 ... Gamma_{2m}
    gams = _kron_iteration(m)
    if mode == "extended":
        gams.append((-1j) ** m * np.linalg.multi_dot(gams))
    for k in range(1, len(gams) + 1):
        for idx in itertools.combinations(range(1, len(gams) + 1), k):
            assert np.array_equal(basis_element(m, idx, mode), _dense_product(gams, idx)), idx
    # the family's masks in wire order: grade by grade, lexicographic within one
    b = cached_basis(m, mode)
    assert b.masks.tolist() == [index_mask(idx, b.side)[0] for idx in b.indices]
    assert b.indices == sorted(b.indices, key=lambda idx: (len(idx), idx))


def test_m1_elements_hold_no_negative_zero(capsys):
    # expand leaves -0.0 in some m = 1 elements and + 0j clears it, which
    # np.array_equal, for which -0.0 == 0.0, cannot see
    for mode in ("standard", "extended"):
        assert run(["basis", "--m", "1", "--mode", mode]) == 0
        assert "-0.0" not in capsys.readouterr().out
        n = side(1, mode)
        for idx in itertools.chain.from_iterable(
                itertools.combinations(range(1, n + 1), k) for k in range(n + 1)):
            parts = basis_element(1, idx, mode).view(float)
            assert not np.signbit(parts[parts == 0.0]).any(), (mode, idx)


def test_extended_gammas_m1():
    g = gammas(1, "extended")
    assert len(g) == 3
    assert np.array_equal(g[0], SIGMA1)
    assert np.array_equal(g[1], SIGMA2)
    assert np.array_equal(g[2], SIGMA3)


def test_extended_gammas_m2_anticommute_exactly():
    g = gammas(2, "extended")
    assert len(g) == 5
    for i in range(5):
        for j in range(5):
            anti = g[i] @ g[j] + g[j] @ g[i]
            target = 2.0 * np.eye(4) if i == j else np.zeros((4, 4))
            assert np.array_equal(anti, target)


def test_extended_gammas_m3_squares():
    for g in gammas(3, "extended"):
        assert np.array_equal(g @ g, np.eye(8) + 0j)


def test_verify_algebra_residuals():
    for m, mode in itertools.product(range(1, 7), ["standard", "extended"]):
        report = verify_algebra(full_basis(m, mode))
        assert report["pairs_checked"] == 16 ** m
        assert report["max_anticommutator_residual"] == 0.0
        assert report["max_hermiticity_residual"] == 0.0
        assert report["max_orthogonality_residual"] == 0.0


def test_verify_algebra_detects_tampering():
    b = full_basis(2)
    # a phase off by i makes (1, 2) anti-hermitian
    p = b.p.copy()
    p[0b0011] ^= 1
    report = verify_algebra(CliffordBasis(b.m, b.mode, b.masks, b.grade, b.x, b.z, p))
    assert report["max_hermiticity_residual"] >= 1.0
    # a repeated Pauli string breaks orthogonality by a full trace
    x, z, p = b.x.copy(), b.z.copy(), b.p.copy()
    src, dst = 0b0011, 0b1100
    x[dst], z[dst], p[dst] = x[src], z[src], p[src]
    report = verify_algebra(CliffordBasis(b.m, b.mode, b.masks, b.grade, x, z, p))
    assert report["max_orthogonality_residual"] == 2 ** b.m
    assert report["max_hermiticity_residual"] == 0.0


def test_products_close_in_span(rng):
    # random triple products of generators expand fully over the 4^m elements
    b = full_basis(2)
    gams = gammas(2)
    for _ in range(10):
        i, j, k = rng.integers(0, 4, size=3)
        prod = gams[i] @ gams[j] @ gams[k]
        recon = np.zeros_like(prod)
        for idx in b.indices:
            el = b.element(idx)
            coeff = np.trace(prod @ el) / b.dim
            recon = recon + coeff * el
        assert np.max(np.abs(recon - prod)) < 1e-10


def test_resource_limit():
    with pytest.raises(ResourceLimit):
        gammas(7)
