import json

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from genbloch.cli import run
from genbloch.coords import coords_to_json, decode, state_coords
from genbloch.domains import DEFAULT_TOL, positivity
from genbloch.errors import MalformedInput, NotHermitian
from genbloch.identities import char_poly
from genbloch.linalg import (
    HERM_TOL,
    as_matrix,
    exp_minus_i_hermitian,
    hermitian_eigenvalues,
    matrix_from_json,
    matrix_to_json,
    require_hermitian,
    wire_field,
)
from genbloch.spectra import numeric_spectrum

from conftest import SIGMA1, SIGMA2, random_hermitian, random_unit_trace_hermitian


def test_eigenvalues_maximally_mixed():
    vals = hermitian_eigenvalues(np.eye(4) / 4)
    assert np.allclose(vals, [0.25] * 4, atol=1e-14)


def test_eigenvalues_projector():
    vals = hermitian_eigenvalues((np.eye(2) + SIGMA1) / 2)
    assert np.allclose(vals, [0.0, 1.0], atol=1e-14)


def _bisection_roots(coeffs, n_roots, lo, hi, samples=20000):
    """Independent root finder: sign-change scan plus bisection."""
    xs = np.linspace(lo, hi, samples)
    ys = polyval(xs, coeffs)
    roots = []
    for i in range(samples - 1):
        if ys[i] == 0.0:
            roots.append(xs[i])
        elif ys[i] * ys[i + 1] < 0:
            a, b = xs[i], xs[i + 1]
            fa = polyval(a, coeffs)
            for _ in range(200):
                mid = (a + b) / 2
                fm = polyval(mid, coeffs)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append((a + b) / 2)
    assert len(roots) == n_roots, f"bisection found {len(roots)} of {n_roots} roots"
    return np.sort(np.array(roots))


@pytest.mark.parametrize("bad", ["abc", [[1, 2], [3]], [["a", "b"], ["c", "d"]], {"dim": 2}],
                         ids=["str", "ragged", "strings", "dict"])
def test_non_numeric_matrix_is_malformed(bad):
    # what cannot be read as a complex array is a malformed input, typed
    for call in (hermitian_eigenvalues, as_matrix, require_hermitian, exp_minus_i_hermitian):
        with pytest.raises(MalformedInput, match="expected a numeric matrix"):
            call(bad)


def test_eigenvalues_vs_charpoly_bisection(rng):
    h = random_hermitian(rng, 8, scale=0.25)
    vals = hermitian_eigenvalues(h)
    p = char_poly(h)
    bound = 1.0 + float(np.max(np.abs(p[:-1])))
    roots = _bisection_roots(p, 8, -bound, bound)
    assert np.max(np.abs(vals - roots)) < 1e-9


def test_char_poly_at_odd_dimension(rng):
    # det(lambda I - A) flips sign into det(A - lambda I) when the side is odd
    h, lam = random_hermitian(rng, 3), 0.37
    want = np.linalg.det(h - lam * np.eye(3)).real
    assert abs(polyval(lam, char_poly(h)) - want) <= 1e-12 * max(1.0, abs(want))


def test_eigenvalue_sum_is_trace(rng):
    for n in (3, 8, 32):
        h = random_hermitian(rng, n)
        vals = hermitian_eigenvalues(h)
        assert abs(np.sum(vals) - np.trace(h).real) < 1e-9 * max(1, abs(np.trace(h).real))


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        exp_minus_i_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_char_poly_identity():
    assert np.allclose(char_poly(np.eye(2)), [1.0, -2.0, 1.0], atol=1e-14)


def test_char_poly_diag10():
    assert np.allclose(char_poly(np.diag([1.0, 0.0])), [0.0, -1.0, 1.0], atol=1e-14)


def test_char_poly_at_eigenvalues(rng):
    for n in (4, 8, 16):
        h = random_hermitian(rng, n, scale=1.0 / n)
        p = char_poly(h)
        for lam in hermitian_eigenvalues(h):
            assert abs(polyval(lam, p)) < 1e-8


def test_char_poly_requires_hermitian():
    with pytest.raises(NotHermitian):
        char_poly(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_exp_zero_is_identity():
    assert np.allclose(exp_minus_i_hermitian(np.zeros((3, 3))), np.eye(3), atol=1e-14)


def test_exp_pauli_rotation():
    u = exp_minus_i_hermitian((np.pi / 2) * SIGMA2)
    assert np.max(np.abs(u - (-1j) * SIGMA2)) < 1e-12
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def test_exp_unitary_random(rng):
    h = random_hermitian(rng, 8)
    u = exp_minus_i_hermitian(-h)
    assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-10
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10


def test_matrix_json_roundtrip(rng):
    a = random_hermitian(rng, 3)
    obj = matrix_to_json(a)
    assert obj["dim"] == 3 and len(obj["entries"]) == 9
    assert np.array_equal(matrix_from_json(obj), a)


@pytest.mark.parametrize("entry", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_matrix_from_json_refuses_non_finite(entry):
    text = '{"dim": 2, "entries": [[%s, 0], [0, 0], [0, 0], [0.5, 0]]}' % entry
    with pytest.raises(MalformedInput, match="field 'entries'"):
        matrix_from_json(json.loads(text))


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_wire_float_refuses_non_finite(value):
    with pytest.raises(MalformedInput, match="field 'val': expected float"):
        wire_field(value, float, "val")


def _layouts(h):
    """h as a transpose, a Fortran-ordered copy and a strided view."""
    big = np.zeros((2 * h.shape[0], 2 * h.shape[0]), dtype=complex)
    big[::2, ::2] = h
    return {"transpose": h.T, "fortran": np.asfortranarray(h), "strided": big[::2, ::2]}


@pytest.mark.parametrize("layout", ["transpose", "fortran", "strided"])
def test_complex_layouts_match_c_order(rng, layout):
    rho = random_unit_trace_hermitian(rng, 4)
    a = _layouts(rho)[layout]
    assert not a.flags.c_contiguous
    c = np.ascontiguousarray(a)
    assert np.array_equal(as_matrix(a), c)
    assert np.array_equal(hermitian_eigenvalues(a), hermitian_eigenvalues(c))
    assert np.array_equal(exp_minus_i_hermitian(a), exp_minus_i_hermitian(c))
    assert np.array_equal(char_poly(a), char_poly(c))
    assert np.array_equal(numeric_spectrum(a).eigenvalues, numeric_spectrum(c).eigenvalues)
    assert coords_to_json(decode(a)) == coords_to_json(decode(c))


@pytest.mark.parametrize("bad", [np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("layout", ["c", "transpose", "fortran", "strided"])
def test_nonfinite_entries_rejected(layout, bad):
    h = np.eye(3, dtype=complex)
    h[0, 1] = bad
    a = h if layout == "c" else _layouts(h)[layout]
    for f in (as_matrix, hermitian_eigenvalues, char_poly):
        with pytest.raises(ValueError, match="non-finite"):
            f(a)


def _near_hermitian(m, residual):
    """(exactly hermitian unit-trace state, the same state with hermiticity residual `residual`)."""
    n = 2 ** m
    rng = np.random.default_rng(m)
    exact = random_unit_trace_hermitian(rng, n, mix=0.5 / n)
    s = rng.uniform(-1.0, 1.0, size=(n, n))
    s = s + s.T
    # rho - rho^dagger = residual * i * s / max|s|, spread over every entry
    return exact, exact + 0.5j * residual * s / np.max(np.abs(s))


def _positivity(exact, rho):
    # every two-qubit state has a closed form, which reads no matrix, so at
    # m = 2 an m = 3 state with a grade-3 entry sends positivity to the
    # eigenvalues of the 8 x 8 rho (x) diag(1, 0), which has rho's entries and
    # hermiticity residual
    if len(exact) > 4:
        coords = decode(exact)
    else:
        coords = state_coords(3, grades={3: {(1, 2, 3): 0.1}})
        rho = np.kron(rho, np.diag([1.0, 0.0]))
    _, route = positivity(coords, rho, DEFAULT_TOL)
    assert route == "min_eigenvalue"


_HERMITICITY_ENTRY_POINTS = {
    "decode": lambda exact, rho: decode(rho),
    "numeric_spectrum": lambda exact, rho: numeric_spectrum(rho),
    "hermitian_eigenvalues": lambda exact, rho: hermitian_eigenvalues(rho),
    "positivity": _positivity,
    "char_poly": lambda exact, rho: char_poly(rho),
    "cli-validate": ["validate"],
    "cli-decode": ["decode"],
    "cli-spectrum-oracle": ["spectrum", "--oracle"],
}


@pytest.mark.parametrize("entry", list(_HERMITICITY_ENTRY_POINTS))
@pytest.mark.parametrize("m", [2, 6])
@pytest.mark.parametrize("factor", [0.99, 1.01], ids=["below", "above"])
def test_one_hermiticity_rule(tmp_path, capsys, entry, m, factor):
    # every entry point takes the same verdict from the residual alone
    exact, rho = _near_hermitian(m, factor * HERM_TOL)
    call = _HERMITICITY_ENTRY_POINTS[entry]
    if isinstance(call, list):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(matrix_to_json(rho)))
        code = run([*call, "--input", str(path)])
        captured = capsys.readouterr()
        if factor < 1:
            assert code == 0, captured.err
        else:
            assert code == 1 and captured.out == ""
            assert captured.err.splitlines() == [captured.err.strip()]
            assert "hermiticity residual" in captured.err
    elif factor < 1:
        call(exact, rho)
    else:
        with pytest.raises(NotHermitian):
            call(exact, rho)


@pytest.mark.parametrize("entry", [8e307, 1.7e308])
def test_hermitian_part_of_huge_entries_is_finite(entry):
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 3] = rho[3, 0] = entry
    assert np.array_equal(require_hermitian(rho), rho)
    vals = hermitian_eigenvalues(rho)
    assert np.isfinite(vals).all() and vals[-1] == pytest.approx(entry)


def _no_constant(name):
    raise ValueError(f"JSON constant {name} in the output")


@pytest.mark.parametrize("argv", [["validate"], ["decode"], ["spectrum", "--oracle"]],
                         ids=["validate", "decode", "spectrum-oracle"])
@pytest.mark.parametrize("upper, lower", [(8e307, 8e307), (1.7e308, 1.7e308), (1e308, -1e308)],
                         ids=["hermitian-8e307", "hermitian-1.7e308", "antihermitian-1e308"])
def test_huge_entries_cli_typed_error_or_finite(tmp_path, capsys, argv, upper, lower):
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 3], rho[3, 0] = upper, lower
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(matrix_to_json(rho)))
    code = run([*argv, "--input", str(path)])
    captured = capsys.readouterr()
    if code == 1:
        assert captured.out == "" and len(captured.err.splitlines()) == 1
    else:
        assert code in (0, 2)
        json.loads(captured.out, parse_constant=_no_constant)
