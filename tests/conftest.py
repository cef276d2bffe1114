import itertools

import numpy as np
import pytest

from genbloch.clifford import basis_element, side
from genbloch.coords import antisym, state_coords
from genbloch.domains import sample_domain

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def gammas(m, mode="standard"):
    """Gamma_1 .. Gamma_side as dense matrices; extended mode appends Gamma_{2m+1}."""
    return [basis_element(m, (i,), mode) for i in range(1, side(m, mode) + 1)]


def random_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2.0


def random_unit_trace_hermitian(rng, n, mix=None):
    """I/n plus a random traceless hermitian perturbation of controlled size."""
    h = random_hermitian(rng, n)
    h = h - (np.trace(h) / n) * np.eye(n)
    if mix is None:
        mix = rng.uniform(0.0, 3.0 / n)
    norm = np.linalg.norm(h)
    if norm > 0:
        h = h / norm
    return np.eye(n, dtype=complex) / n + mix * h


def random_tensor(rng, m, k, side=None, box=1.0):
    side = 2 * m if side is None else side
    vals = {}
    for key in itertools.combinations(range(1, side + 1), k):
        vals[key] = float(rng.uniform(-box, box))
    return antisym(m, k, vals, side)


def table_rows(columns):
    """One tuple of Python values per row of a table's columns."""
    return list(zip(*(col.tolist() for col in columns)))


def sample_table(*args, **kwargs):
    """sample_domain's (column names, columns): its blocks' columns joined."""
    names, blocks = sample_domain(*args, **kwargs)
    return names, [np.concatenate(column) for column in zip(*blocks)]


def random_coords(rng, m, mode="standard", box=1.0):
    max_k = 2 * m if mode == "standard" else m
    side = 2 * m if mode == "standard" else 2 * m + 1
    grades = {k: random_tensor(rng, m, k, side=side, box=box) for k in range(1, max_k + 1)}
    return state_coords(m, mode=mode, scalar=1.0, grades=grades)


@pytest.fixture
def rng():
    return np.random.default_rng(20240731)
