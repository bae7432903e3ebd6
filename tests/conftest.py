"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from entbound import HermitianMatrix, hermitian, matrix_function

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def bell_state() -> HermitianMatrix:
    """|Φ+⟩⟨Φ+| on dims (2, 2)."""
    v = np.zeros(4)
    v[0] = v[3] = 2**-0.5
    return hermitian(np.outer(v, v), (2, 2))


def singlet_state() -> HermitianMatrix:
    v = np.zeros(4)
    v[1] = 2**-0.5
    v[2] = -(2**-0.5)
    return hermitian(np.outer(v, v), (2, 2))


def antisymmetric_werner(d: int) -> HermitianMatrix:
    """Uniform mixture over the antisymmetric subspace of d×d, rank d(d-1)/2."""
    n = d * d
    p = np.zeros((n, n))
    for i in range(d):
        for j in range(i + 1, d):
            v = np.zeros(n)
            v[i * d + j] = 2**-0.5
            v[j * d + i] = -(2**-0.5)
            p += np.outer(v, v)
    return hermitian(p / np.trace(p), (d, d))


def bell_cps_anchor() -> HermitianMatrix:
    """Closest PPT state of the Bell state: P/2 + (1-P)/6, full rank."""
    p = bell_state().mat
    return hermitian(p / 2 + (np.eye(4) - p) / 6, (2, 2))


def random_positive(dims, rng, floor=0.3) -> HermitianMatrix:
    """Random strictly positive matrix with eigenvalues bounded below."""
    n = dims[0] * dims[1]
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = g @ g.conj().T / n
    return hermitian(s + floor * np.eye(n), dims)


def random_positive_state(dims, rng, floor=0.05) -> HermitianMatrix:
    """Random full-rank state with smallest eigenvalue at least about floor/n."""
    n = dims[0] * dims[1]
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = g @ g.conj().T
    s = s / np.trace(s).real
    s = (1 - floor) * s + floor * np.eye(n) / n
    return hermitian(s, dims)


def fd_matrix_function(g, a: HermitianMatrix, b: HermitianMatrix, t: float) -> np.ndarray:
    """Forward finite-difference oracle for the derivative of g(A + tB)."""
    plus = matrix_function(g, hermitian(a.mat + t * b.mat, a.dims))
    base = matrix_function(g, a)
    return (plus.mat - base.mat) / t


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
