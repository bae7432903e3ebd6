import json

import numpy as np
import pytest

from entbound import (
    DimensionMismatchError,
    HermitianMatrix,
    NotHermitianError,
    from_json_dict,
    hermitian,
    is_psd,
    random_hermitian,
    random_state,
    support_projector,
    to_json_dict,
    trace_inner_product,
    trace_norm,
)
from entbound.linalg import partial_transpose_array
from conftest import PAULI_X, PAULI_Z, bell_state


class TestHermitianMatrix:
    def test_symmetrizes_small_asymmetry(self):
        m = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 2e-14j, 2.0]])
        h = hermitian(m)
        assert np.linalg.norm(h.mat - h.mat.conj().T) == 0.0

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(NotHermitianError):
            hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dims_must_factor_order(self):
        with pytest.raises(DimensionMismatchError):
            HermitianMatrix(np.eye(4), (2, 3))

    def test_arithmetic_keeps_dims(self):
        a = hermitian(np.eye(4), (2, 2))
        b = 0.5 * a + a
        assert b.dims == (2, 2)
        assert np.allclose(b.mat, 1.5 * np.eye(4))


class TestSpectralDecompose:
    def test_identity(self):
        sd = hermitian(np.eye(2)).spectrum
        assert np.allclose(sd.eigenvalues, [1.0, 1.0])
        assert np.allclose(sd.eigenvectors.conj().T @ sd.eigenvectors, np.eye(2))

    def test_diagonal_sorted_ascending(self):
        sd = hermitian(np.diag([3.0, -1.0])).spectrum
        assert np.allclose(sd.eigenvalues, [-1.0, 3.0])
        assert np.allclose(np.abs(sd.eigenvectors), [[0.0, 1.0], [1.0, 0.0]])

    def test_pauli_x_by_hand(self):
        # Characteristic polynomial x^2 - 1: eigenvalues ±1 with (1, ∓1)/√2.
        sd = hermitian(PAULI_X).spectrum
        assert np.allclose(sd.eigenvalues, [-1.0, 1.0])
        r = 2**-0.5
        assert np.allclose(sd.eigenvectors[:, 0], [r, -r])
        assert np.allclose(sd.eigenvectors[:, 1], [r, r])

    def test_roundtrip_random(self, rng):
        for n in (2, 5, 9, 16):
            a = random_hermitian((n, 1), rng)
            sd = a.spectrum
            v, w = sd.eigenvectors, sd.eigenvalues
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) < 1e-10
            assert np.linalg.norm((v * w) @ v.conj().T - a.mat) < 1e-10

    def test_deterministic_phase(self, rng):
        a = random_hermitian((3, 1), rng)
        sd1 = a.spectrum
        sd2 = a.spectrum
        assert np.array_equal(sd1.eigenvectors, sd2.eigenvectors)
        for k in range(3):
            col = sd1.eigenvectors[:, k]
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-12


class TestSpectrumCache:
    def test_computed_once_and_read_only(self, rng):
        a = random_hermitian((2, 3), rng)
        assert a.spectrum is a.spectrum
        assert a.pt is a.pt
        assert not a.spectrum.eigenvalues.flags.writeable
        assert not a.spectrum.eigenvectors.flags.writeable

    def test_pt_spectrum_matches_array_partial_transpose(self, rng):
        for dims in ((2, 2), (2, 3), (3, 3)):
            a = random_hermitian(dims, rng)
            w = np.linalg.eigvalsh(partial_transpose_array(a.mat, a.dims))
            assert np.max(np.abs(a.pt.spectrum.eigenvalues - w)) <= 1e-14 * np.max(np.abs(w))


class TestPartialTranspose:
    def test_product_state(self, rng):
        a = random_state((2, 1), rng).mat
        b = random_state((3, 1), rng).mat
        prod = hermitian(np.kron(a, b), (2, 3))
        expected = np.kron(a, b.T)
        assert np.allclose(prod.pt.mat, expected)

    def test_bell_eigenvalues(self):
        w = np.linalg.eigvalsh(bell_state().pt.mat)
        assert np.allclose(np.sort(w), [-0.5, 0.5, 0.5, 0.5])

    def test_identity_fixed(self):
        eye = hermitian(np.eye(4) / 4, (2, 2))
        assert np.array_equal(eye.pt.mat, eye.mat)

    def test_involution_exact(self, rng):
        a = random_hermitian((2, 3), rng)
        assert np.array_equal(a.pt.pt.mat, a.mat)

    def test_self_adjoint(self, rng):
        for _ in range(20):
            a = random_hermitian((2, 3), rng)
            b = random_hermitian((2, 3), rng)
            lhs = trace_inner_product(a.pt, b)
            rhs = trace_inner_product(a, b.pt)
            assert abs(lhs - rhs) < 1e-10


class TestTraceInnerProduct:
    def test_identity_pair(self):
        eye = hermitian(np.eye(2))
        assert trace_inner_product(eye, eye) == pytest.approx(2.0)

    def test_orthogonal_paulis(self):
        assert trace_inner_product(hermitian(PAULI_Z), hermitian(PAULI_X)) == pytest.approx(0.0)

    def test_diagonal(self):
        a = hermitian(np.diag([1.0, 2.0]))
        b = hermitian(np.diag([3.0, 4.0]))
        assert trace_inner_product(a, b) == pytest.approx(11.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_inner_product(hermitian(np.eye(2)), hermitian(np.eye(3)))


class TestTraceNorm:
    def test_psd_state(self, rng):
        rho = random_state((2, 2), rng)
        assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert trace_norm(hermitian(np.diag([2.0, -3.0]))) == pytest.approx(5.0)

    def test_bell_pt(self):
        assert trace_norm(bell_state().pt) == pytest.approx(2.0, abs=1e-12)

    def test_norm_axioms(self, rng):
        for _ in range(20):
            a = random_hermitian((2, 2), rng)
            b = random_hermitian((2, 2), rng)
            c = rng.normal()
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9
            assert trace_norm(c * a) == pytest.approx(abs(c) * trace_norm(a), abs=1e-9)


class TestSupportProjector:
    def test_full_rank(self, rng):
        a = random_state((2, 1), rng)
        p = support_projector(a)
        assert np.allclose(p.mat, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        p = support_projector(hermitian(np.diag([1.0, 0.0])))
        assert np.allclose(p.mat, np.diag([1.0, 0.0]))

    def test_rank_one(self, rng):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        proj = hermitian(np.outer(v, v.conj()))
        p = support_projector(proj)
        assert np.linalg.norm(p.mat - proj.mat) < 1e-10
        assert np.linalg.norm(p.mat @ p.mat - p.mat) < 1e-10


class TestIsPsd:
    def test_identity(self):
        assert is_psd(hermitian(np.eye(2)))

    def test_indefinite(self):
        assert not is_psd(hermitian(np.diag([1.0, -1.0])))

    def test_bell_pt(self):
        assert not is_psd(bell_state().pt)


class TestJson:
    def test_roundtrip_exact(self, rng):
        a = random_hermitian((2, 3), rng)
        d = json.loads(json.dumps(to_json_dict(a)))
        b = from_json_dict(d)
        assert b.dims == a.dims
        assert np.array_equal(b.mat, a.mat)

    def test_malformed(self):
        with pytest.raises(DimensionMismatchError):
            from_json_dict({"dims": [2, 2], "re": [[1.0]]})
