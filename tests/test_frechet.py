import math

import numpy as np
import pytest

from entbound import (
    DomainViolationError,
    NonInvertibleKernelError,
    ScalarFunction,
    SupportViolationError,
    build_kernel,
    directional_derivative,
    frechet_apply,
    frechet_pinv_apply,
    hermitian,
    identity_fn,
    log_fn,
    matrix_function,
    neg_log_fn,
    power_fn,
    random_hermitian,
    support_projector,
    trace_inner_product,
)
from entbound.frechet import divided_differences, log_second_divided_differences
from conftest import fd_matrix_function, random_positive


@pytest.mark.parametrize(
    "g,lo,hi",
    [
        (log_fn(), 0.1, 10.0),
        (neg_log_fn(), 0.1, 10.0),
        (power_fn(0.5), 0.1, 10.0),
        (power_fn(2.0), 0.1, 10.0),
        (identity_fn(), -5.0, 5.0),
    ],
)
def test_scalar_function_derivative_matches_fd(g, lo, hi):
    xs = np.linspace(lo, hi, 100)
    h = 1e-6
    fd = (g.fn(xs + h) - g.fn(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - g.dfn(xs)) / np.maximum(np.abs(g.dfn(xs)), 1e-12)) < 1e-6


class TestBuildKernel:
    def test_log_at_identity_is_all_ones(self):
        k = build_kernel(log_fn(), hermitian(np.eye(2)))
        assert np.allclose(k.t, np.ones((2, 2)))
        assert k.mask.all()

    def test_log_divided_difference_value(self):
        # (log 1 - log e) / (1 - e) = 1 / (e - 1)
        k = build_kernel(log_fn(), hermitian(np.diag([1.0, math.e])))
        expected = 1.0 / (math.e - 1.0)
        assert k.t[0, 1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.58198, abs=1e-5)
        assert k.t[0, 0] == pytest.approx(1.0)
        assert k.t[1, 1] == pytest.approx(1.0 / math.e)

    def test_log_masks_zero_eigenvalue(self):
        k = build_kernel(log_fn(), hermitian(np.diag([0.0, 1.0])))
        assert list(k.mask) == [False, True]
        # Every row/column touching the masked eigenvalue is zero.
        assert k.t[0, 0] == 0.0 and k.t[0, 1] == 0.0 and k.t[1, 0] == 0.0
        assert k.t[1, 1] == pytest.approx(1.0)

    def test_symmetry_and_diagonal(self, rng):
        a = random_positive((2, 2), rng)
        k = build_kernel(log_fn(), a)
        assert np.allclose(k.t, k.t.T)
        assert np.allclose(np.diag(k.t), 1.0 / k.basis.eigenvalues)
        assert k.s is not None
        inside = np.abs(k.t) > 0
        assert np.allclose(k.s[inside] * k.t[inside], 1.0)

    def test_noninvertible_kernel(self):
        square = ScalarFunction("square", -math.inf, math.inf, lambda x: x**2, lambda x: 2 * x)
        k = build_kernel(square, hermitian(np.diag([-1.0, 1.0])))
        # Divided difference (1 - 1)/(-2) = 0: no elementwise inverse.
        assert k.s is None
        with pytest.raises(NonInvertibleKernelError):
            frechet_pinv_apply(k, hermitian(np.eye(2)))


class TestFrechetApply:
    def test_identity_anchor_is_identity_map(self, rng):
        b = random_hermitian((2, 2), rng)
        k = build_kernel(log_fn(), hermitian(np.eye(4), (2, 2)))
        assert np.linalg.norm(frechet_apply(k, b).mat - b.mat) < 1e-12

    def test_log_derivative_at_anchor_gives_support_projector(self, rng):
        for _ in range(5):
            a = random_positive((2, 1), rng)
            k = build_kernel(log_fn(), a)
            out = frechet_apply(k, a)
            assert np.linalg.norm(out.mat - np.eye(2)) < 1e-10
        # Singular anchor: L_A(A) lands on the support projector.
        a = hermitian(np.diag([0.7, 0.3, 0.0]))
        out = frechet_apply(build_kernel(log_fn(), a), a)
        assert np.linalg.norm(out.mat - support_projector(a).mat) < 1e-10

    def test_finite_difference_agreement(self, rng):
        for t in (1e-5, 1e-6):
            a = random_positive((2, 2), rng)
            b = random_hermitian((2, 2), rng)
            k = build_kernel(log_fn(), a)
            fd = fd_matrix_function(log_fn(), a, b, t)
            err = np.linalg.norm(fd - frechet_apply(k, b).mat) / np.linalg.norm(b.mat)
            assert err < 1e-4

    def test_self_adjointness(self, rng):
        a = random_positive((2, 2), rng)
        k = build_kernel(log_fn(), a)
        for _ in range(10):
            b = random_hermitian((2, 2), rng)
            c = random_hermitian((2, 2), rng)
            lhs = trace_inner_product(c, frechet_apply(k, b))
            rhs = trace_inner_product(frechet_apply(k, c), b)
            assert abs(lhs - rhs) < 1e-10

    def test_log_kernel_positivity(self, rng):
        # T of the log is PSD for positive anchors, so the Hadamard action
        # preserves the PSD cone; strictly positive operands stay strict.
        for _ in range(10):
            a = random_positive((2, 2), rng)
            b = random_positive((2, 2), rng, floor=0.0)
            out = frechet_apply(build_kernel(log_fn(), a), b)
            assert np.linalg.eigvalsh(out.mat)[0] > -1e-10
            strict = frechet_apply(build_kernel(log_fn(), a), random_positive((2, 2), rng))
            assert np.linalg.eigvalsh(strict.mat)[0] > 0

    def test_degenerate_cluster_continuity(self, rng):
        a0 = hermitian(np.diag([0.5, 0.5, 2.0]))
        a1 = hermitian(np.diag([0.5, 0.5 + 1e-12, 2.0]))
        b = random_hermitian((3, 1), rng)
        out0 = frechet_apply(build_kernel(log_fn(), a0), b)
        out1 = frechet_apply(build_kernel(log_fn(), a1), b)
        assert np.linalg.norm(out0.mat - out1.mat) < 1e-6


class TestFrechetPinv:
    def test_pinv_of_support_projector_recovers_anchor(self):
        for diag in ([0.5, 0.5], [0.7, 0.3, 0.0]):
            a = hermitian(np.diag(diag))
            k = build_kernel(log_fn(), a)
            p = support_projector(a)
            assert np.linalg.norm(frechet_pinv_apply(k, p).mat - a.mat) < 1e-10

    def test_round_trip_is_support_compression(self, rng):
        a = hermitian(np.diag([0.6, 0.4, 0.0]))
        k = build_kernel(log_fn(), a)
        p = support_projector(a).mat
        for _ in range(5):
            b = random_hermitian((3, 1), rng)
            rt = frechet_pinv_apply(k, frechet_apply(k, b))
            assert np.linalg.norm(rt.mat - p @ b.mat @ p) < 1e-9
            rt2 = frechet_apply(k, frechet_pinv_apply(k, b))
            assert np.linalg.norm(rt2.mat - p @ b.mat @ p) < 1e-9

    def test_identity_anchor(self, rng):
        b = random_hermitian((2, 1), rng)
        k = build_kernel(log_fn(), hermitian(np.eye(2)))
        assert np.linalg.norm(frechet_pinv_apply(k, b).mat - b.mat) < 1e-12


class TestMatrixFunction:
    def test_log_identity_is_zero(self):
        out = matrix_function(log_fn(), hermitian(np.eye(3)))
        assert np.allclose(out.mat, 0.0)

    def test_power_one_is_identity_map(self, rng):
        a = random_positive((2, 1), rng)
        out = matrix_function(power_fn(1.0), a)
        assert np.linalg.norm(out.mat - a.mat) < 1e-12

    def test_log_diagonal(self):
        out = matrix_function(log_fn(), hermitian(np.diag([1.0, math.e**2])))
        assert np.allclose(out.mat, np.diag([0.0, 2.0]), atol=1e-12)

    def test_domain_violation(self):
        with pytest.raises(DomainViolationError):
            matrix_function(log_fn(), hermitian(np.diag([1.0, 0.0])))

    def test_restrict_to_support(self):
        out = matrix_function(log_fn(), hermitian(np.diag([1.0, 0.0])), restrict_to_support=True)
        assert np.allclose(out.mat, 0.0)


class TestDirectionalDerivative:
    def test_zero_direction(self, rng):
        rho = random_positive((2, 1), rng)
        sigma = random_positive((2, 1), rng)
        zero = hermitian(np.zeros((2, 2)))
        assert directional_derivative(log_fn(), rho, sigma, zero) == pytest.approx(0.0)

    def test_traceless_direction_at_anchor(self, rng):
        # L_rho is self-adjoint and L_rho(rho) = 1 for rho > 0, so the
        # derivative reduces to -Tr[tau].
        rho = random_positive((2, 2), rng)
        tau_raw = random_hermitian((2, 2), rng)
        tau = hermitian(tau_raw.mat - np.trace(tau_raw.mat).real / 4 * np.eye(4), (2, 2))
        val = directional_derivative(log_fn(), rho, rho, tau)
        assert abs(val) < 1e-10

    def test_finite_difference_oracle(self, rng):
        for _ in range(5):
            rho = random_positive((2, 1), rng)
            sigma = random_positive((2, 1), rng)
            tau = random_hermitian((2, 1), rng)
            t = 1e-6

            def f(s):
                return -trace_inner_product(rho, matrix_function(log_fn(), s))

            fd = (f(hermitian(sigma.mat + t * tau.mat)) - f(sigma)) / t
            val = directional_derivative(log_fn(), rho, sigma, tau)
            assert abs(fd - val) < 1e-4

    def test_infinite_divergence(self, rng):
        rho = random_positive((2, 1), rng)
        sigma = hermitian(np.diag([1.0, 0.0]))
        tau = random_hermitian((2, 1), rng)
        with pytest.raises(SupportViolationError):
            directional_derivative(log_fn(), rho, sigma, tau)


class TestSecondDividedDifferences:
    @staticmethod
    def first_derivative(a, h):
        # D log(A)[H] = V (log[w_i, w_j] ∘ V†HV) V†
        w, v = np.linalg.eigh(a)
        return v @ (divided_differences(log_fn(), w) * (v.conj().T @ h @ v)) @ v.conj().T

    @pytest.mark.parametrize(
        "spectrum",
        [
            [0.05, 0.2, 0.3, 0.45],
            [0.1, 0.1, 0.3, 0.5],  # one coincident pair
            [0.25, 0.25, 0.25, 0.25],  # all coincident
        ],
        ids=["distinct", "pair", "triple"],
    )
    def test_daleckii_krein_matches_central_differences(self, spectrum):
        # D²log(A)[H, K]_ij = Σ_k log[w_i, w_k, w_j](H_ik K_kj + K_ik H_kj) against
        # central differences of the first derivative along K.
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        w = np.array(spectrum)
        a = (q * w) @ q.conj().T
        h, k = (random_hermitian((4, 1), rng).mat for _ in range(2))
        t2 = log_second_divided_differences(w)
        hh, kk = q.conj().T @ h @ q, q.conj().T @ k @ q
        d2 = np.einsum("ikj,ik,kj->ij", t2, hh, kk) + np.einsum("ikj,ik,kj->ij", t2, kk, hh)
        exact = q @ d2 @ q.conj().T
        step = 1e-5
        fd = (self.first_derivative(a + step * k, h) - self.first_derivative(a - step * k, h)) / (
            2 * step
        )
        assert np.linalg.norm(fd - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_symmetric_in_its_three_arguments(self):
        w = np.array([0.01, 0.2, 0.2 + 1e-12, 0.7])
        t2 = log_second_divided_differences(w)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert np.allclose(t2, t2.transpose(perm), rtol=1e-6, atol=0.0)
