import numpy as np
import pytest

from entbound import (
    PreconditionError,
    SupportViolationError,
    build_family,
    build_kernel,
    frechet_apply,
    frechet_pinv_apply,
    general_converse,
    hermitian,
    identity_fn,
    log_fn,
    matrix_function,
    neg_log_fn,
    power_fn,
    ppt_functional,
    quasi_f_relative_entropy,
    quasi_functional,
    random_boundary_state,
    random_hermitian,
    renyi_converse,
    renyi_functional,
    renyi_relative_entropy,
    sandwiched_functional,
    sandwiched_renyi,
    support_projector,
    trace_inner_product,
)
from conftest import random_positive_state


def traceless_direction(dims, rng):
    tau = random_hermitian(dims, rng)
    n = dims[0] * dims[1]
    return hermitian(tau.mat - np.trace(tau.mat).real / n * np.eye(n), dims)


class TestGeneralConverse:
    def test_log_matches_family_direction(self):
        sigma = random_boundary_state((2, 2), 1)
        f = ppt_functional(sigma)
        fam = build_family(sigma, f)
        out = general_converse(log_fn(), sigma, f)
        assert out.accepted
        assert np.linalg.norm(out.rho.mat - fam.direction.mat) < 1e-12

    def test_identity_function_returns_phi(self, rng):
        sigma = random_positive_state((2, 1), rng)
        phi = random_positive_state((2, 1), rng)
        out = general_converse(identity_fn(), sigma, phi)
        assert out.accepted
        assert np.linalg.norm(out.rho.mat - phi.mat) < 1e-12

    def test_power_round_trip_is_support_compression(self, rng):
        sigma = random_positive_state((2, 1), rng)
        phi = random_hermitian((2, 1), rng)
        k = build_kernel(power_fn(0.5), sigma)
        p = support_projector(sigma).mat
        rt = frechet_apply(k, frechet_pinv_apply(k, phi))
        assert np.linalg.norm(rt.mat - p @ phi.mat @ p) < 1e-9

    def test_refusal_on_indefinite_result(self, rng):
        sigma = random_positive_state((2, 1), rng)
        phi = hermitian(np.diag([1.0, -1.0]))
        out = general_converse(log_fn(), sigma, phi)
        assert not out.accepted
        assert "not PSD" in out.refusal

    def test_phi_off_a_singular_anchor_support_raises(self):
        sigma = hermitian(np.diag([1.0, 0.0]))
        with pytest.raises(SupportViolationError):
            general_converse(log_fn(), sigma, hermitian(np.eye(2)))


class TestQuasiFunctional:
    def test_neg_log_gives_log_derivative_functional(self, rng):
        for _ in range(5):
            rho = random_positive_state((2, 1), rng)
            sigma = random_positive_state((2, 1), rng)
            phi = quasi_functional(neg_log_fn(), rho, sigma)
            l_sigma_rho = frechet_apply(build_kernel(log_fn(), sigma), rho)
            assert np.linalg.norm(phi.mat - l_sigma_rho.mat) < 1e-9

    def test_maximally_mixed_single_kernel(self, rng):
        n = 4
        rho = hermitian(np.eye(n) / n, (2, 2))
        sigma = random_positive_state((2, 2), rng)
        f = power_fn(0.5)
        phi = quasi_functional(f, rho, sigma)
        scaled = hermitian(n * sigma.mat, (2, 2))
        direct = frechet_apply(build_kernel(f, scaled), hermitian(np.eye(n), (2, 2)))
        assert np.linalg.norm(phi.mat + direct.mat) < 1e-9

    def test_finite_difference_sign(self, rng):
        f = power_fn(2.0)  # operator convex on (0, inf)
        for _ in range(5):
            rho = random_positive_state((2, 1), rng)
            sigma = random_positive_state((2, 1), rng)
            tau = traceless_direction((2, 1), rng)
            phi = quasi_functional(f, rho, sigma)
            t = 1e-6
            shifted = hermitian(sigma.mat + t * tau.mat)
            fd = (
                quasi_f_relative_entropy(f, rho, shifted)
                - quasi_f_relative_entropy(f, rho, sigma)
            ) / t
            assert fd == pytest.approx(-trace_inner_product(phi, tau), rel=1e-4, abs=1e-4)


class TestRenyiFunctional:
    def test_commuting_diagonal_scalar_form(self):
        alpha = 0.4
        p = np.array([0.3, 0.7])
        s = np.array([0.6, 0.4])
        phi = renyi_functional(alpha, hermitian(np.diag(p)), hermitian(np.diag(s)))
        expected = (1 - alpha) * np.power(s, -alpha) * np.power(p, alpha)
        assert np.allclose(np.diag(phi.mat).real, expected)
        assert np.linalg.norm(phi.mat - np.diag(np.diag(phi.mat))) < 1e-12

    def test_power_kernel_identity(self, rng):
        # Hadamard action of the power kernel on the identity: alpha A^(alpha-1).
        alpha = 0.6
        a = random_positive_state((2, 1), rng)
        k = build_kernel(power_fn(alpha), a)
        out = frechet_apply(k, hermitian(np.eye(2)))
        direct = alpha * matrix_function(power_fn(alpha - 1.0), a).mat
        assert np.linalg.norm(out.mat - direct) < 1e-9

    def test_round_trip(self, rng):
        alpha = 0.7
        for _ in range(5):
            rho = random_positive_state((2, 1), rng)
            sigma = random_positive_state((2, 1), rng)
            phi = renyi_functional(alpha, rho, sigma)
            back = renyi_converse(alpha, sigma, phi)
            assert np.linalg.norm(back.mat - rho.mat) < 1e-8

    def test_converse_refuses_indefinite_preimage(self):
        # σ* and φ commute, so D‡(φ) = diag(1/g'(0.6), -1/g'(0.4)) is indefinite.
        sigma = hermitian(np.diag([0.6, 0.4]))
        with pytest.raises(PreconditionError):
            renyi_converse(0.5, sigma, hermitian(np.diag([1.0, -1.0])))

    def test_finite_difference_trace_term(self, rng):
        alpha = 0.5
        rho = random_positive_state((2, 1), rng)
        sigma = random_positive_state((2, 1), rng)
        tau = traceless_direction((2, 1), rng)
        phi = renyi_functional(alpha, rho, sigma)
        t = 1e-6

        def z(s):
            ra = matrix_function(power_fn(alpha), rho).mat
            sa = matrix_function(power_fn(1 - alpha), s).mat
            return float(np.trace(ra @ sa).real)

        fd = (z(hermitian(sigma.mat + t * tau.mat)) - z(sigma)) / t
        assert fd == pytest.approx(trace_inner_product(phi, tau), abs=1e-4)


class TestSandwichedFunctional:
    def test_stationary_at_equal_arguments(self, rng):
        # First-order variation of D_alpha vanishes along trace-preserving
        # directions at sigma* = rho.
        alpha = 0.7
        rho = random_positive_state((2, 1), rng)
        phi = sandwiched_functional(alpha, rho, rho)
        for _ in range(5):
            tau = traceless_direction((2, 1), rng)
            t = 1e-6
            fd = (
                sandwiched_renyi(alpha, rho, hermitian(rho.mat + t * tau.mat))
                - sandwiched_renyi(alpha, rho, rho)
            ) / t
            assert abs(fd) < 1e-4

    def test_finite_difference_trace_term(self, rng):
        alpha = 0.6
        beta = (1 - alpha) / (2 * alpha)
        rho = random_positive_state((2, 1), rng)
        sigma = random_positive_state((2, 1), rng)
        tau = traceless_direction((2, 1), rng)
        phi = sandwiched_functional(alpha, rho, sigma)

        def g(s):
            sb = matrix_function(power_fn(beta), s).mat
            x = sb @ rho.mat @ sb
            w = np.clip(np.linalg.eigvalsh((x + x.conj().T) / 2), 0.0, None)
            return float(np.sum(w**alpha))

        t = 1e-6
        fd = (g(hermitian(sigma.mat + t * tau.mat)) - g(sigma)) / t
        assert fd == pytest.approx(alpha * trace_inner_product(phi, tau), abs=1e-4)

    def test_commuting_consistency_with_renyi(self, rng):
        # On commuting pairs both builders certify the same first-order
        # condition: the induced derivatives of the divergences share signs.
        alpha = 0.6
        p = np.array([0.3, 0.7])
        s = np.array([0.55, 0.45])
        rho = hermitian(np.diag(p))
        sigma = hermitian(np.diag(s))
        phi_r = renyi_functional(alpha, rho, sigma)
        phi_s = sandwiched_functional(alpha, rho, sigma)
        for _ in range(10):
            tau = traceless_direction((2, 1), rng)
            a = trace_inner_product(phi_r, tau)
            b = trace_inner_product(phi_s, tau)
            assert np.sign(round(a, 12)) == np.sign(round(b, 12))


class TestSignConvention:
    def test_divergence_derivative_opposes_functional(self, rng):
        # The repo-wide orientation: d/dt Div(rho || sigma* + t(sigma-sigma*))
        # has sign opposite to Tr[phi (sigma - sigma*)] for every builder.
        t = 1e-6
        for _ in range(5):
            rho = random_positive_state((2, 1), rng)
            sigma_star = random_positive_state((2, 1), rng)
            sigma = random_positive_state((2, 1), rng)
            tau = sigma - sigma_star
            shifted = hermitian(sigma_star.mat + t * tau.mat)

            cases = []
            f = power_fn(2.0)
            phi = quasi_functional(f, rho, sigma_star)
            fd = (
                quasi_f_relative_entropy(f, rho, shifted)
                - quasi_f_relative_entropy(f, rho, sigma_star)
            ) / t
            cases.append((fd, trace_inner_product(phi, tau)))

            alpha = 0.6
            phi = renyi_functional(alpha, rho, sigma_star)
            fd = (
                renyi_relative_entropy(alpha, rho, shifted)
                - renyi_relative_entropy(alpha, rho, sigma_star)
            ) / t
            cases.append((fd, trace_inner_product(phi, tau)))

            phi = sandwiched_functional(alpha, rho, sigma_star)
            fd = (
                sandwiched_renyi(alpha, rho, shifted)
                - sandwiched_renyi(alpha, rho, sigma_star)
            ) / t
            cases.append((fd, trace_inner_product(phi, tau)))

            for fd, overlap in cases:
                if abs(fd) > 1e-6 and abs(overlap) > 1e-6:
                    assert np.sign(fd) == -np.sign(overlap)
