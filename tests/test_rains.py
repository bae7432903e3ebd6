import numpy as np
import pytest

from entbound import (
    DomainViolationError,
    PreconditionError,
    SolverConfig,
    SupportViolationError,
    ball_functional,
    hermitian,
    is_in_T,
    qubit_equality_audit,
    rains_closed_form,
    rains_converse,
    rains_functional,
    rains_vs_ln,
    random_boundary_state,
    random_hermitian,
    random_state,
    relative_entropy,
    trace_inner_product,
    trace_norm,
    verify_rains_min,
)
from entbound import solver
from samplers import sample_T
from conftest import bell_state, random_positive_state


def scaled_to_sphere(rho):
    """tau = rho / ||rho^Gamma||_1, the log-negativity anchor candidate."""
    return hermitian(rho.mat / trace_norm(rho.pt), rho.dims)


class TestMembership:
    def test_ppt_state_on_sphere(self, rng):
        sigma = random_boundary_state((2, 2), 2)
        assert is_in_T(sigma)
        assert trace_norm(sigma.pt) == pytest.approx(1.0, abs=1e-9)

    def test_bell_not_in_T(self):
        assert not is_in_T(bell_state())

    def test_zero_in_T(self):
        assert is_in_T(hermitian(np.zeros((4, 4)), (2, 2)))


class TestBallFunctional:
    def test_full_rank_sign_matrix(self, rng):
        a = random_hermitian((2, 2), rng)
        a = hermitian(a.mat / trace_norm(a), (2, 2))
        omega = ball_functional(a)
        w, v = np.linalg.eigh(a.mat)
        sign = (v * np.sign(w)) @ v.conj().T
        assert np.linalg.norm(omega.mat - sign) < 1e-10
        assert trace_inner_product(omega, a) == pytest.approx(1.0, abs=1e-10)

    def test_nullspace_default_zero(self):
        a = hermitian(np.diag([1.0, 0.0]))
        omega = ball_functional(a)
        assert np.allclose(omega.mat, np.diag([1.0, 0.0]))

    def test_nullspace_block_accepted(self):
        a = hermitian(np.diag([1.0, 0.0]))
        omega = ball_functional(a, null_part=hermitian(np.diag([0.0, -0.5])))
        assert np.allclose(omega.mat, np.diag([1.0, -0.5]))
        with pytest.raises(PreconditionError):
            ball_functional(a, null_part=hermitian(np.diag([0.0, 1.5])))
        with pytest.raises(PreconditionError):
            ball_functional(a, null_part=hermitian(np.diag([0.3, 0.0])))

    def test_sampled_ball_inequality(self, rng):
        a = random_hermitian((2, 2), rng)
        a = hermitian(a.mat / trace_norm(a), (2, 2))
        omega = ball_functional(a)
        for _ in range(1000):
            b = random_hermitian((2, 2), rng)
            b = hermitian(b.mat * rng.uniform() / trace_norm(b), (2, 2))
            assert trace_inner_product(omega, b) <= 1.0 + 1e-10

    def test_off_sphere_rejected(self, rng):
        with pytest.raises(PreconditionError):
            ball_functional(hermitian(np.eye(2)))


class TestRainsFunctional:
    def test_bell_anchor_analytic(self):
        tau = hermitian(bell_state().mat / 2, (2, 2))
        f = rains_functional(tau)
        assert np.linalg.norm(f.phi.mat - 2 * bell_state().mat) < 1e-10
        assert f.anchor_value == pytest.approx(1.0, abs=1e-10)

    def test_full_rank_pt_forces_zero_q(self, rng):
        rho = random_positive_state((2, 2), rng)
        tau = scaled_to_sphere(rho)
        f = rains_functional(tau)
        w, v = np.linalg.eigh(tau.pt.mat)
        assert np.linalg.norm(f.phi.pt.mat - (v * np.sign(w)) @ v.conj().T) < 1e-10
        with pytest.raises(PreconditionError):
            rains_functional(tau, q=hermitian(0.5 * np.eye(4), (2, 2)))

    def test_sampled_inequality_battery(self, rng):
        rho = random_positive_state((2, 2), rng)
        tau = scaled_to_sphere(rho)
        f = rains_functional(tau)
        batch = sample_T((2, 2), 1000, rng)
        vals = np.einsum("ij,kji->k", f.phi.mat, batch).real
        assert np.max(vals) <= 1.0 + 1e-10

    def test_off_sphere_rejected(self, rng):
        with pytest.raises(PreconditionError):
            rains_functional(random_state((2, 2), rng))

    def test_negative_pt_anchor_gives_nonpositive_phi(self, rng):
        # The qubit-side mechanism: an anchor whose PT has a negative
        # eigenvalue induces a functional with min eigenvalue <= 0.
        for dims in ((2, 2), (2, 3)):
            found = False
            for seed in range(10):
                gen = np.random.default_rng(seed)
                rho = random_state(dims, gen)
                tau = scaled_to_sphere(rho)
                if np.linalg.eigvalsh(tau.pt.mat)[0] < -1e-6:
                    f = rains_functional(tau)
                    assert np.linalg.eigvalsh(f.phi.mat)[0] <= 1e-9
                    found = True
            assert found


class TestRainsConverse:
    def test_ppt_fixed_point(self, rng):
        # Full-rank PPT state with strictly positive PT: phi = 1, rho = tau*.
        sigma = random_positive_state((2, 2), rng)
        if np.linalg.eigvalsh(sigma.pt.mat)[0] <= 1e-6:
            sigma = hermitian(0.5 * sigma.mat + 0.5 * np.eye(4) / 4, (2, 2))
        f = rains_functional(sigma)
        assert np.linalg.norm(f.phi.mat - np.eye(4)) < 1e-9
        res = rains_converse(sigma, f)
        assert res.accepted
        assert np.linalg.norm(res.rho.mat - sigma.mat) < 1e-9
        assert rains_closed_form(sigma, f, res.rho) == pytest.approx(0.0, abs=1e-9)

    def test_bell_round_trip(self):
        tau = hermitian(bell_state().mat / 2, (2, 2))
        f = rains_functional(tau)
        res = rains_converse(tau, f)
        assert res.accepted
        assert np.linalg.norm(res.rho.mat - bell_state().mat) < 1e-10
        assert res.rho.trace() == pytest.approx(1.0, abs=1e-9)
        cert = verify_rains_min(res.rho, tau)
        assert cert.passed
        closed = rains_closed_form(tau, f, res.rho)
        assert closed == pytest.approx(np.log(2), abs=1e-9)
        assert closed == pytest.approx(relative_entropy(res.rho, tau), abs=1e-9)

    def test_generic_negative_pt_anchor_refuses(self):
        found_refusal = False
        for seed in range(10):
            gen = np.random.default_rng(seed)
            rho = random_positive_state((2, 2), gen)
            tau = scaled_to_sphere(rho)
            if np.linalg.eigvalsh(tau.pt.mat)[0] >= -1e-6:
                continue
            res = rains_converse(tau, rains_functional(tau))
            if not res.accepted:
                assert "not PSD" in res.refusal
                found_refusal = True
                break
        assert found_refusal

    def test_off_sphere_refusal(self, rng):
        tau = hermitian(bell_state().mat / 2, (2, 2))
        f = rains_functional(tau)
        shrunk = hermitian(0.9 * tau.mat, (2, 2))
        res = rains_converse(shrunk, f)
        assert not res.accepted
        assert "sphere" in res.refusal

    def test_phi_off_a_singular_anchor_support_refusal(self):
        # The functional of a full-rank sphere point has weight off the
        # rank-one support of Φ⁺/2.
        tau = hermitian(bell_state().mat / 2, (2, 2))
        other = scaled_to_sphere(random_positive_state((2, 2), np.random.default_rng(3)))
        res = rains_converse(tau, rains_functional(other))
        assert not res.accepted
        assert "not supported" in res.refusal


class TestVerifyRainsMin:
    def test_scaled_anchor_fails_norm(self):
        tau = hermitian(bell_state().mat / 2, (2, 2))
        # 0.9·Φ⁺/2 lies inside T, off its boundary, and the gap shows it.
        cert = verify_rains_min(bell_state(), hermitian(0.9 * tau.mat, (2, 2)))
        assert cert.in_set
        assert cert.max_violation == pytest.approx(1 / 9, abs=1e-9)
        assert not cert.passed

    def test_state_off_the_anchor_support_raises(self):
        # |00⟩ has weight 1/2 outside the rank-one support of Φ⁺/2.
        tau = hermitian(bell_state().mat / 2, (2, 2))
        rho = hermitian(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        with pytest.raises(SupportViolationError):
            verify_rains_min(rho, tau)

    def test_anchor_not_psd_raises(self):
        tau = hermitian(np.diag([0.6, 0.6, -0.1, -0.1]), (2, 2))
        rho = hermitian(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2))
        with pytest.raises(DomainViolationError):
            verify_rains_min(rho, tau)

    def test_bell_pass(self):
        tau = hermitian(bell_state().mat / 2, (2, 2))
        cert = verify_rains_min(bell_state(), tau)
        assert cert.passed and cert.in_set and cert.form_ok

    def test_certificate_bounds_sampled_battery(self):
        # Weak duality: the certified max_violation bounds the violation of
        # every element of T, whether or not the anchor minimizes for rho.
        gen = np.random.default_rng(32)
        for seed in range(1, 8):
            dims = (2, 2) if seed % 2 else (2, 3)
            tau = random_boundary_state(dims, seed)
            res = rains_converse(tau, rains_functional(tau))
            assert res.accepted
            other = scaled_to_sphere(random_positive_state(dims, gen))
            pairs = (
                (res.rho, tau, True),
                (random_positive_state(dims, gen), tau, False),
                (random_positive_state(dims, gen), other, False),
            )
            for rho, anchor, minimized in pairs:
                cert = verify_rains_min(rho, anchor)
                batch = sample_T(dims, 2000, gen)
                vals = np.einsum("ij,kji->k", cert.phi_hat.mat, batch).real
                assert cert.max_violation >= float(np.max(vals)) - cert.anchor_value - 1e-12
                assert cert.passed == minimized


class TestRainsVsLn:
    def test_ppt_state_equal_at_zero(self):
        report = rains_vs_ln(hermitian(np.eye(4) / 4, (2, 2)))
        assert report.verdict == "EQUAL"
        assert report.log_negativity == pytest.approx(0.0, abs=1e-10)

    def test_bell_equal_log2(self):
        report = rains_vs_ln(bell_state())
        assert report.verdict == "EQUAL"
        assert report.max_support_overlap == pytest.approx(0.5, abs=1e-6)
        assert report.rains_if_equal == pytest.approx(np.log(2), abs=1e-10)

    def test_full_rank_non_ppt_strict(self, rng):
        rho = random_positive_state((2, 2), rng)
        tries = 0
        from entbound import is_ppt

        while is_ppt(rho) and tries < 50:
            rho = random_positive_state((2, 2), rng)
            tries += 1
        report = rains_vs_ln(rho)
        assert report.rho_full_rank
        assert report.verdict == "STRICT"

    def test_rank_two_strict_from_certified_maximum(self):
        # The maximum over T, 0.8883140106, lies well above the anchor overlap.
        rho = random_state((3, 3), np.random.default_rng(2), rank=2)
        report = rains_vs_ln(rho)
        assert report.status == "CONVERGED"
        assert report.max_support_overlap == pytest.approx(0.8883140106, abs=1e-9)
        assert report.verdict == "STRICT"
        assert report.anchor_overlap < report.max_support_overlap


class TestQubitEqualityAudit:
    def test_nonconverged_solves_fail_the_audit(self, monkeypatch):
        # Twelve iterations of SPG alone (Newton declined) stop short of a
        # certified optimum, and the Rains solve starts at the REE minimizer
        # offered as its extra candidate, so the gap passes the bar and only
        # the status count can refuse the audit.
        monkeypatch.setattr(solver, "_newton", lambda *args: None)
        report = qubit_equality_audit((2, 3), 5, 0, SolverConfig(max_iters=12))
        assert report.max_gap < 5e-4
        assert report.nonconverged > 0
        assert report.passed is False

    @pytest.mark.parametrize(
        "dims, samples", [((1, 2), 1), ((2, 1), 1), ((2, 2), 0), ((2, 2), -3)]
    )
    def test_refuses_inputs_that_give_no_evidence(self, dims, samples):
        # A 1×n split has only PPT states, so no sample could ever be drawn;
        # no sample at all would be a PASS with no solve behind it.
        with pytest.raises(PreconditionError):
            qubit_equality_audit(dims, samples, 0)

    def test_report_only_without_a_qubit_side(self):
        report = qubit_equality_audit((3, 3), 1, 0, SolverConfig(max_iters=2))
        assert report.nonconverged > 0
        assert report.passed is None
