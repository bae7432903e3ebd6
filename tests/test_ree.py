import numpy as np
import pytest

from entbound import (
    DomainViolationError,
    PreconditionError,
    SupportViolationError,
    additivity_check,
    build_family,
    family_from_json_dict,
    family_to_json_dict,
    hermitian,
    is_boundary_of_P,
    is_ppt,
    minimize_ree,
    ppt_functional,
    random_boundary_state,
    ree_closed_form,
    random_state,
    relative_entropy,
    trace_inner_product,
    supporting_dual,
    verify_cps,
)
from samplers import sample_ppt_states
from conftest import bell_cps_anchor, bell_state


@pytest.fixture(scope="module")
def bell_family():
    anchor = bell_cps_anchor()
    return build_family(anchor, ppt_functional(anchor))


class TestBuildFamily:
    def test_bell_anchor_analytic(self, bell_family):
        fam = bell_family
        p = bell_state().mat
        # L‡(1/2 + P) at the anchor: (3/4) P + (1/12)(1 - P).
        expected_direction = 0.75 * p + (np.eye(4) - p) / 12
        assert np.linalg.norm(fam.direction.mat - expected_direction) < 1e-9
        assert fam.x_max == pytest.approx(2.0, abs=1e-6)
        assert not fam.singular_cap_applied
        assert fam.direction_psd
        assert np.linalg.norm(fam.state(2.0).mat - p) < 1e-6

    def test_x_zero_is_anchor(self, bell_family):
        assert np.linalg.norm(bell_family.state(0.0).mat - bell_family.sigma_star.mat) == 0.0

    def test_member_built_once(self):
        # build_family checks rho(x_max); the closed form reuses that value and
        # its spectrum instead of decomposing rho(x_max) again.
        anchor = random_boundary_state((2, 3), 1)
        fam = build_family(anchor, ppt_functional(anchor))
        rho_max = fam.state(fam.x_max)
        assert fam.state(fam.x_max) is rho_max
        assert "spectrum" in vars(rho_max)

    def test_unit_trace_along_family(self, bell_family):
        for x in np.linspace(0.0, bell_family.x_max, 7):
            assert bell_family.state(x).trace() == pytest.approx(1.0, abs=1e-9)

    def test_members_leave_ppt_and_witness(self):
        # Anything violating Tr[phi rho] <= 1 must fail the PPT test.
        for seed in (1, 2, 3):
            sigma = random_boundary_state((2, 2), seed)
            f = ppt_functional(sigma)
            fam = build_family(sigma, f)
            for x in (fam.x_max / 4, fam.x_max / 2, fam.x_max):
                rho_x = fam.state(x)
                overlap = trace_inner_product(f.phi, rho_x)
                if overlap > 1.0 + 1e-8:
                    assert not is_ppt(rho_x)
            assert not is_ppt(fam.state(fam.x_max))

    def test_anchored_elsewhere_rejected(self):
        f = ppt_functional(random_boundary_state((2, 2), 1))
        other = random_boundary_state((2, 2), 2)
        with pytest.raises(PreconditionError):
            build_family(other, f)

    def test_singular_anchor_needs_compressed_phi(self):
        # A pure product anchor is singular; its hyperplane has weight off
        # the support, so the construction must refuse.
        ket = np.zeros(4)
        ket[0] = 1.0
        anchor = hermitian(np.outer(ket, ket), (2, 2))
        f = ppt_functional(anchor)
        with pytest.raises(SupportViolationError):
            build_family(anchor, f)

    def test_json_roundtrip(self, bell_family):
        fam2 = family_from_json_dict(family_to_json_dict(bell_family))
        assert fam2.x_max == pytest.approx(bell_family.x_max, abs=1e-9)
        assert np.linalg.norm(fam2.direction.mat - bell_family.direction.mat) < 1e-12


class TestClosedForm:
    def test_bell_value(self, bell_family):
        assert ree_closed_form(bell_family, 2.0) == pytest.approx(np.log(2), abs=1e-9)

    def test_matches_relative_entropy_identity(self, bell_family):
        for x in (1e-9, 0.3, 1.0, 1.7, bell_family.x_max):
            closed = ree_closed_form(bell_family, x)
            direct = relative_entropy(bell_family.state(x), bell_family.sigma_star)
            assert closed == pytest.approx(direct, abs=1e-9)

    def test_vanishes_as_x_to_zero(self, bell_family):
        assert ree_closed_form(bell_family, 1e-9) < 1e-6

    def test_monotone_in_x(self):
        sigma = random_boundary_state((2, 3), 4)
        fam = build_family(sigma, ppt_functional(sigma))
        xs = np.linspace(fam.x_max / 20, fam.x_max, 20)
        vals = [ree_closed_form(fam, x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_x_out_of_range(self, bell_family):
        with pytest.raises(PreconditionError):
            ree_closed_form(bell_family, bell_family.x_max + 0.5)
        with pytest.raises(PreconditionError):
            ree_closed_form(bell_family, 0.0)


class TestVerifyCps:
    def test_interior_anchor_trivial_pass(self, rng):
        sigma = hermitian(np.eye(4) / 4, (2, 2))
        cert = verify_cps(sigma, sigma)
        assert cert.passed
        # phi_hat is the constant functional there.
        assert np.linalg.norm(cert.phi_hat.mat - np.eye(4)) < 1e-10

    def test_family_member_passes_with_certificate(self, bell_family):
        rho = bell_family.state(1.0)
        cert = verify_cps(rho, bell_family.sigma_star)
        assert cert.passed
        assert cert.form_ok
        b = supporting_dual(cert.phi_hat, bell_family.sigma_star, "PPT")
        # One zero eigenvector of σ*^Γ, with coefficient 1 after normalization.
        assert np.linalg.eigvalsh(b) == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-9)
        assert is_boundary_of_P(bell_family.sigma_star)

    def test_bell_vs_maximally_mixed_fails(self):
        cert = verify_cps(bell_state(), hermitian(np.eye(4) / 4, (2, 2)))
        assert not cert.passed
        assert cert.violator is not None
        assert cert.max_violation > 1e-3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_anchor_fails_with_ppt_violator(self, seed):
        # Mixing the anchor toward 1/n moves it into the interior of the PPT
        # set, where it minimizes only itself; a sampled battery missed this.
        sigma = random_boundary_state((2, 3), seed)
        fam = build_family(sigma, ppt_functional(sigma))
        rho = fam.state(fam.x_max / 2)
        mixed = hermitian((1 - 1e-4) * sigma.mat + 1e-4 * np.eye(6) / 6, (2, 3))
        cert = verify_cps(rho, mixed)
        assert not cert.passed
        assert cert.violator is not None
        assert is_ppt(cert.violator)
        violation = trace_inner_product(cert.phi_hat, cert.violator) - cert.anchor_value
        assert violation > 1e-8
        assert violation <= cert.max_violation

    def test_certificate_bounds_sampled_battery(self):
        # Weak duality: the certified max_violation bounds the violation of
        # every PPT state, whether or not the anchor minimizes for rho.
        gen = np.random.default_rng(31)
        for seed in range(1, 8):
            dims = (2, 2) if seed % 2 else (2, 3)
            n = dims[0] * dims[1]
            sigma = random_boundary_state(dims, seed)
            fam = build_family(sigma, ppt_functional(sigma))
            member = fam.state(fam.x_max * gen.uniform(0.1, 1.0))
            mixed = hermitian((1 - 1e-3) * sigma.mat + 1e-3 * np.eye(n) / n, dims)
            pairs = (
                (member, sigma, True),
                (random_state(dims, gen), sigma, False),
                (member, mixed, False),
            )
            for rho, anchor, supporting in pairs:
                cert = verify_cps(rho, anchor)
                batch = sample_ppt_states(dims, 2000, gen)
                vals = np.einsum("ij,kji->k", cert.phi_hat.mat, batch).real
                assert cert.max_violation >= float(np.max(vals)) - cert.anchor_value - 1e-12
                assert cert.passed == supporting

    def test_npt_state_is_not_its_own_closest_ppt_state(self):
        # φ̂ = L_ρ(ρ) = 1 has zero gap at ρ; only membership refuses it.
        gen = np.random.default_rng(5)
        rho = random_state((3, 3), gen)
        while is_ppt(rho):
            rho = random_state((3, 3), gen)
        cert = verify_cps(rho, rho)
        assert not cert.in_set and not cert.passed
        assert cert.max_violation <= 1e-10
        assert cert.violator is None

    def test_support_violation(self):
        ket = np.zeros(4)
        ket[0] = 1.0
        singular = hermitian(np.outer(ket, ket), (2, 2))
        with pytest.raises(SupportViolationError):
            verify_cps(hermitian(np.eye(4) / 4, (2, 2)), singular)

    def test_anchor_not_psd_raises(self):
        # Masking the negative eigenvalues alone would report PASS here.
        sigma = hermitian(np.diag([0.6, 0.6, -0.1, -0.1]), (2, 2))
        with pytest.raises(DomainViolationError):
            verify_cps(hermitian(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2)), sigma)

    def test_forward_solver_agrees(self, bell_family):
        rho = bell_family.state(1.3)
        res = minimize_ree(rho, "PPT")
        closed = ree_closed_form(bell_family, 1.3)
        assert abs(res.value - closed) < 2e-4
        assert np.linalg.norm(res.sigma_hat.mat - bell_family.sigma_star.mat) < 1e-3


class TestAdditivity:
    def test_bell_anchor_commuting_pass(self, bell_family):
        report = additivity_check(bell_family.sigma_star, bell_family.functional)
        assert report.commutator_norm < 1e-12
        assert report.condition_two_available
        assert report.max_eig_minus_one <= 1e-8
        assert report.passed

    def test_generic_anchor_fails_commutator(self):
        sigma = random_boundary_state((2, 2), 6)
        f = ppt_functional(sigma)
        report = additivity_check(sigma, f)
        assert report.commutator_norm > 1e-6
        assert not report.passed

    def test_singular_anchor_condition_two_unavailable(self):
        ket = np.zeros(4)
        ket[0] = 1.0
        anchor = hermitian(np.outer(ket, ket), (2, 2))
        f = ppt_functional(anchor)
        report = additivity_check(anchor, f)
        assert not report.condition_two_available
        assert report.max_eig_minus_one is None
        assert not report.passed

    def test_diagonal_anchor_commutes(self):
        # Diagonal states are fixed by the partial transpose, so the
        # functional is diagonal too and the commutator vanishes exactly.
        anchor = hermitian(np.diag([0.5, 0.3, 0.2, 0.0]), (2, 2))
        f = ppt_functional(anchor)
        report = additivity_check(anchor, f)
        assert report.commutator_norm < 1e-12
        assert not report.condition_two_available
