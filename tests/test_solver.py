import numpy as np
import pytest

from entbound import (
    ConvergenceError,
    PreconditionError,
    SolverConfig,
    hermitian,
    is_in_T,
    is_boundary_of_P,
    is_ppt,
    maximize_linear,
    minimize_ree,
    ppt_functional,
    project_P,
    project_T,
    random_boundary_state,
    random_hermitian,
    random_state,
    build_family,
    ree_closed_form,
    trace_norm,
    verify_cps,
    verify_rains_min,
)
from entbound import solver
from entbound.solver import (
    CERT_TOL,
    PROJ_FEAS,
    _coords,
    _hermitian_basis,
    _newton_step,
    _project,
    _prox,
    _project_simplex,
    _residual,
    _shift_feasible,
    _spectral,
)
from entbound.frechet import build_kernel, frechet_apply, log_fn
from entbound.linalg import partial_transpose_array, support_projector
from conftest import antisymmetric_werner, bell_cps_anchor, bell_state
from samplers import sample_T, sample_ppt_states


# Reference residuals of the two sets, computed independently of the solver.
def ppt_infeasibility(x, dims):
    lam = np.linalg.eigvalsh(x)[0]
    lam_pt = np.linalg.eigvalsh(partial_transpose_array(x, dims))[0]
    return max(-lam, -lam_pt, abs(np.trace(x).real - 1.0))


def t_infeasibility(x, dims):
    lam = np.linalg.eigvalsh(x)[0]
    ptnorm = np.sum(np.abs(np.linalg.eigvalsh(partial_transpose_array(x, dims))))
    return max(-lam, ptnorm - 1.0)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(PreconditionError):
            SolverConfig(max_iters=0)
        with pytest.raises(PreconditionError):
            SolverConfig(projection_iters=0)


class TestProjectP:
    def test_fixes_ppt_input(self, rng):
        sigma = random_boundary_state((2, 2), 1)
        out = project_P(sigma)
        assert np.linalg.norm(out.mat - sigma.mat) < 1e-8

    def test_bell_lands_on_boundary(self):
        out = project_P(bell_state())
        assert is_ppt(out, tol=1e-8)
        assert is_boundary_of_P(out, tol=1e-6)

    def test_negative_identity_projects_to_state(self):
        out = project_P(hermitian(-np.eye(4) / 4, (2, 2)))
        assert out.trace() == pytest.approx(1.0, abs=1e-8)
        assert is_ppt(out, tol=1e-8)


class TestProjectT:
    def test_fixes_member(self, rng):
        sigma = random_state((2, 2), rng)
        if not is_ppt(sigma):
            sigma = project_P(sigma)
        out = project_T(sigma)
        assert np.linalg.norm(out.mat - sigma.mat) < 1e-8

    def test_scaled_ppt_state_projects_feasible(self, rng):
        sigma = random_state((2, 2), rng)
        if not is_ppt(sigma):
            sigma = project_P(sigma)
        out = project_T(hermitian(2.0 * sigma.mat, (2, 2)))
        assert trace_norm(out.pt) <= 1.0 + 1e-8
        assert np.linalg.eigvalsh(out.mat)[0] >= -1e-10

    def test_zero_is_fixed(self):
        out = project_T(hermitian(np.zeros((4, 4)), (2, 2)))
        assert np.allclose(out.mat, 0.0)


def third_hermitian_draw():
    gen = np.random.default_rng(0)
    for _ in range(3):
        x = random_hermitian((3, 3), gen)
    return x


class TestProjectionCap:
    def test_infeasible_output_raises(self):
        # Five inner iterations stop both projections of this input short of
        # their stop rule.
        x = third_hermitian_draw()
        with pytest.raises(ConvergenceError):
            project_P(x, SolverConfig(projection_iters=5))
        with pytest.raises(ConvergenceError):
            project_T(x, SolverConfig(projection_iters=5))

    def test_hard_input_projects_feasibly(self):
        # Dykstra stopped at its cycle cap on this input, with a PT eigenvalue
        # near -4.6e-5 (P) and ||X^Gamma||_1 - 1 near 2.9e-4 (T).
        x = third_hermitian_draw()
        assert ppt_infeasibility(project_P(x).mat, x.dims) <= 1e-11
        assert t_infeasibility(project_T(x).mat, x.dims) <= 1e-11


class TestDualProjection:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("set_tag", ["PPT", "RAINS_T"])
    def test_feasible_and_a_descent_direction(self, dims, set_tag):
        # The stop rule gives <y - x, z - x> <= |x - sigma|^2 / 2 for every z in
        # the set, so d = x - sigma descends on y = sigma - t g (take z = sigma).
        rng = np.random.default_rng(7)
        sample, feasibility = {
            "PPT": (sample_ppt_states, ppt_infeasibility),
            "RAINS_T": (sample_T, t_infeasibility),
        }[set_tag]
        sigmas = sample(dims, 8, rng)
        zs = sample(dims, 200, rng)
        mult = None  # warm-started from the last multiplier, as inside a solve
        for k, sigma in enumerate(sigmas):
            step = random_hermitian(dims, rng).mat * 10.0 ** -(k % 4)
            y = sigma - step
            x, mult, _, capped = _project(y, dims, set_tag, 2000, mult, sigma)
            assert not capped
            assert feasibility(x, dims) <= PROJ_FEAS
            lhs = np.einsum("ij,kij->k", (y - x).conj(), np.concatenate([zs, [sigma]]) - x).real
            assert np.max(lhs) <= 0.5 * np.linalg.norm(x - sigma) ** 2 + 1e-12

    @pytest.mark.parametrize("dims, seed", [((2, 3), 1), ((3, 3), 2)])
    @pytest.mark.parametrize("factor", [0.1, 10.0])
    def test_multiplier_rescaled_to_the_step_warm_starts_better(self, dims, seed, factor):
        # At a fixed point the projection's multiplier is proportional to the
        # step, so after the step changes the multiplier scaled with it is the
        # closer start.
        anchor = random_boundary_state(dims, seed)
        fam = build_family(anchor, ppt_functional(anchor))
        rho = fam.state(fam.x_max / 2)
        sigma = minimize_ree(rho, "PPT").sigma_hat
        g = -frechet_apply(build_kernel(log_fn(), sigma), rho).mat
        t = 1.0 / np.linalg.norm(g)
        _, mult, _, _ = _project(sigma.mat - t * g, dims, "PPT", 2000)
        y = sigma.mat - factor * t * g
        counts = []
        for start in (mult, factor * mult):
            x, _, inner, capped = _project(y, dims, "PPT", 2000, start, sigma.mat)
            assert not capped
            assert ppt_infeasibility(x, dims) <= PROJ_FEAS
            counts.append(inner)
        unscaled, scaled = counts
        assert scaled < unscaled


class TestProjectSimplex:
    def test_matches_the_sort_based_formula_bit_for_bit(self):
        # Eigenvalues arrive ascending from eigh; ties come from rounding.
        rng = np.random.default_rng(11)
        for k in range(12000):
            w = rng.normal(size=int(rng.integers(1, 17))) * 10.0 ** rng.integers(-3, 3)
            if k % 2:
                w = np.round(w, 1)
            w = np.sort(w)
            u = np.sort(w)[::-1]
            cum = np.cumsum(u) - 1.0
            j = int(np.max(np.nonzero(u > cum / np.arange(1, w.size + 1))[0]))
            expected = np.clip(w - cum[j] / (j + 1), 0.0, None)
            assert np.array_equal(_project_simplex(w), expected)


class TestMinimizeRee:
    def test_ppt_input_already_optimal(self, rng):
        sigma = random_state((2, 2), rng)
        if not is_ppt(sigma):
            sigma = project_P(sigma)
        res = minimize_ree(sigma, "PPT")
        assert res.value < 1e-8
        assert np.linalg.norm(res.sigma_hat.mat - sigma.mat) < 1e-3

    def test_bell_over_ppt(self):
        res = minimize_ree(bell_state(), "PPT")
        assert res.value == pytest.approx(np.log(2), abs=2e-4)
        assert is_ppt(res.sigma_hat, tol=1e-8)

    def test_family_member_recovers_anchor(self):
        anchor = bell_cps_anchor()
        fam = build_family(anchor, ppt_functional(anchor))
        rho = fam.state(1.5)
        res = minimize_ree(rho, "PPT")
        assert np.linalg.norm(res.sigma_hat.mat - anchor.mat) < 1e-3
        assert abs(res.value - ree_closed_form(fam, 1.5)) < 2e-4

    def test_monotone_descent(self, monkeypatch, rng):
        # Newton would certify the start at once; declined, SPG runs the solve.
        monkeypatch.setattr(solver, "_newton", lambda *args: None)
        rho = random_state((2, 3), rng)
        res = minimize_ree(rho, "PPT")
        trace = res.objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_rains_value_never_exceeds_log_negativity(self, rng):
        for _ in range(5):
            rho = random_state((2, 2), rng)
            res = minimize_ree(rho, "RAINS_T")
            ln = np.log(trace_norm(rho.pt))
            assert res.value <= ln + 1e-8
            assert is_in_T(res.sigma_hat, tol=1e-8)

    def test_random_states_are_certified(self, rng):
        # The problem is convex, so a certified gap rules out a local minimum
        # (or projection inexactness posing as one) without restarts.
        for _ in range(20):
            res = minimize_ree(random_state((2, 2), rng), "PPT")
            assert res.status == "CONVERGED"
            assert res.cert_gap <= 1e-10

    def test_rejects_non_state(self, rng):
        with pytest.raises(Exception):
            minimize_ree(hermitian(np.eye(4), (2, 2)), "PPT")


def _family(anchor):
    return build_family(anchor, ppt_functional(anchor))


@pytest.fixture(scope="module", params=[3, 4])
def werner_solves(request):
    d = request.param
    rho = antisymmetric_werner(d)
    ep = minimize_ree(rho, "PPT")
    return d, rho, ep, minimize_ree(rho, "RAINS_T", extra_candidates=[ep.sigma_hat])


class TestAntisymmetricWerner:
    """The standard case of R < E, where only P₊ - P₋ + Q certifies the Rains solve."""

    def test_ree_is_one_ebit(self, werner_solves):
        # Audenaert et al., PRL 87, 217902 (2001).
        _, _, ep, _ = werner_solves
        assert ep.status == "CONVERGED"
        assert abs(ep.value - np.log(2)) <= 1e-9

    def test_rains_is_certified_at_its_closed_form(self, werner_solves):
        # Rains, IEEE Trans. Inf. Theory 47, 2921 (2001): R = log((d + 2)/d).
        d, rho, _, rb = werner_solves
        assert rb.status == "CONVERGED"
        assert abs(rb.value - np.log((d + 2) / d)) <= 1e-9
        assert verify_rains_min(rho, rb.sigma_hat).passed


class TestStatus:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_iteration_cap_short_of_optimum_is_nonconverged(self, monkeypatch, seed):
        # Newton would certify the start at once, so it is declined here and
        # two SPG iterations stay short.
        monkeypatch.setattr(solver, "_newton", lambda *args: None)
        fam = _family(random_boundary_state((3, 3), seed))
        x = fam.x_max / 2
        res = minimize_ree(fam.state(x), "PPT", SolverConfig(max_iters=2))
        assert res.value - ree_closed_form(fam, x) > 1e-4
        assert res.cert_gap > CERT_TOL
        assert res.status == "NONCONVERGED"
        assert res.newton_steps == 0

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_infeasible_iterate_is_nonconverged(self, monkeypatch, dims):
        # From the maximally mixed start, projections cut to one inner
        # iteration each fall short of P, and the iterates leave it. Newton,
        # which needs no projection, would end at the certified minimizer
        # instead, so it is declined here.
        monkeypatch.setattr(solver, "_newton", lambda *args: None)
        rho = random_state(dims, np.random.default_rng(1))
        res = minimize_ree(rho, "PPT", SolverConfig(projection_iters=1))
        assert ppt_infeasibility(res.sigma_hat.mat, dims) > 1e-3
        assert res.status == "NONCONVERGED"

    def test_projection_counters(self, monkeypatch):
        # Newton, which needs no projection, is declined so that SPG runs.
        monkeypatch.setattr(solver, "_newton", lambda *args: None)
        rho = random_state((2, 3), np.random.default_rng(0))
        full = minimize_ree(rho, "PPT")
        assert full.projections_capped == 0
        assert full.projection_iters >= full.iterations
        capped = minimize_ree(rho, "PPT", SolverConfig(projection_iters=2))
        assert capped.projections_capped > 0
        assert capped.iterations <= capped.projection_iters <= 2 * capped.iterations

    def test_backtracks_counted(self, monkeypatch):
        # Ginibre 2x4 solves overshoot on their Barzilai-Borwein steps; Newton
        # is declined so that SPG runs.
        monkeypatch.setattr(solver, "_newton", lambda *args: None)
        rho = random_state((2, 4), np.random.default_rng(0))
        res = minimize_ree(rho, "PPT")
        assert res.status == "CONVERGED"
        assert 0 < res.backtracks <= 40 * res.iterations

    def test_rains_solve_starts_at_the_ree_minimizer(self):
        # P is inside T, so the REE minimizer is a feasible Rains start, and
        # the first objective value is no higher than the REE.
        fam = _family(random_boundary_state((2, 3), 1))
        rho = fam.state(fam.x_max / 2)
        ep = minimize_ree(rho, "PPT")
        rb = minimize_ree(rho, "RAINS_T", extra_candidates=[ep.sigma_hat])
        assert rb.objective_trace[0] <= ep.value + 1e-12
        assert rb.status == "CONVERGED"

    def test_infeasible_candidate_with_zero_gap_is_nonconverged(self):
        # sigma_hat = rho zeroes the objective and gives phi_hat = 1, hence a
        # zero spectral gap; only the feasibility test can refuse it.
        rho = random_state((2, 3), np.random.default_rng(0))
        assert not is_ppt(rho)
        res = minimize_ree(rho, "PPT", extra_candidates=[rho])
        assert res.cert_gap <= CERT_TOL
        assert res.status == "NONCONVERGED"

    @pytest.mark.parametrize(
        "dims, seed", [(None, None), ((2, 2), 1), ((2, 2), 2), ((2, 2), 3), ((2, 3), 4), ((3, 3), 1)]
    )
    def test_bracket_holds_the_closed_form(self, dims, seed):
        # value - cert_gap <= E(rho(x)) <= value on the converse families.
        anchor = bell_cps_anchor() if seed is None else random_boundary_state(dims, seed)
        fam = _family(anchor)
        for frac in (0.25, 0.5, 0.9):
            x = frac * fam.x_max
            res = minimize_ree(fam.state(x), "PPT")
            exact = ree_closed_form(fam, x)
            assert res.status == "CONVERGED"
            assert res.value - res.cert_gap <= exact <= res.value + 1e-9


SHAPES = [(2, 2), (2, 3), (3, 3), (2, 4)]


def npt_draws(dims, count):
    rng = np.random.default_rng(0)
    draws = []
    while len(draws) < count:
        rho = random_state(dims, rng)
        if not is_ppt(rho):
            draws.append(rho)
    return draws


class TestVerifiersAgreeWithTheSolver:
    """One PASS rule: the public verifiers label every result as the solver does."""

    @staticmethod
    def check(rho, ep, rb):
        cps = verify_cps(rho, ep.sigma_hat, tol=CERT_TOL)
        assert cps.passed == (ep.status == "CONVERGED")
        if cps.passed and not cps.anchor_singular:
            assert cps.max_violation <= 1e-10
        rains = verify_rains_min(rho, rb.sigma_hat, tol=CERT_TOL)
        assert rains.passed == (rb.status == "CONVERGED")

    @pytest.mark.parametrize("dims", SHAPES)
    def test_npt_ginibre_draws(self, dims):
        for rho in npt_draws(dims, 10):
            ep = minimize_ree(rho, "PPT")
            rb = minimize_ree(rho, "RAINS_T", extra_candidates=[ep.sigma_hat])
            assert rb.status == "CONVERGED"
            assert rb.cert_gap <= 1e-10
            self.check(rho, ep, rb)

    def test_antisymmetric_werner(self, werner_solves):
        _, rho, ep, rb = werner_solves
        self.check(rho, ep, rb)


class TestNewton:
    @pytest.mark.parametrize("dims", SHAPES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_family_solve_is_certified_at_the_closed_form(self, dims, seed):
        fam = _family(random_boundary_state(dims, seed))
        x = fam.x_max / 2
        res = minimize_ree(fam.state(x), "PPT")
        exact = ree_closed_form(fam, x)
        assert res.status == "CONVERGED"
        assert res.cert_gap <= 1e-10
        assert res.newton_steps > 0
        assert abs(res.value - exact) <= 5e-12
        assert res.value >= exact - 1e-13
        assert np.linalg.eigvalsh(res.sigma_hat.pt.mat)[0] >= -1e-15

    @pytest.mark.parametrize("dims", SHAPES)
    def test_ginibre_solves_are_certified(self, dims):
        for rho in npt_draws(dims, 2):
            res = minimize_ree(rho, "PPT")
            assert res.status == "CONVERGED"
            assert res.cert_gap <= 1e-10
            assert res.newton_steps > 0
            assert np.linalg.eigvalsh(res.sigma_hat.pt.mat)[0] >= -1e-15

    @pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 3)])
    @pytest.mark.parametrize("set_tag", ["PPT", "RAINS_T"])
    def test_full_rank_solves_finish_in_newton_from_the_pool(self, dims, set_tag):
        # Newton runs at once from ρ's own point on the set, with no SPG
        # iteration before it.
        for rho in npt_draws(dims, 3):
            res = minimize_ree(rho, set_tag)
            assert res.status == "CONVERGED"
            assert res.iterations == 0
            assert res.cert_gap <= 1e-10

    def test_ppt_input_is_its_own_minimizer(self):
        # A PPT ρ is its own point in the pool. This one is singular, where
        # SPG alone stops short of the minimum 0.
        rho = project_P(random_state((2, 3), np.random.default_rng(1)))
        res = minimize_ree(rho, "PPT")
        assert res.status == "CONVERGED"
        assert abs(res.value) <= 1e-14
        assert np.array_equal(res.sigma_hat.mat, rho.mat)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4), (3, 3)])
    @pytest.mark.parametrize("set_tag", ["PPT", "RAINS_T"])
    def test_step_solves_the_linearized_system(self, dims, set_tag):
        # J[dσ] = -f for an arbitrary right-hand side, with J checked by
        # central differences of the residual F along dσ.
        rng = np.random.default_rng(5)
        rho = random_state(dims, rng).mat
        sigma = random_state(dims, rng).mat
        prox = _prox(set_tag)
        parts = _residual(_spectral(rho, sigma), dims, prox)[1]
        f = random_hermitian(dims, rng).mat
        d_sigma = _newton_step(parts, f, dims, prox)
        h = 1e-4 / np.linalg.norm(d_sigma)
        plus = _residual(_spectral(rho, sigma + h * d_sigma), dims, prox)[0]
        minus = _residual(_spectral(rho, sigma - h * d_sigma), dims, prox)[0]
        fd = (plus - minus) / (2 * h)
        assert np.linalg.norm(fd + f) <= 1e-6 * np.linalg.norm(f)

    def test_rains_solve_from_the_ree_minimizer_needs_no_spg(self):
        # Newton's first attempt comes at once from a warm start, and with a
        # qubit side the REE minimizer already solves the Rains system.
        rho = random_state((2, 3), np.random.default_rng(0))
        ep = minimize_ree(rho, "PPT")
        rb = minimize_ree(rho, "RAINS_T", extra_candidates=[ep.sigma_hat])
        assert rb.status == "CONVERGED"
        assert rb.cert_gap <= 1e-10
        assert (rb.iterations, rb.projection_iters) == (0, 0)

    def test_cached_basis_is_read_only(self):
        # Every Newton step of order n shares one basis; a write would corrupt them all.
        basis = _hermitian_basis(6)
        assert _hermitian_basis(6) is basis
        assert np.array_equal(_coords(basis), np.eye(36))
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 2.0

    def test_declined_newton_leaves_the_spg_result(self, monkeypatch):
        # A rank-1 state has a rank-deficient minimizer, outside the domain of
        # the log-domain system: Newton declines and SPG's result stands.
        rho = random_state((2, 2), np.random.default_rng(0), rank=1)
        attempts = []
        original = solver._newton

        def counted(*args):
            attempts.append(None)
            return original(*args)

        monkeypatch.setattr(solver, "_newton", counted)
        res = minimize_ree(rho, "PPT")
        assert 1 <= len(attempts) <= 2
        assert res.newton_steps == 0
        monkeypatch.setattr(solver, "_newton", lambda *args: None)
        spg = minimize_ree(rho, "PPT")
        assert np.array_equal(res.sigma_hat.mat, spg.sigma_hat.mat)
        assert (res.value, res.cert_gap, res.status, res.iterations) == (
            spg.value,
            spg.cert_gap,
            spg.status,
            spg.iterations,
        )
        assert res.objective_trace == spg.objective_trace


def shift_inputs():
    rho = random_state((2, 3), np.random.default_rng(0))
    w, v = rho.spectrum
    top = np.outer(v[:, -1], v[:, -1].conj())
    return {
        "not-psd": rho.mat - 2.0 * w[0] * np.outer(v[:, 0], v[:, 0].conj()) + 2.0 * w[0] * top,
        "npt": rho.mat,
        "off-trace": 1.1 * np.eye(6, dtype=complex) / 6,
        "outside-T": (1.0 + 1e-3) * rho.mat / trace_norm(rho.pt),
    }


class TestShiftFeasible:
    def test_ppt_point_lands_exactly_in_the_set(self):
        # Push the anchor's partial transpose below zero along its kernel.
        anchor = random_boundary_state((2, 3), 1)
        w, v = anchor.pt.spectrum
        kernel = partial_transpose_array(np.outer(v[:, 0], v[:, 0].conj()), (2, 3))
        x = anchor.mat - 1e-9 * kernel + 1e-9 * np.eye(6) / 6
        out, residual = _shift_feasible(x, (2, 3), "PPT")
        assert residual > 1e-12
        assert ppt_infeasibility(out, (2, 3)) <= 1e-15
        assert np.linalg.norm(out - x) <= 1e-8

    def test_rains_point_lands_exactly_in_the_set(self):
        rho = random_state((2, 3), np.random.default_rng(0))
        x = (1.0 + 1e-9) * rho.mat / trace_norm(rho.pt)
        out, residual = _shift_feasible(x, (2, 3), "RAINS_T")
        assert residual > 1e-12
        assert t_infeasibility(out, (2, 3)) <= 1e-15
        assert np.linalg.norm(out - x) <= 1e-8

    @pytest.mark.parametrize("set_tag", ["PPT", "RAINS_T"])
    def test_interior_point_is_left_alone(self, set_tag):
        x = np.eye(6, dtype=complex) / 6
        out, residual = _shift_feasible(x, (2, 3), set_tag)
        assert out is x
        assert residual <= 1e-15

    @pytest.mark.parametrize("kind", ["not-psd", "npt", "off-trace", "outside-T"])
    @pytest.mark.parametrize("set_tag", ["PPT", "RAINS_T"])
    def test_residual_matches_the_reference(self, kind, set_tag):
        x = shift_inputs()[kind]
        reference = (ppt_infeasibility if set_tag == "PPT" else t_infeasibility)(x, (2, 3))
        assert reference > 1e-4
        assert _shift_feasible(x, (2, 3), set_tag)[1] == pytest.approx(reference, rel=0, abs=1e-15)

    def test_rains_move_matches_a_fresh_trace_norm(self):
        # The mixture's ‖x^Γ‖₁ comes from x's own PT spectrum, shifted by ε.
        x = shift_inputs()["not-psd"]
        out, _ = _shift_feasible(x, (2, 3), "RAINS_T")
        assert np.linalg.eigvalsh(out)[0] >= -1e-15
        assert t_infeasibility(out, (2, 3)) <= 1e-15
        eps = -np.linalg.eigvalsh(x)[0]
        mixed = (x + eps * np.eye(6)) / (1.0 + 6 * eps)
        assert np.allclose(out, mixed / max(1.0, trace_norm(hermitian(mixed, (2, 3)).pt)), atol=1e-15)


class TestProjectionCount:
    @pytest.mark.parametrize("set_tag", ["PPT", "RAINS_T"])
    @pytest.mark.parametrize("kind", ["family", "ginibre"])
    def test_one_projection_per_iteration(self, monkeypatch, set_tag, kind):
        # Armijo backtracks along the projected segment, so a trial step
        # costs one objective evaluation and no projection. Newton would
        # finish the solve at its start before any SPG iteration, so it is
        # declined.
        monkeypatch.setattr(solver, "_newton", lambda *args: None)
        if kind == "family":
            fam = _family(random_boundary_state((2, 3), 1))
            rho = fam.state(fam.x_max / 2)
        else:
            rho = random_state((2, 3), np.random.default_rng(0))
            assert not is_ppt(rho)
        calls = []
        original = solver._project

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "_project", counted)
        res = minimize_ree(rho, set_tag)
        assert res.iterations > 2
        assert len(calls) == res.iterations


def ginibre_effect(dims, seed):
    n = dims[0] * dims[1]
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    effect = a @ a.conj().T
    return hermitian(effect / np.linalg.eigvalsh(effect)[-1], dims)


# Effects with their maxima over the Rains set, certified to 1e-10.
RAINS_MAXIMA = [
    pytest.param(lambda: ginibre_effect((2, 2), 3), 0.8041550063, id="ginibre-2x2"),
    pytest.param(
        lambda: support_projector(random_state((3, 3), np.random.default_rng(2), rank=2)),
        0.8883140106,
        id="support-3x3-rank2",
    ),
]


class TestMaximizeLinear:
    def test_identity_gives_one(self):
        res = maximize_linear(hermitian(np.eye(4), (2, 2)))
        assert res.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("set_tag", ["PPT", "RAINS_T"])
    def test_identity_stops_early(self, set_tag):
        res = maximize_linear(hermitian(np.eye(4), (2, 2)), set_tag=set_tag)
        assert res.iterations <= 2
        assert res.status == "CONVERGED"

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)], ids=["2x3", "3x3"])
    @pytest.mark.parametrize("scale", [0.0, 1.0])
    def test_constant_effect_keeps_the_maximally_mixed_state(self, scale, dims):
        # M = 0 and M = 1 leave every iterate within rounding of 1/n, where the
        # ray to the boundary is noise; σ̂ must stay the state 1/n.
        n = dims[0] * dims[1]
        res = maximize_linear(hermitian(scale * np.eye(n), dims))
        assert res.status == "CONVERGED"
        assert res.value == pytest.approx(scale, abs=1e-12)
        assert np.allclose(res.sigma_hat.mat, np.eye(n) / n, atol=1e-12)

    @pytest.mark.parametrize("set_tag", ["PPT", "RAINS_T"])
    @pytest.mark.parametrize("max_iters", [1, 2, 3, 5])
    def test_iteration_cap_is_nonconverged_with_valid_bracket(
        self, max_iters, set_tag, monkeypatch
    ):
        # Caps 2, 3 and 5 fall between scheduled certificates; the last
        # iteration is certified all the same.
        m = ginibre_effect((2, 2), 3)
        full = maximize_linear(m, set_tag=set_tag)
        calls = []
        original = solver.dual_bound

        def counted(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(solver, "dual_bound", counted)
        res = maximize_linear(m, SolverConfig(max_iters=max_iters), set_tag=set_tag)
        scheduled = set(range(1, max_iters + 1, solver.CERT_EVERY)) | {max_iters}
        assert len(calls) == len(scheduled)
        assert res.iterations == max_iters
        assert res.status == "NONCONVERGED"
        assert np.isfinite(res.gap) and res.gap >= 0.0
        assert res.value <= full.value + 1e-10
        assert res.value + res.gap >= full.value + full.gap - 1e-10

    @pytest.mark.parametrize("set_tag", ["PPT", "RAINS_T"])
    @pytest.mark.parametrize("dims, seed", [((3, 3), 11), ((2, 4), 38)], ids=["3x3-11", "2x4-38"])
    def test_slow_tail_effects_are_certified(self, dims, seed, set_tag):
        # Slow ADMM tails: at a fixed penalty of 1 both sets stop at the
        # 400-iteration cap with gaps of 4e-5 to 7e-5.
        res = maximize_linear(ginibre_effect(dims, seed), set_tag=set_tag)
        infeasibility = ppt_infeasibility if set_tag == "PPT" else t_infeasibility
        assert res.status == "CONVERGED"
        assert res.gap <= solver.GAP_STOP
        assert infeasibility(res.sigma_hat.mat, dims) <= solver.TOL_FEAS
        assert res.iterations < 200

    @pytest.mark.parametrize("make_m, expected", RAINS_MAXIMA)
    def test_rains_result_is_feasible_and_certified(self, make_m, expected):
        m = make_m()
        res = maximize_linear(m, set_tag="RAINS_T")
        assert t_infeasibility(res.sigma_hat.mat, m.dims) <= solver.TOL_FEAS
        assert 0.0 <= res.gap <= 1e-6
        assert res.value <= 1.0
        assert res.value == pytest.approx(expected, abs=1e-9)
        assert res.status == "CONVERGED"

    @pytest.mark.parametrize(
        "m",
        [ginibre_effect((2, 2), 3), ginibre_effect((2, 3), 4), ginibre_effect((3, 3), 5)],
        ids=["2x2", "2x3", "3x3"],
    )
    def test_ppt_result_is_feasible_and_certified(self, m):
        res = maximize_linear(m)
        assert ppt_infeasibility(res.sigma_hat.mat, m.dims) <= solver.TOL_FEAS
        assert 0.0 <= res.gap <= 1e-6
        assert res.status == "CONVERGED"
        assert res.certificate is not None

    def test_pure_product_projector_gives_one(self):
        ket = np.zeros(4)
        ket[0] = 1.0
        res = maximize_linear(hermitian(np.outer(ket, ket), (2, 2)))
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_bell_projector_gives_half(self):
        res = maximize_linear(bell_state())
        assert res.value == pytest.approx(0.5, abs=1e-5)
        assert res.status == "CONVERGED"
        assert res.certificate is not None
        assert res.certificate.anchor_value == pytest.approx(1.0, abs=1e-9)

    def test_boundary_certificate_attached(self):
        # The ADMM iterate ends a rounding error outside the PPT set; the ray to
        # the boundary still gives an anchor and its supporting functional.
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        effect = a @ a.conj().T
        for m in (
            random_state((2, 3), np.random.default_rng(0), rank=1),
            hermitian(effect / np.linalg.eigvalsh(effect)[-1], (2, 2)),
        ):
            res = maximize_linear(m)
            assert res.certificate is not None
            assert res.certificate.anchor_value == pytest.approx(1.0, abs=1e-9)

    def test_rejects_out_of_range_m(self):
        with pytest.raises(PreconditionError):
            maximize_linear(hermitian(2.0 * np.eye(4), (2, 2)))
