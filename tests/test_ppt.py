import numpy as np
import pytest

from entbound import (
    PreconditionError,
    functional_from_json_dict,
    functional_to_json_dict,
    hermitian,
    is_boundary_of_P,
    is_ppt,
    ppt_functional,
    random_boundary_state,
    random_state,
    support_projector,
    trace_inner_product,
)
from entbound.linalg import partial_transpose_array
from entbound.ppt import dual_bound, pt_zero_subspace
from samplers import sample_T, sample_ppt_states
from conftest import bell_cps_anchor, bell_state


class TestIsPpt:
    def test_product_state(self, rng):
        a = random_state((2, 1), rng).mat
        b = random_state((2, 1), rng).mat
        assert is_ppt(hermitian(np.kron(a, b), (2, 2)))

    def test_bell_is_not(self):
        assert not is_ppt(bell_state())

    def test_maximally_mixed(self):
        assert is_ppt(hermitian(np.eye(4) / 4, (2, 2)))


class TestBoundary:
    def test_interior_point(self):
        assert not is_boundary_of_P(hermitian(np.eye(4) / 4, (2, 2)))

    def test_tuned_mixture_on_boundary(self):
        # Bisect t in (1-t) I/4 + t Bell until the PT spectrum touches zero.
        eye = np.eye(4) / 4
        bell = bell_state().mat

        def pt_min(t):
            m = hermitian((1 - t) * eye + t * bell, (2, 2))
            return np.linalg.eigvalsh(m.pt.mat)[0]

        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if pt_min(mid) > 0:
                lo = mid
            else:
                hi = mid
        state = hermitian((1 - lo) * eye + lo * bell, (2, 2))
        assert is_boundary_of_P(state)
        assert lo == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_pure_product_is_boundary(self):
        ket = np.zeros(4)
        ket[0] = 1.0
        assert is_boundary_of_P(hermitian(np.outer(ket, ket), (2, 2)))

    def test_non_ppt_rejected(self):
        with pytest.raises(PreconditionError):
            is_boundary_of_P(bell_state())


class TestPptFunctional:
    def test_bell_anchor_analytic(self):
        # For P/2 + (1-P)/6 the zero eigenvector of the PT is the singlet and
        # the normalized functional is 1/2 + P.
        anchor = bell_cps_anchor()
        f = ppt_functional(anchor)
        expected = np.eye(4) / 2 + bell_state().mat
        assert np.linalg.norm(f.phi.mat - expected) < 1e-9
        assert f.anchor_value == pytest.approx(1.0, abs=1e-9)

    def test_anchor_equality_and_battery(self, rng):
        for seed in (0, 1):
            for dims in ((2, 2), (2, 3)):
                sigma = random_boundary_state(dims, seed)
                f = ppt_functional(sigma)
                assert f.anchor_value == pytest.approx(1.0, abs=1e-9)
                batch = sample_ppt_states(dims, 1000, rng)
                vals = np.einsum("ij,kji->k", f.phi.mat, batch).real
                assert np.max(vals) <= 1.0 + 1e-10

    def test_normalization(self, rng):
        sigma = random_boundary_state((2, 2), 7)
        f = ppt_functional(sigma)
        p = support_projector(sigma)
        diff = hermitian(p.mat - f.phi.mat, (2, 2))
        assert trace_inner_product(diff, diff) == pytest.approx(1.0, abs=1e-9)

    def test_coefficient_scale_invariance(self):
        sigma = random_boundary_state((2, 2), 3)
        m = pt_zero_subspace(sigma).shape[1]
        f1 = ppt_functional(sigma, np.ones(m))
        f7 = ppt_functional(sigma, 7.0 * np.ones(m))
        assert np.linalg.norm(f1.phi.mat - f7.phi.mat) < 1e-12

    def test_three_eigendecompositions(self, monkeypatch):
        # One for σ*, one for σ*^Γ and one for the m×m kernel block of the
        # form check: every later read hits the cached spectra.
        sigma = random_boundary_state((2, 3), 1)
        sigma = hermitian(sigma.mat, sigma.dims)
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(None)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        ppt_functional(sigma)
        assert len(calls) == 3

    def test_zero_coefficients_rejected(self):
        sigma = random_boundary_state((2, 2), 3)
        m = pt_zero_subspace(sigma).shape[1]
        with pytest.raises(PreconditionError):
            ppt_functional(sigma, np.zeros(m))

    def test_interior_anchor_rejected(self):
        with pytest.raises(PreconditionError):
            ppt_functional(hermitian(np.eye(4) / 4, (2, 2)))

    def test_json_roundtrip(self):
        sigma = random_boundary_state((2, 3), 5)
        f = ppt_functional(sigma)
        f2 = functional_from_json_dict(functional_to_json_dict(f))
        assert np.array_equal(f2.phi.mat, f.phi.mat)
        assert f2.set_tag == "PPT"
        assert np.array_equal(f2.anchor.mat, f.anchor.mat)


class TestRandomBoundaryState:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_postcondition(self, dims):
        sigma = random_boundary_state(dims, 1)
        assert is_boundary_of_P(sigma)
        pt_min = np.linalg.eigvalsh(sigma.pt.mat)[0]
        assert 0.0 <= pt_min <= 1e-10

    def test_deterministic(self):
        a = random_boundary_state((2, 2), 42)
        b = random_boundary_state((2, 2), 42)
        assert np.array_equal(a.mat, b.mat)

    def test_full_rank_with_singular_pt(self):
        sigma = random_boundary_state((2, 2), 1)
        assert np.linalg.eigvalsh(sigma.mat)[0] > 1e-6
        assert np.linalg.eigvalsh(sigma.pt.mat)[0] <= 1e-10


class TestSamplePpt:
    def test_all_samples_feasible(self, rng):
        for dims in ((2, 2), (3, 3)):
            batch = sample_ppt_states(dims, 200, rng)
            n1, n2 = dims
            n = n1 * n2
            for s in batch:
                assert abs(np.trace(s).real - 1.0) < 1e-9
                assert np.linalg.eigvalsh(s)[0] > -1e-12
                pt = s.reshape(n1, n2, n1, n2).transpose(0, 3, 2, 1).reshape(n, n)
                assert np.linalg.eigvalsh(pt)[0] > -1e-10


def _random_hermitian_array(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


class TestDualBound:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_bounds_the_ppt_batch(self, dims, rng):
        n = dims[0] * dims[1]
        batch = sample_ppt_states(dims, 500, rng)
        for _ in range(5):
            phi = _random_hermitian_array(n, rng)
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = rng.uniform() * g @ g.conj().T
            best = float(np.max(np.einsum("ij,kji->k", phi, batch).real))
            assert dual_bound(phi, dims, "PPT", b) >= best - 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_bounds_the_rains_batch(self, dims, rng):
        n = dims[0] * dims[1]
        batch = sample_T(dims, 500, rng)
        for _ in range(5):
            phi = _random_hermitian_array(n, rng)
            b = _random_hermitian_array(n, rng)
            best = float(np.max(np.einsum("ij,kji->k", phi, batch).real))
            assert dual_bound(phi, dims, "RAINS_T", b) >= best - 1e-12

    @pytest.mark.parametrize("shift", [0.0, -10.0])
    def test_reproduces_the_closed_forms(self, shift, rng):
        dims = (2, 3)
        phi = _random_hermitian_array(6, rng) + shift * np.eye(6)
        phi_pt = partial_transpose_array(phi, dims)
        zero = np.zeros_like(phi)
        lam = float(np.linalg.eigvalsh(phi)[-1])
        assert dual_bound(phi, dims, "PPT", zero) == pytest.approx(lam, abs=1e-12)
        assert dual_bound(phi, dims, "RAINS_T", phi_pt) == pytest.approx(
            float(np.max(np.abs(np.linalg.eigvalsh(phi_pt)))), abs=1e-12
        )
        assert dual_bound(phi, dims, "RAINS_T", zero) == pytest.approx(max(lam, 0.0), abs=1e-12)

    def test_unknown_set_rejected(self):
        with pytest.raises(PreconditionError):
            dual_bound(np.eye(4), (2, 2), "SEP", np.zeros((4, 4)))
