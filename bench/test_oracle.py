"""The oracle against results known independently of entbound.

Run with ``python3 -m pytest bench/test_oracle.py``.
"""

import numpy as np
import pytest

import oracle

DIMS = ((2, 2), (2, 3), (2, 4), (3, 3))


def isotropic_state(d: int, fidelity: float) -> np.ndarray:
    """F·|Φ⟩⟨Φ| + (1-F)·(1 - |Φ⟩⟨Φ|)/(d²-1), with |Φ⟩ maximally entangled."""
    phi = np.eye(d).reshape(d * d) / np.sqrt(d)
    p = np.outer(phi, phi)
    return fidelity * p + (1 - fidelity) * (np.eye(d * d) - p) / (d * d - 1)


def isotropic_ree(d: int, fidelity: float) -> float:
    """Closed-form REE of the isotropic state for F ≥ 1/d."""
    f = fidelity
    return float(np.log(d) + f * np.log(f) + (1 - f) * np.log((1 - f) / (d - 1)))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("fidelity", [0.6, 0.75, 0.9, 0.99])
def test_isotropic_ree_closed_form(d, fidelity):
    # The closest PPT state of an isotropic state with F > 1/d is the
    # isotropic state at F = 1/d (Rains 1999; Vedral & Plenio 1998).
    rho = isotropic_state(d, fidelity)
    sigma = isotropic_state(d, 1.0 / d)
    assert oracle.relative_entropy(rho, sigma) == pytest.approx(
        isotropic_ree(d, fidelity), abs=1e-12
    )


@pytest.mark.parametrize("d", [2, 3])
def test_isotropic_boundary_state(d):
    sigma = isotropic_state(d, 1.0 / d)
    assert 0.0 <= oracle.min_pt_eig(sigma, (d, d)) + 1e-15
    assert oracle.min_pt_eig(sigma, (d, d)) <= 1e-12
    assert oracle.pt_kernel(sigma, (d, d)).shape[1] == d * (d - 1) // 2


def test_bell_state_ree_is_log2():
    bell = isotropic_state(2, 1.0)
    sigma = isotropic_state(2, 0.5)
    assert oracle.relative_entropy(bell, sigma) == pytest.approx(np.log(2), abs=1e-12)
    assert oracle.log_negativity(bell, (2, 2)) == pytest.approx(np.log(2), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_isotropic_family_recovers_closed_form(d):
    # The converse family at the isotropic boundary state stays isotropic,
    # and its exact REE S(rho(x) || sigma*) is the isotropic closed form.
    dims = (d, d)
    sigma = isotropic_state(d, 1.0 / d)
    direction = oracle.family_direction(sigma, dims)
    phi = np.eye(d).reshape(d * d) / np.sqrt(d)
    x_max = oracle.family_x_max(sigma, direction)
    for x in (0.25 * x_max, 0.5 * x_max, x_max):
        rho = oracle.family_state(sigma, direction, x)
        fidelity = float(np.vdot(phi, rho @ phi).real)
        np.testing.assert_allclose(rho, isotropic_state(d, fidelity), atol=1e-12)
        assert oracle.relative_entropy(rho, sigma) == pytest.approx(
            isotropic_ree(d, fidelity), abs=1e-12
        )


def test_log_derivative_pinv_inverts_finite_difference():
    rng = np.random.default_rng(5)
    sigma = oracle.ginibre_state(6, rng)
    x = oracle.herm(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))

    def logm(a):
        w, v = np.linalg.eigh(a)
        return (v * np.log(w)) @ v.conj().T

    h = 1e-6
    y = oracle.log_derivative_pinv(sigma, x)
    derivative = (logm(sigma + h * y) - logm(sigma - h * y)) / (2 * h)
    np.testing.assert_allclose(derivative, x, atol=1e-6)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_seesaw_recovers_largest_squared_schmidt_coefficient(dims):
    rng = np.random.default_rng(7)
    for _ in range(5):
        psi = oracle.random_ket(dims[0] * dims[1], rng)
        m = np.outer(psi, psi.conj())
        assert oracle.seesaw_max(m, dims, rng) == pytest.approx(
            oracle.schmidt_max_sq(psi, dims), abs=1e-12
        )


def test_schmidt_coefficient_of_product_and_bell():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0])
    assert oracle.schmidt_max_sq(np.kron(a, b), (2, 3)) == pytest.approx(1.0)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert oracle.schmidt_max_sq(bell, (2, 2)) == pytest.approx(0.5)


@pytest.mark.parametrize("dims", DIMS)
def test_boundary_anchors_touch_the_ppt_boundary(dims):
    rng = np.random.default_rng(11)
    n = dims[0] * dims[1]
    for _ in range(5):
        anchor = oracle.boundary_anchor(dims, rng)
        assert 0.0 <= oracle.min_pt_eig(anchor, dims) <= 1e-12
        assert np.trace(anchor).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(anchor)[0] > 0.0
        assert oracle.pt_kernel(anchor, dims).shape == (n, 1)


@pytest.mark.parametrize("dims", DIMS)
def test_family_functional_supports_the_ppt_set(dims):
    # Tr[phi sigma*] = 1, and Tr[phi tau] <= 1 on pure product states, which
    # are PPT; rho(x_max) is a state on the PSD boundary. Its trace is
    # 1 - x_max * min eig(sigma*^Gamma), within 1e-11 of one.
    rng = np.random.default_rng(13)
    anchor = oracle.boundary_anchor(dims, rng)
    phi = oracle.supporting_functional(anchor, dims)
    assert np.vdot(phi, anchor).real == pytest.approx(1.0, abs=1e-12)
    for _ in range(200):
        ab = np.kron(oracle.random_ket(dims[0], rng), oracle.random_ket(dims[1], rng))
        assert np.vdot(ab, phi @ ab).real <= 1.0 + 1e-12
    direction = oracle.family_direction(anchor, dims)
    rho = oracle.family_state(anchor, direction, oracle.family_x_max(anchor, direction))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-11)
    assert -1e-12 <= np.linalg.eigvalsh(rho)[0] <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_effects_lie_between_zero_and_one(dims):
    rng = np.random.default_rng(17)
    w = np.linalg.eigvalsh(oracle.random_effect(dims[0] * dims[1], rng))
    assert 0.0 <= w[0] and w[-1] <= 1.0


def test_hashing_bound_of_bell_state_is_log2():
    bell = isotropic_state(2, 1.0)
    assert oracle.hashing_bound(bell, (2, 2)) == pytest.approx(np.log(2), abs=1e-12)
    assert oracle.hashing_bound(np.eye(6) / 6, (2, 3)) == 0.0
