"""Converse relative-entropy-of-entanglement problem.

Given a boundary state σ* of the PPT set and a supporting functional φ
anchored there, every state of the family

    ρ(x) = (1 - x) σ* + x L‡_σ*(φ),    x in (0, x_max],

has σ* as its closest PPT state (for singular σ* the statement is sufficient
only and x_max is capped at 1). The relative entropy of entanglement of a
family member then has the closed form

    E(ρ(x)) = -S(ρ(x)) - Tr[φ(x) σ* log σ*],  φ(x) = (1 - x) P_σ* + x φ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .criteria import _log_closed_form
from .frechet import build_kernel, converse_image, log_fn
from .linalg import HermitianMatrix, frobenius_norm, hermitian, min_eigenvalue, to_json_dict
from .ppt import (
    MinimalityCertificate,
    SupportingFunctional,
    functional_from_json_dict,
    functional_to_json_dict,
    verify_minimum,
)

X_MAX_CAP = 1e6


@dataclass(frozen=True)
class StateFamily:
    """Family ρ(x) = (1-x) σ* + x direction with σ* as closest PPT state."""

    sigma_star: HermitianMatrix
    functional: SupportingFunctional
    direction: HermitianMatrix  # L‡_σ*(φ)
    x_max: float
    singular_cap_applied: bool
    direction_psd: bool
    _support: HermitianMatrix = field(compare=False, repr=False)  # P_σ*, from the kernel's mask
    # ρ(x) by x, so that every caller of one member shares its cached spectrum;
    # a racing first use only builds the same value twice.
    _states: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def state(self, x: float) -> HermitianMatrix:
        rho_x = self._states.get(x)
        if rho_x is None:
            rho_x = self._states[x] = hermitian(
                (1.0 - x) * self.sigma_star.mat + x * self.direction.mat,
                self.sigma_star.dims,
            )
        return rho_x


def family_to_json_dict(fam: StateFamily) -> dict:
    return {
        "sigma_star": to_json_dict(fam.sigma_star),
        "phi": functional_to_json_dict(fam.functional),
        "x_max": fam.x_max,
        "singular_cap_applied": fam.singular_cap_applied,
    }


def family_from_json_dict(d: dict) -> StateFamily:
    functional = functional_from_json_dict(d["phi"])
    return build_family(functional.anchor, functional)


def _check_anchored(sigma_star: HermitianMatrix, functional: SupportingFunctional) -> None:
    if functional.anchor.dims != sigma_star.dims or (
        frobenius_norm(functional.anchor - sigma_star) > 1e-9
    ):
        raise PreconditionError("functional is anchored elsewhere")


def build_family(
    sigma_star: HermitianMatrix, functional: SupportingFunctional
) -> StateFamily:
    """Construct the family of states minimized by σ*.

    The direction is L‡_σ*(φ); x_max = 1/λmax(S(σ* - L‡_σ*(φ))S), where S is
    the pseudo-inverse square root of σ*, or X_MAX_CAP when ρ(x) stays PSD
    that far. A singular anchor requires φ supported inside supp σ* (else
    `frechet.converse_image` raises `SupportViolationError`) and caps x_max
    at 1.
    """
    _check_anchored(sigma_star, functional)
    if functional.set_tag != "PPT":
        raise PreconditionError("family construction needs a PPT-set functional")

    kernel = build_kernel(log_fn(), sigma_star)
    direction = converse_image(kernel, functional.phi)
    direction_psd = min_eigenvalue(direction) >= -1e-10

    # With S = σ*^{-1/2} on supp σ* (where D = L‡(φ) lives) and M = P - SDS,
    # ρ(x) = σ*^{1/2} (P - xM) σ*^{1/2}, which is PSD exactly for x·λmax(M) <= 1.
    w = kernel.basis.eigenvalues[kernel.mask]
    v = kernel.basis.eigenvectors[:, kernel.mask] / np.sqrt(w)
    lam = 1.0 - float(np.linalg.eigvalsh(v.conj().T @ direction.mat @ v)[0])
    x_max = 1.0 / lam if lam > 1.0 / X_MAX_CAP else X_MAX_CAP

    cap_applied = not kernel.mask.all()
    if cap_applied:
        x_max = min(1.0, x_max)

    fam = StateFamily(
        sigma_star=sigma_star,
        functional=functional,
        direction=direction,
        x_max=x_max,
        singular_cap_applied=cap_applied,
        direction_psd=direction_psd,
        _support=kernel.support_projector(),
    )
    # ρ(0) = σ*; trace is affine and PSD-ness convex, so the two ends of the
    # segment vouch for every point between them.
    for x, rho_x in ((0.0, sigma_star), (x_max, fam.state(x_max))):
        if abs(rho_x.trace() - 1.0) > 1e-9:
            raise PreconditionError(f"trace broke along the family at x={x}")
        if min_eigenvalue(rho_x) < -1e-9:
            raise PreconditionError(f"rho(x) not PSD at x={x}")
    return fam


def ree_closed_form(family: StateFamily, x: float) -> float:
    """Closed-form E(ρ(x)) = -S(ρ(x)) - Tr[φ(x) σ* log σ*].

    φ(x) = (1-x)·1 + x·φ, with the identity replaced by P_σ* on singular
    anchors since everything lives on the support there.
    """
    if not 0.0 < x <= family.x_max + 1e-12:
        raise PreconditionError(f"x={x} outside (0, x_max={family.x_max}]")
    rho_x = family.state(x)
    phi_x = hermitian(
        (1.0 - x) * family._support.mat + x * family.functional.phi.mat, family.sigma_star.dims
    )
    return _log_closed_form(rho_x, phi_x, family.sigma_star)


def verify_cps(
    rho: HermitianMatrix,
    sigma_star: HermitianMatrix,
    tol: float = 1e-8,
) -> MinimalityCertificate:
    """Check that σ* is the closest PPT state to ρ: `ppt.verify_minimum` on the PPT set."""
    return verify_minimum(rho, sigma_star, "PPT", tol)


@dataclass(frozen=True)
class AdditivityReport:
    """Residuals of the two sufficient conditions for weak additivity."""

    commutator_norm: float
    condition_two_available: bool
    max_eig_minus_one: float | None
    min_eig_minus_one: float | None
    passed: bool


def additivity_check(
    sigma_star: HermitianMatrix,
    functional: SupportingFunctional,
    tol: float = 1e-8,
) -> AdditivityReport:
    """Report the commuting-pair sufficient conditions for weak additivity.

    Condition (i): [φ, σ*] = 0, reported as the Frobenius norm of the
    commutator. Condition (ii): (L‡_σ*(φ) σ*⁻¹)^Γ ⪯ 1, reported through the
    extreme eigenvalues of the Hermitian part of that matrix minus one (it is
    exactly Hermitian in the commuting case the condition is meant for).
    Condition (ii) needs a full-rank anchor; the report says when it is
    unavailable. PASS requires both residuals within ``tol``.
    """
    _check_anchored(sigma_star, functional)
    phi = functional.phi
    comm = np.linalg.norm(phi.mat @ sigma_star.mat - sigma_star.mat @ phi.mat)

    kernel = build_kernel(log_fn(), sigma_star)
    if not kernel.mask.all():
        return AdditivityReport(
            commutator_norm=float(comm),
            condition_two_available=False,
            max_eig_minus_one=None,
            min_eig_minus_one=None,
            passed=False,
        )

    direction = converse_image(kernel, phi)
    sigma_inv = np.linalg.inv(sigma_star.mat)
    prod = direction.mat @ sigma_inv
    prod_h = hermitian((prod + prod.conj().T) / 2, sigma_star.dims)
    w = prod_h.pt.spectrum.eigenvalues
    max_minus = float(w[-1] - 1.0)
    min_minus = float(w[0] - 1.0)
    passed = comm <= tol and max_minus <= tol
    return AdditivityReport(
        commutator_norm=float(comm),
        condition_two_available=True,
        max_eig_minus_one=max_minus,
        min_eig_minus_one=min_minus,
        passed=passed,
    )
