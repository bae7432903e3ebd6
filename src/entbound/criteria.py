"""Converse constructions and supporting-functional builders beyond the log case.

`general_converse` (ρ = D‡_{g,σ*}(φ), refused unless PSD) backs the Rains and
Renyi converses; `_log_closed_form` backs the REE and Rains closed forms.

Every builder returns a matrix φ in the single repo-wide orientation:
maximizing Tr[φσ] over the constraint set characterizes optimality of the
anchor (Tr[φσ] ≤ Tr[φσ*]), equivalently the directional derivative of the
divergence at σ* toward σ has sign opposite to Tr[φ(σ - σ*)]. For the Renyi
quantities with α < 1 the prefactor 1/(α-1) is negative, so honoring this
orientation flips the sign relative to the raw trace-term derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .divergences import _check_positive, von_neumann_entropy, xlogx
from .frechet import (
    ScalarFunction,
    build_kernel,
    converse_image,
    frechet_apply,
    matrix_function,
    power_fn,
)
from .linalg import HermitianMatrix, hermitian, min_eigenvalue, trace_inner_product
from .ppt import SupportingFunctional


@dataclass(frozen=True)
class ConverseOutcome:
    """Recovered matrix ρ = D‡_{g,σ*}(φ), or a named refusal."""

    rho: HermitianMatrix | None
    refusal: str | None

    @property
    def accepted(self) -> bool:
        return self.rho is not None


def general_converse(
    g: ScalarFunction,
    sigma_star: HermitianMatrix,
    functional: SupportingFunctional | HermitianMatrix,
) -> ConverseOutcome:
    """Invert the supporting-functional map: ρ = D‡_{g,σ*}(φ) when PSD.

    `frechet.converse_image` raises unless the kernel is invertible (g'
    nonzero on the in-domain eigenvalues of σ*) and φ is supported where it
    acts. Refuses when the recovered matrix is not PSD.
    """
    phi = functional.phi if isinstance(functional, SupportingFunctional) else functional
    rho = converse_image(build_kernel(g, sigma_star), phi)
    if min_eigenvalue(rho) < -1e-10:
        return ConverseOutcome(rho=None, refusal="D‡(phi) not PSD — no matrix minimized here")
    return ConverseOutcome(rho=rho, refusal=None)


def _log_closed_form(rho: HermitianMatrix, phi: HermitianMatrix, anchor: HermitianMatrix) -> float:
    """-S(ρ) - Tr[φ·σ* log σ*]: S(ρ‖σ*) when σ* minimizes it for ρ via φ."""
    return -von_neumann_entropy(rho) - trace_inner_product(phi, xlogx(anchor))


def quasi_functional(
    f: ScalarFunction, rho: HermitianMatrix, sigma_star: HermitianMatrix
) -> HermitianMatrix:
    """Supporting functional for the quasi f-relative entropy (f operator convex).

    φ = -Σ_i D_{f, σ*/p_i}(|ψ_i⟩⟨ψ_i|) over the spectral decomposition of ρ;
    for f = -log this is L_σ*(ρ), the relative-entropy hyperplane.
    """
    _check_positive(rho, "rho")
    _check_positive(sigma_star, "sigma*")
    p, v = rho.spectrum
    acc = np.zeros_like(rho.mat)
    for i in range(p.size):
        anchor = hermitian(sigma_star.mat / p[i], sigma_star.dims)
        kernel = build_kernel(f, anchor)
        proj = hermitian(np.outer(v[:, i], v[:, i].conj()), rho.dims)
        acc += frechet_apply(kernel, proj).mat
    return hermitian(-acc, rho.dims)


def renyi_functional(
    alpha: float, rho: HermitianMatrix, sigma_star: HermitianMatrix
) -> HermitianMatrix:
    """Supporting functional for the α-relative Renyi entropy, α in (0, 1).

    φ = D_{x^(1-α), σ*}(ρ^α). Minimizing the Renyi entropy means maximizing
    Tr[ρ^α σ^(1-α)] (the 1/(α-1) prefactor is negative), so the gradient of
    the trace term itself is the maximized functional; the inverse map
    recovers ρ = (D‡(φ))^(1/α).
    """
    if not 0.0 < alpha < 1.0:
        raise PreconditionError(f"alpha must lie in (0, 1), got {alpha}")
    _check_positive(rho, "rho")
    _check_positive(sigma_star, "sigma*")
    kernel = build_kernel(power_fn(1.0 - alpha), sigma_star)
    rho_alpha = matrix_function(power_fn(alpha), rho)
    return frechet_apply(kernel, rho_alpha)


def renyi_converse(
    alpha: float, sigma_star: HermitianMatrix, phi: HermitianMatrix
) -> HermitianMatrix:
    """Invert ``renyi_functional``: ρ = (`general_converse` of x^(1-α) at σ*)^(1/α)."""
    if not 0.0 < alpha < 1.0:
        raise PreconditionError(f"alpha must lie in (0, 1), got {alpha}")
    out = general_converse(power_fn(1.0 - alpha), sigma_star, phi)
    if not out.accepted:
        raise PreconditionError("D‡(phi) is not PSD; no state corresponds to phi")
    w, v = out.rho.spectrum
    w = np.clip(w, 0.0, None)
    return hermitian((v * np.power(w, 1.0 / alpha)) @ v.conj().T, sigma_star.dims)


def sandwiched_functional(
    alpha: float, rho: HermitianMatrix, sigma_star: HermitianMatrix
) -> HermitianMatrix:
    """First-order supporting functional for the sandwiched Renyi divergence.

    With β = (1-α)/(2α) and X = (σ*^β ρ σ*^β)^α,
    φ = D_{x^β, σ*}({σ*^(-β), X}), the gradient of the sandwiched trace term
    (maximized at σ* for α in [1/2, 1)). This certifies stationarity of the
    trace term only, not a global converse.
    """
    if not 0.5 <= alpha < 1.0:
        raise PreconditionError(f"alpha must lie in [1/2, 1), got {alpha}")
    _check_positive(rho, "rho")
    _check_positive(sigma_star, "sigma*")
    beta = (1.0 - alpha) / (2.0 * alpha)
    w, v = sigma_star.spectrum
    s_beta = (v * np.power(w, beta)) @ v.conj().T
    s_neg_beta = (v * np.power(w, -beta)) @ v.conj().T
    x = s_beta @ rho.mat @ s_beta
    xw, xv = np.linalg.eigh((x + x.conj().T) / 2)
    x_alpha = (xv * np.power(np.clip(xw, 0.0, None), alpha)) @ xv.conj().T
    anti = s_neg_beta @ x_alpha + x_alpha @ s_neg_beta
    kernel = build_kernel(power_fn(beta), sigma_star)
    return frechet_apply(kernel, hermitian(anti, sigma_star.dims))
