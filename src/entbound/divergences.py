"""Divergences: relative entropy (extended), entropy, negativity, Renyi zoo.

All logarithms are natural; the CLI offers a bits flag that divides by log 2.
Extended values are represented by ``math.inf``: a finite float carries the
value, ``inf`` flags divergence, never both.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotAStateError, NotPSDError, PreconditionError
from .frechet import ScalarFunction
from .linalg import HermitianMatrix, hermitian, min_eigenvalue, trace_norm

# A direction |ψ⟩ counts as outside the support of σ when ⟨ψ|σ|ψ⟩ < 1e-11;
# relative entropy diverges if ρ puts more than 1e-11 weight there.
SUPPORT_ATOL = 1e-11


def _check_psd(a: HermitianMatrix, name: str) -> np.ndarray:
    w = a.spectrum.eigenvalues
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    if w[0] < -1e-9 * scale:
        raise NotPSDError(f"{name} must be PSD (min eig {w[0]:.3e})")
    return w


def _check_state(rho: HermitianMatrix, name: str = "rho") -> None:
    _check_psd(rho, name)
    if abs(rho.trace() - 1.0) > 1e-9:
        raise NotAStateError(f"{name} must have unit trace (got {rho.trace():.12f})")


def _check_positive(a: HermitianMatrix, name: str) -> None:
    lam = min_eigenvalue(a)
    if lam <= 1e-12:
        raise PreconditionError(f"{name} must be strictly positive (min eig {lam:.3e})")


def _trace_xlogx(a: HermitianMatrix) -> float:
    """Tr[A log A] of a PSD matrix from its clipped spectrum, with 0 log 0 = 0."""
    p = np.clip(a.spectrum.eigenvalues, 0.0, None)
    p = p[p > 1e-18]
    return float(np.sum(p * np.log(p)))


def xlogx(a: HermitianMatrix) -> HermitianMatrix:
    """A log A on the support of a PSD matrix, with 0 log 0 = 0."""
    w, v = a.spectrum
    vals = np.where(w > SUPPORT_ATOL, w * np.log(np.where(w > SUPPORT_ATOL, w, 1.0)), 0.0)
    return hermitian((v * vals) @ v.conj().T, a.dims)


def von_neumann_entropy(rho: HermitianMatrix) -> float:
    """-Tr[ρ log ρ] for a unit-trace PSD matrix, natural log."""
    _check_state(rho)
    return -_trace_xlogx(rho)


def relative_entropy(rho: HermitianMatrix, sigma: HermitianMatrix) -> float:
    """Tr[ρ(log ρ - log σ)] on the joint support; +inf off-support.

    Finite exactly when ρ is (numerically) zero outside the support of σ.
    Inputs need only be PSD; subnormalized σ is allowed.
    """
    _check_psd(rho, "rho")
    _check_psd(sigma, "sigma")
    ws, vs = sigma.spectrum
    rho_diag = np.einsum("ij,jk,ki->i", vs.conj().T, rho.mat, vs).real
    off = ws < SUPPORT_ATOL
    if np.any(rho_diag[off] > SUPPORT_ATOL):
        return math.inf
    tr_rho_log_sigma = float(np.sum(rho_diag[~off] * np.log(ws[~off])))
    return _trace_xlogx(rho) - tr_rho_log_sigma


def log_negativity(sigma: HermitianMatrix) -> float:
    """log of the trace norm of the partial transpose; 0 on PPT states."""
    _check_psd(sigma, "sigma")
    return float(np.log(trace_norm(sigma.pt)))


def quasi_f_relative_entropy(
    f: ScalarFunction, rho: HermitianMatrix, sigma: HermitianMatrix
) -> float:
    """Σ_i p_i ⟨ψ_i| f(σ / p_i) |ψ_i⟩ over the spectral decomposition of ρ.

    Both arguments must be strictly positive so every σ/p_i stays inside the
    domain of f.
    """
    _check_positive(rho, "rho")
    _check_positive(sigma, "sigma")
    p, vr = rho.spectrum
    s, vsig = sigma.spectrum
    overlap = np.abs(vr.conj().T @ vsig) ** 2  # overlap[i, j] = |⟨ψ_i|χ_j⟩|²
    ratios = s[None, :] / p[:, None]
    vals = np.asarray(f.fn(ratios), dtype=float)
    return float(np.sum(p[:, None] * vals * overlap))


def _power(a: HermitianMatrix, exponent: float) -> np.ndarray:
    w, v = a.spectrum
    return (v * np.power(w, exponent)) @ v.conj().T


def renyi_relative_entropy(
    alpha: float, rho: HermitianMatrix, sigma: HermitianMatrix
) -> float:
    """(α-1)⁻¹ log Tr[ρ^α σ^(1-α)] for α in (0, 1), the jointly convex window."""
    if not 0.0 < alpha < 1.0:
        raise PreconditionError(f"alpha must lie in (0, 1), got {alpha}")
    _check_positive(rho, "rho")
    _check_positive(sigma, "sigma")
    z = float(np.trace(_power(rho, alpha) @ _power(sigma, 1.0 - alpha)).real)
    return float(np.log(z) / (alpha - 1.0))


def sandwiched_renyi(
    alpha: float, rho: HermitianMatrix, sigma: HermitianMatrix
) -> float:
    """(α-1)⁻¹ log Tr[(σ^((1-α)/2α) ρ σ^((1-α)/2α))^α] for α in [1/2, 1)."""
    if not 0.5 <= alpha < 1.0:
        raise PreconditionError(f"alpha must lie in [1/2, 1), got {alpha}")
    _check_positive(rho, "rho")
    _check_positive(sigma, "sigma")
    beta = (1.0 - alpha) / (2.0 * alpha)
    sb = _power(sigma, beta)
    x = sb @ rho.mat @ sb
    w = np.clip(np.linalg.eigvalsh((x + x.conj().T) / 2), 0.0, None)
    z = float(np.sum(np.power(w, alpha)))
    return float(np.log(z) / (alpha - 1.0))
