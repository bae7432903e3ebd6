"""Divided-difference kernels and Frechet derivatives of matrix functions.

For an analytic g on (a, b) and a Hermitian anchor A with eigenbasis V, the
derivative d/dt g(A + tB) at t=0 is V (T ∘ (V†BV)) V†, where T holds the
divided differences of g over eigenvalue pairs and ∘ is the Hadamard product.
Eigenvalues outside (a, b) are masked out: the corresponding rows and columns
of T, and of its elementwise pseudo-inverse S, are zero, so the induced linear
map and its Moore-Penrose inverse act only on the in-domain eigenspaces.
Second divided differences give the second derivative the same way
(Daleckii-Krein); the solver's Newton step differentiates L_σ(ρ) with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainViolationError,
    NonInvertibleKernelError,
    NotPSDError,
    SupportViolationError,
)
from .linalg import (
    EIG_ZERO_RTOL,
    HermitianMatrix,
    SpectralDecomposition,
    rel_tol,
    trace_inner_product,
)

# Eigenvalues within this margin of a domain endpoint are masked out, so log
# at exactly 0 routes to the mask. The mask is the support that
# `induced_functional` and `converse_image` test their operands against.
DOMAIN_MARGIN = 1e-12
# Eigenvalue pairs closer than CLUSTER_RTOL * max|eig| use the derivative
# branch of the divided difference; the quotient is unstable below the gap.
CLUSTER_RTOL = 1e-9


@dataclass(frozen=True)
class ScalarFunction:
    """Scalar function g with open domain (a, b) and analytic derivative."""

    name: str
    a: float
    b: float
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.fn(x)


def log_fn() -> ScalarFunction:
    return ScalarFunction("log", 0.0, math.inf, np.log, lambda x: 1.0 / x)


def neg_log_fn() -> ScalarFunction:
    return ScalarFunction("neg_log", 0.0, math.inf, lambda x: -np.log(x), lambda x: -1.0 / x)


def identity_fn() -> ScalarFunction:
    return ScalarFunction("identity", -math.inf, math.inf, lambda x: np.asarray(x, dtype=float) + 0.0, lambda x: np.ones_like(np.asarray(x, dtype=float)))


def power_fn(alpha: float) -> ScalarFunction:
    a = float(alpha)
    return ScalarFunction(
        f"power({a})",
        0.0,
        math.inf,
        lambda x: np.power(x, a),
        lambda x: a * np.power(x, a - 1.0),
    )


@dataclass(frozen=True)
class FrechetKernel:
    """Divided-difference data of g at an anchor A, in A's eigenbasis.

    ``t`` is the (masked) divided-difference matrix, ``s`` its elementwise
    inverse on the mask when every in-domain entry is invertible, else None.
    ``mask`` marks eigenvalues inside (a, b).
    """

    g: ScalarFunction
    basis: SpectralDecomposition
    dims: tuple[int, int]
    t: np.ndarray
    s: np.ndarray | None
    mask: np.ndarray

    @property
    def n(self) -> int:
        return self.t.shape[0]

    def support_projector(self) -> HermitianMatrix:
        """Projector onto the masked-in eigenspaces of the anchor.

        Raises `DomainViolationError` when a masked-out eigenvalue lies more
        than `rel_tol` outside the closure of g's domain (for log: the anchor
        is not PSD); only boundary eigenvalues are masked out of a support.
        """
        w = self.basis.eigenvalues
        bad = w[(w < self.g.a - rel_tol(w)) | (w > self.g.b + rel_tol(w))]
        if bad.size:
            raise DomainViolationError(
                f"anchor eigenvalue {bad[0]:.6e} outside the closed domain of {self.g.name}"
            )
        cols = self.basis.eigenvectors[:, self.mask]
        return HermitianMatrix(cols @ cols.conj().T, self.dims)


def _domain_mask(g: ScalarFunction, w: np.ndarray) -> np.ndarray:
    lo = w >= g.a + DOMAIN_MARGIN if math.isfinite(g.a) else np.ones_like(w, dtype=bool)
    hi = w <= g.b - DOMAIN_MARGIN if math.isfinite(g.b) else np.ones_like(w, dtype=bool)
    return lo & hi


def divided_differences(g: ScalarFunction, w_in: np.ndarray) -> np.ndarray:
    """Divided differences of g over the in-domain eigenvalues ``w_in``."""
    scale = float(np.max(np.abs(w_in))) if w_in.size else 0.0
    thr = CLUSTER_RTOL * scale
    diff = w_in[:, None] - w_in[None, :]
    close = np.abs(diff) <= thr
    gv = np.asarray(g.fn(w_in), dtype=float)
    mid = np.asarray(g.dfn((w_in[:, None] + w_in[None, :]) / 2.0), dtype=float)
    safe = np.where(close, 1.0, diff)
    quot = (gv[:, None] - gv[None, :]) / safe
    return np.where(close, mid, quot)


def log_second_divided_differences(w_in: np.ndarray) -> np.ndarray:
    """Second divided differences log[w_i, w_j, w_k] over ``w_in`` > 0, shape (n, n, n).

    They give the second Fréchet derivative (Daleckii-Krein): in the
    eigenbasis of A, D²log(A)[H, K]_ij = Σ_k log[w_i, w_k, w_j](H_ik K_kj + K_ik H_kj).
    A pair closer than the cluster threshold of `divided_differences` is
    merged: log[a, a, b] = (1/a - log[a, b])/(a - b), and -1/(2m²) at the
    mean m when all three are close.
    """
    t1 = divided_differences(log_fn(), w_in)
    thr = CLUSTER_RTOL * (float(np.max(np.abs(w_in))) if w_in.size else 0.0)
    d_ik = w_in[:, None, None] - w_in[None, None, :]
    d_ij = w_in[:, None, None] - w_in[None, :, None]
    far_ik = np.abs(d_ik) > thr
    far_ij = np.abs(d_ij) > thr
    recursion = (t1[:, :, None] - t1[None, :, :]) / np.where(far_ik, d_ik, 1.0)
    merged = (np.diag(t1)[:, None, None] - t1[:, :, None]) / np.where(far_ij, d_ij, 1.0)
    mean = (w_in[:, None, None] + w_in[None, :, None] + w_in[None, None, :]) / 3.0
    return np.where(far_ik, recursion, np.where(far_ij, merged, -0.5 / mean**2))


def build_kernel(g: ScalarFunction, a: HermitianMatrix) -> FrechetKernel:
    """Construct the divided-difference kernel of g at anchor ``a``.

    Out-of-domain eigenvalues are masked; no error is raised for them. The
    pseudo-inverse matrix ``s`` is present iff every in-domain entry of the
    kernel is nonzero (in particular g' nonzero at each in-domain eigenvalue).
    """
    basis = a.spectrum
    w = basis.eigenvalues
    n = w.size
    mask = _domain_mask(g, w)
    idx = np.where(mask)[0]
    t = np.zeros((n, n))
    s: np.ndarray | None = np.zeros((n, n))
    if idx.size:
        tm = divided_differences(g, w[idx])
        t[np.ix_(idx, idx)] = tm
        if np.min(np.abs(tm)) > 0.0:
            s = np.zeros((n, n))
            s[np.ix_(idx, idx)] = 1.0 / tm
        else:
            s = None
    return FrechetKernel(g=g, basis=basis, dims=a.dims, t=t, s=s, mask=mask)


def _hadamard_conjugate(k: FrechetKernel, coeff: np.ndarray, b: HermitianMatrix) -> HermitianMatrix:
    if b.n != k.n:
        raise DimensionMismatchError(f"kernel order {k.n} != operand order {b.n}")
    v = k.basis.eigenvectors
    inner = v.conj().T @ b.mat @ v
    out = v @ (coeff * inner) @ v.conj().T
    return HermitianMatrix(out, b.dims)


def frechet_apply(k: FrechetKernel, b: HermitianMatrix) -> HermitianMatrix:
    """Apply the Frechet derivative D_{g,A} to B: V (T ∘ (V†BV)) V†."""
    return _hadamard_conjugate(k, k.t, b)


def frechet_pinv_apply(k: FrechetKernel, b: HermitianMatrix) -> HermitianMatrix:
    """Apply the Moore-Penrose inverse of D_{g,A}; both compositions give P_A B P_A."""
    if k.s is None:
        raise NonInvertibleKernelError(
            f"non-invertible kernel: {k.g.name} has a vanishing divided difference on the support"
        )
    return _hadamard_conjugate(k, k.s, b)


def matrix_function(
    g: ScalarFunction, a: HermitianMatrix, restrict_to_support: bool = False
) -> HermitianMatrix:
    """Spectral evaluation V g(Λ) V†.

    Raises unless all eigenvalues are inside (a, b); with
    ``restrict_to_support`` g is applied on the in-domain eigenspaces only and
    the rest contribute zero.
    """
    basis = a.spectrum
    w = basis.eigenvalues
    mask = _domain_mask(g, w)
    if not mask.all() and not restrict_to_support:
        bad = w[~mask]
        raise DomainViolationError(
            f"domain violation: eigenvalue {bad[0]:.6e} outside ({g.a}, {g.b}) for {g.name}"
        )
    vals = np.zeros_like(w)
    if mask.any():
        vals[mask] = np.asarray(g.fn(w[mask]), dtype=float)
    v = basis.eigenvectors
    return HermitianMatrix((v * vals) @ v.conj().T, a.dims)


def induced_functional(k: FrechetKernel, rho: HermitianMatrix) -> HermitianMatrix:
    """The functional φ̂ = D_{g,A}(ρ) that ρ induces at the kernel's anchor A.

    A minimizes -Tr[ρ g(σ)] over a convex set exactly when φ̂ supports the
    set at A. Raises `SupportViolationError` when ρ has more than
    1e-11·max(1, |Tr ρ|) weight outside the masked-in eigenspaces of A,
    where -Tr[ρ g(σ)] is infinite, and (through
    `FrechetKernel.support_projector`) `DomainViolationError` when A is not
    in the closure of g's domain.
    """
    if not k.mask.all():
        outside = rho.trace() - trace_inner_product(rho, k.support_projector())
        if outside > 1e-11 * max(1.0, abs(rho.trace())):
            raise SupportViolationError(
                "infinite divergence: rho has weight outside the in-domain support of the anchor"
            )
    return frechet_apply(k, rho)


def converse_image(k: FrechetKernel, phi: HermitianMatrix) -> HermitianMatrix:
    """The converse map ρ = D‡_{g,A}(φ) of a functional φ at the kernel's anchor A.

    When φ supports the set at A and ρ is PSD, A minimizes -Tr[ρ g(σ)] there.
    Raises `SupportViolationError` when ‖PφP - φ‖ > 1e-9, with P the
    projector onto the masked-in eigenspaces of A, and as
    `induced_functional` does when A is not in the closure of g's domain.
    `frechet_pinv_apply` raises `NonInvertibleKernelError` when the kernel
    has no pseudo-inverse.
    """
    if not k.mask.all():
        p = k.support_projector().mat
        if np.linalg.norm(p @ phi.mat @ p - phi.mat) > 1e-9:
            raise SupportViolationError(
                "phi must vanish outside the in-domain support of the anchor"
            )
    return frechet_pinv_apply(k, phi)


def directional_derivative(
    g: ScalarFunction,
    rho: HermitianMatrix,
    sigma: HermitianMatrix,
    tau: HermitianMatrix,
) -> float:
    """Directional derivative of f(σ) = -Tr[ρ g(σ)] at σ in direction τ.

    Equals -Tr[ρ D_{g,σ}(τ)] = -Tr[τ D_{g,σ}(ρ)], D_{g,σ} being
    self-adjoint. Requires ρ PSD and supported inside the in-domain
    eigenspaces of σ (see `induced_functional`), else the true derivative is
    infinite.
    """
    w_rho = rho.spectrum.eigenvalues
    if w_rho[0] < -EIG_ZERO_RTOL * max(1.0, float(np.max(np.abs(w_rho)))):
        raise NotPSDError(f"rho must be PSD (min eig {w_rho[0]:.3e})")
    return -trace_inner_product(tau, induced_functional(build_kernel(g, sigma), rho))
