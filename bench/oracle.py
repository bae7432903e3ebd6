"""Inputs and reference values for the benchmark, independent of `entbound`.

Everything here is numpy only and written from the definitions, so a change
to the package can change neither what the benchmark measures it on nor what
it checks it against. Conventions: natural logarithms; the partial transpose
acts on the second factor of an (n1, n2) split.
"""

from __future__ import annotations

import numpy as np

# An anchor is on the PPT boundary when the smallest eigenvalue of its
# partial transpose lies in [0, ANCHOR_PT_TOL].
ANCHOR_PT_TOL = 1e-12


def partial_transpose(mat: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    n1, n2 = dims
    n = n1 * n2
    return mat.reshape(n1, n2, n1, n2).transpose(0, 3, 2, 1).reshape(n, n)


def herm(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2


def min_pt_eig(mat: np.ndarray, dims: tuple[int, int]) -> float:
    return float(np.linalg.eigvalsh(herm(partial_transpose(mat, dims)))[0])


def ginibre_state(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = herm(g @ g.conj().T)
    return s / np.trace(s).real


def random_ket(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def local_unitary(dims: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """U_A ⊗ U_B with Haar-random factors."""
    return np.kron(haar_unitary(dims[0], rng), haar_unitary(dims[1], rng))


def rotate(u: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return herm(u @ mat @ u.conj().T)


def npt_ginibre_state(
    dims: tuple[int, int], rng: np.random.Generator, margin: float = 1e-3
) -> np.ndarray:
    """Ginibre state whose partial transpose has an eigenvalue below -margin."""
    n = dims[0] * dims[1]
    while True:
        rho = ginibre_state(n, rng)
        if min_pt_eig(rho, dims) < -margin:
            return rho


# --- spectral functions ---------------------------------------------------


def entropy(rho: np.ndarray) -> float:
    """-Tr[ρ log ρ], with 0 log 0 = 0."""
    p = np.linalg.eigvalsh(herm(rho))
    p = p[p > 1e-300]
    return float(-np.sum(p * np.log(p)))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(ρ‖σ) for a full-rank σ."""
    w, v = np.linalg.eigh(herm(sigma))
    if w[0] <= 0.0:
        raise ValueError("relative_entropy needs a full-rank sigma")
    log_sigma = (v * np.log(w)) @ v.conj().T
    return -entropy(rho) - float(np.vdot(log_sigma, rho).real)


def log_negativity(rho: np.ndarray, dims: tuple[int, int]) -> float:
    w = np.linalg.eigvalsh(herm(partial_transpose(rho, dims)))
    return float(np.log(np.sum(np.abs(w))))


def marginals(rho: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    n1, n2 = dims
    t = rho.reshape(n1, n2, n1, n2)
    return np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)


def hashing_bound(rho: np.ndarray, dims: tuple[int, int]) -> float:
    """max(0, S(ρ_A) - S(ρ), S(ρ_B) - S(ρ)), a lower bound on distillable entanglement."""
    rho_a, rho_b = marginals(rho, dims)
    s = entropy(rho)
    return max(0.0, entropy(rho_a) - s, entropy(rho_b) - s)


def log_derivative_pinv(sigma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L‡_σ(X): the inverse of the derivative of log at a full-rank σ.

    In the eigenbasis of σ the derivative of log multiplies entry (i, j) by
    (log λ_i - log λ_j)/(λ_i - λ_j), or 1/λ_i when λ_i = λ_j; its inverse
    divides by the same numbers, which are the logarithmic means of λ_i, λ_j.
    """
    w, v = np.linalg.eigh(herm(sigma))
    if w[0] <= 0.0:
        raise ValueError("log_derivative_pinv needs a full-rank sigma")
    li, lj = w[:, None], w[None, :]
    diff = li - lj
    close = np.abs(diff) <= 1e-12 * float(w[-1])
    log_mean = np.where(
        close, (li + lj) / 2, diff / np.where(close, 1.0, np.log(li) - np.log(lj))
    )
    return herm(v @ (log_mean * (v.conj().T @ x @ v)) @ v.conj().T)


# --- PPT-boundary anchors and the converse family --------------------------


def boundary_anchor(dims: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Full-rank PPT state whose partial transpose has λmin in [0, ANCHOR_PT_TOL].

    Bisects on the segment from a strictly-PPT mixture (1-p)·ρ + p·1/n,
    p = 0.95, to a random pure entangled state.
    """
    n = dims[0] * dims[1]
    inner = 0.05 * ginibre_state(n, rng) + 0.95 * np.eye(n) / n
    psi = random_ket(n, rng)
    outer = np.outer(psi, psi.conj())
    if min_pt_eig(inner, dims) <= 0.0 or min_pt_eig(outer, dims) >= 0.0:
        raise ValueError("segment does not cross the PPT boundary")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if min_pt_eig((1 - mid) * inner + mid * outer, dims) >= 0.0:
            lo = mid
        else:
            hi = mid
        if min_pt_eig((1 - lo) * inner + lo * outer, dims) <= ANCHOR_PT_TOL:
            break
    anchor = herm((1 - lo) * inner + lo * outer)
    lam = min_pt_eig(anchor, dims)
    if not 0.0 <= lam <= ANCHOR_PT_TOL:
        raise ValueError(f"bisection missed the boundary (min PT eig {lam:.3e})")
    return anchor


def pt_kernel(anchor: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Columns spanning the (numerically) zero eigenspace of anchor^Γ."""
    w, v = np.linalg.eigh(herm(partial_transpose(anchor, dims)))
    return v[:, np.abs(w) <= 1e-9 * float(np.max(np.abs(w)))]


def supporting_functional(anchor: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """φ = 1 - (Σ_i |v_i⟩⟨v_i|)^Γ / √m over the m zero eigenvectors v_i of anchor^Γ.

    This is the PPT-set functional with equal weights, scaled so that
    Tr[(1 - φ)²] = 1, at a full-rank boundary anchor.
    """
    vecs = pt_kernel(anchor, dims)
    n = anchor.shape[0]
    kernel_projector = vecs @ vecs.conj().T
    return herm(np.eye(n) - partial_transpose(kernel_projector, dims) / np.sqrt(vecs.shape[1]))


def rains_functional(anchor: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """(P₁ - P₂)^Γ, with P₁, P₂ the projectors onto the positive and negative
    eigenspaces of anchor^Γ: the Rains-set functional at an anchor on the
    sphere ‖τ^Γ‖₁ = 1, with no nullspace block."""
    w, v = np.linalg.eigh(herm(partial_transpose(anchor, dims)))
    tol = 1e-9 * float(np.max(np.abs(w)))
    sign = np.where(w > tol, 1.0, np.where(w < -tol, -1.0, 0.0))
    return herm(partial_transpose((v * sign) @ v.conj().T, dims))


def family_direction(anchor: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    return log_derivative_pinv(anchor, supporting_functional(anchor, dims))


def family_state(anchor: np.ndarray, direction: np.ndarray, x: float) -> np.ndarray:
    return herm((1 - x) * anchor + x * direction)


def family_x_max(anchor: np.ndarray, direction: np.ndarray) -> float:
    """Largest x with (1-x)·anchor + x·direction PSD (bisection to 1e-14)."""
    def psd(x: float) -> bool:
        return float(np.linalg.eigvalsh(family_state(anchor, direction, x))[0]) >= 0.0

    hi = 1.0
    while psd(hi):
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("direction is PSD: the family never leaves the PSD cone")
    lo = 0.0
    while hi - lo > 1e-14 * hi:
        mid = (lo + hi) / 2
        if psd(mid):
            lo = mid
        else:
            hi = mid
    return lo


def is_psd(mat: np.ndarray, tol: float = 0.0) -> bool:
    return float(np.linalg.eigvalsh(herm(mat))[0]) >= -tol


# --- linear maximization over product states -------------------------------


def _top_ket(mat: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(herm(mat))[1][:, -1]


def seesaw_max(
    m: np.ndarray, dims: tuple[int, int], rng: np.random.Generator, restarts: int = 24
) -> float:
    """max ⟨a⊗b|M|a⊗b⟩ over unit kets, by alternating eigenvector updates.

    Each update maximizes over one factor with the other fixed, so the value
    never decreases; restarts from random kets find the global maximum in
    the small dimensions used here. Over 2×2 and 2×3 this equals the maximum
    of Tr[Mσ] over PPT states, because there PPT states are separable.
    """
    n1, n2 = dims
    t = m.reshape(n1, n2, n1, n2)
    best = -np.inf
    for _ in range(restarts):
        b = random_ket(n2, rng)
        value = -np.inf
        for _ in range(2000):
            a = _top_ket(np.einsum("ijkl,j,l->ik", t, b.conj(), b))
            b = _top_ket(np.einsum("ijkl,i,k->jl", t, a.conj(), a))
            ab = np.kron(a, b)
            new = float(np.vdot(ab, m @ ab).real)
            if new - value <= 1e-15:
                value = max(value, new)
                break
            value = new
        best = max(best, value)
    return best


def schmidt_max_sq(psi: np.ndarray, dims: tuple[int, int]) -> float:
    """Largest squared Schmidt coefficient of a unit ket."""
    s = np.linalg.svd(psi.reshape(dims), compute_uv=False)
    return float(s[0] ** 2)


def random_effect(n: int, rng: np.random.Generator) -> np.ndarray:
    """Generic 0 ⪯ M ⪯ 1: Haar eigenbasis, eigenvalues uniform in [0, 1]."""
    q = haar_unitary(n, rng)
    return herm((q * rng.uniform(size=n)) @ q.conj().T)
