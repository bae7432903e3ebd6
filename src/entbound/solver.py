"""Forward solvers: projected gradient descent over the PPT set or the Rains set.

These are the independent check on every converse construction. One routine,
`_project`, projects onto either constraint set by accelerated ascent on the
dual of the Frobenius projection (Malick, SIAM J. Matrix Anal. Appl. 26, 272
(2004)): a PSD multiplier on the one cone that has no closed-form projection
(x^Γ ⪰ 0 for the PPT set, x ⪰ 0 for the Rains set), around the closed-form
projection onto the rest (the unit-trace PSD set, or the partial-transpose
trace-norm ball). The relative-entropy objective runs the monotone spectral
projected gradient method (SPG; Birgin, Martínez & Raydan, SIAM J. Optim. 10, 1196
(2000)): each iteration projects one Barzilai-Borwein step along -L_σ(ρ) and
then backtracks (Armijo) along the segment from σ to that projection. Every
point of the segment is feasible by convexity, so a trial step costs one
eigendecomposition and no projection, and the objective stays monotone per
accepted step. The projection inside the solver is inexact on purpose: it is
warm-started from the last multiplier and stops as soon as its output gives
a descent direction. The warm multiplier is first scaled by t/t_prev, the
ratio of this step to the step it was computed at: at a fixed point
σ = Π(σ - t·g) the projection's optimality conditions read
t·g = B^Γ - μ·1 + Z (PPT set; the Rains set alike), with every multiplier in
a cone, so the optimal multipliers are proportional to t, and the
Barzilai-Borwein step changes by orders of magnitude between iterations.

Semismooth Newton finishes the solve on the optimality system of the
paper's converse theorem, one equation in σ alone for both sets: σ
minimizes S(ρ‖·) iff φ̂ = L_σ(ρ) has the set's supporting form at σ, which
is the natural-map equation F(σ) = σ^Γ - prox(σ^Γ + φ̂^Γ) = 0 of the set's
prox (`_newton`; Zinchenko, Friedland & Gour, Phys. Rev. A 82, 052336
(2010) solve the REE from the same conditions). Its first attempt comes at
once from a warm start, and after NEWTON_AFTER iterations from the
maximally mixed state. Its point is kept only when the certificate the
result reports finds it feasible and within GAP_STOP of optimal. Otherwise
SPG goes on unchanged, and Newton gets one more attempt where SPG stops.
Rank-deficient minimizers are outside the domain of log, so there Newton
declines and SPG's result stands. Every solve starts at the best feasible
member of its candidate pool, and the library's Rains solves put the REE
minimizer in it.

Linear objectives are a small semidefinite program of their own:
``maximize_linear`` runs ADMM (alternating direction method of multipliers;
Wen, Goldfarb & Yin, Math. Prog. Comp. 2, 203 (2010)) on the splitting
Y = X^Γ, with X in the unit-trace PSD set and Y in the PSD cone (PPT set) or
X in the PSD cone and Y in the trace-norm unit ball (Rains set). Its scaled
multiplier is a dual point, so every iterate brackets the maximum between a
feasible value and a weak-duality bound, without a projection.

Both solvers certify their results with one bound, `ppt.dual_bound`.
``minimize_ree`` takes it at the dual points `ppt.certified_max` fixes per
set, the same that `ppt.verify_minimum` uses (among them the paper's
supporting form at the result, `ppt.supporting_dual`); ``maximize_linear``
at its ADMM multiplier. `SolverConfig` holds only the two iteration caps;
the step and tolerance settings are the module constants STEP_INIT,
ARMIJO_BETA, TOL_GRAD, TOL_FEAS, the projection's PROJ_FEAS,
COLD_COMPLEMENTARITY and PROJ_STATIONARY, and Newton's NEWTON_AFTER,
NEWTON_STEPS and NEWTON_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, NotAStateError, NotPSDError, PreconditionError
from .linalg import (
    HermitianMatrix,
    hermitian,
    min_eigenvalue,
    partial_transpose_array,
    trace_norm,
)
from .divergences import SUPPORT_ATOL, _trace_xlogx, relative_entropy
from .frechet import ScalarFunction, divided_differences, log_fn, log_second_divided_differences
from .ppt import (
    SupportingFunctional,
    certified_max,
    dual_bound,
    is_boundary_of_P,
    ppt_functional,
)

# minimize_ree reports CONVERGED only when its certified first-order gap is
# at most this; by convexity the minimum then lies within it below the value.
CERT_TOL = 1e-4
# maximize_linear stops once its certified gap is at most this.
GAP_STOP = 1e-10
# Iterate spectra are floored here before logs and kernels; the minimizer may
# sit on the boundary of the PSD cone.
EIG_FLOOR = 1e-12
# minimize_ree: the first Barzilai-Borwein step is STEP_INIT/max(1, ‖g‖), each
# rejected Armijo trial scales the step by ARMIJO_BETA, and the loop stops
# once an accepted step moves σ by at most TOL_GRAD.
STEP_INIT = 1.0
ARMIJO_BETA = 0.5
TOL_GRAD = 1e-9
# Feasibility residual a result needs for CONVERGED, and a candidate needs to
# start minimize_ree from.
TOL_FEAS = 1e-9
# _project accepts only outputs whose constraint residual (-λmin(x^Γ) on the
# PPT set, -λmin(x) on the Rains set) is at most PROJ_FEAS: a hundred times
# below TOL_FEAS, so that iterates, convex combinations of outputs, stay
# feasible, and no larger than SUPPORT_ATOL, the support wall of the objective.
PROJ_FEAS = 1e-11
# The complementarity bound of a cold projection (no current iterate): the
# output lies within √COLD_COMPLEMENTARITY = 1e-7 of the exact projection.
COLD_COMPLEMENTARITY = 1e-14
# Once ½‖x - σ‖² is below roundoff the descent test cannot be met, so an
# output that moved at most this since the last inner iteration is accepted:
# a decade below TOL_GRAD, the smallest solver step that does not end a solve.
PROJ_STATIONARY = 1e-10
# minimize_ree tries semismooth Newton at a warm start or after this many SPG
# iterations from 1/n, and once more when SPG stops, each attempt at most
# NEWTON_STEPS steps (from the third SPG iterate its first steps may be
# damped); Newton stops early once ‖F‖ is at most NEWTON_TOL.
NEWTON_AFTER = 3
NEWTON_STEPS = 20
NEWTON_TOL = 1e-13


@dataclass(frozen=True)
class SolverConfig:
    """Iteration caps: solver iterations, and inner iterations per projection."""

    max_iters: int = 400
    projection_iters: int = 2000

    def __post_init__(self) -> None:
        if min(self.max_iters, self.projection_iters) <= 0:
            raise PreconditionError("iteration limits must be positive")


def _project_spectral(mat: np.ndarray, project_eigenvalues) -> np.ndarray:
    """Apply a projection of real vectors to the spectrum of a Hermitian matrix."""
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    return (v * project_eigenvalues(w)) @ v.conj().T


def _clip_psd(mat: np.ndarray) -> np.ndarray:
    return _project_spectral(mat, lambda w: np.maximum(w, 0.0))


def _project_l1_ball(w: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Euclidean projection of a real vector onto the l1 ball (soft threshold)."""
    a = np.abs(w)
    if a.sum() <= radius:
        return w
    u = np.sort(a)[::-1]
    cum = np.cumsum(u)
    k = np.arange(1, a.size + 1)
    ok = u > (cum - radius) / k
    j = int(np.max(np.nonzero(ok)[0]))
    theta = (cum[j] - radius) / (j + 1)
    return np.sign(w) * np.clip(a - theta, 0.0, None)


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the unit simplex.

    ``w`` must be in ascending order, as `np.linalg.eigh` returns eigenvalues,
    so reversing it replaces the sort of the textbook formula.
    """
    u = w[::-1]
    cum = np.cumsum(u) - 1.0
    k = np.arange(1, w.size + 1)
    j = int(np.flatnonzero(u > cum / k)[-1])
    return np.clip(w - cum[j] / (j + 1), 0.0, None)


def _project_pt_ball(mat: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Project onto {X : ||X^Gamma||_1 <= 1}; the partial transpose is an isometry."""
    pt = partial_transpose_array(mat, dims)
    return partial_transpose_array(_project_spectral(pt, _project_l1_ball), dims)


def _project(
    y: np.ndarray,
    dims: tuple[int, int],
    set_tag: str,
    max_iters: int,
    b: np.ndarray | None = None,
    sigma: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Frobenius projection of y onto the PPT set or the Rains set, by its dual.

    The multiplier B ⪰ 0 goes on the one cone the closed-form step leaves
    out: x(B) = Π_spectraplex(y + B^Γ) with B on x^Γ ⪰ 0 (PPT set), or
    x(B) = Π_ball(y + B) with B on x ⪰ 0 (Rains set; the ball is
    ‖x^Γ‖₁ ≤ 1). The dual gradient, -x(B)^Γ or -x(B), is 1-Lipschitz, so
    accelerated projected ascent (Beck & Teboulle 2009) takes unit steps
    B ← Π_PSD(C - x(C)^Γ) from the momentum point C, and restarts the
    momentum when ⟨C - B_new, B_new - B⟩ > 0 (O'Donoghue & Candès 2015).

    x(C) is accepted once its constraint residual is at most PROJ_FEAS and
    the complementarity ⟨C, x(C)^Γ⟩ (⟨C, x(C)⟩) plus the negative part of C
    is at most ½‖x - σ‖² (or COLD_COMPLEMENTARITY without σ). Then, for
    every z in the set, ⟨y - x, z - x⟩ ≤ ½‖x - σ‖² by the variational
    inequality of the inner projection: with y = σ - t·g and z = σ, the
    direction x - σ descends, ⟨g, σ - x⟩ ≥ ‖x - σ‖²/(2t) (Birgin, Martínez
    & Raydan, IMA J. Numer. Anal. 23, 539 (2003)); that inequality is also
    checked as computed, because near roundoff the bound alone can pass on
    a direction that does not descend. Once ½‖x - σ‖² is below roundoff,
    x(C) is also accepted when the residual holds, C is PSD to PROJ_FEAS and
    x moved at most PROJ_STATIONARY. A warm multiplier ``b`` must be PSD up
    to such a negative part; the returned one is, and so is any positive
    multiple of it, such as the one rescaled to a new step.

    Returns x, the multiplier to warm-start the next call from, the number
    of inner iterations, and whether ``max_iters`` ran out first (x is then
    the last iterate, possibly infeasible).
    """
    if set_tag == "PPT":
        constraint = lambda m: partial_transpose_array(m, dims)
        primal = lambda m: _project_spectral(m, _project_simplex)
    else:
        constraint = lambda m: m
        primal = lambda m: _project_pt_ball(m, dims)
    y = (y + y.conj().T) / 2
    # c_psd: C is zero or a fresh PSD clip, so it has no negative part to test.
    c_psd = b is None
    c = b = np.zeros_like(y) if b is None else b
    theta = 1.0
    x_prev = None
    for k in range(1, max_iters + 1):
        x = primal(y + constraint(c))
        ax = constraint(x)
        comp = float(np.vdot(c, ax).real)
        if sigma is None:
            descends, bound = True, COLD_COMPLEMENTARITY
        else:
            # The bound implies descent, ⟨σ - y, σ - x⟩ = t·⟨g, σ - x⟩ ≥ ½‖x - σ‖²;
            # it is also measured, since near roundoff only the measure holds.
            dx = x - sigma
            bound = 0.5 * float(np.vdot(dx, dx).real)
            descends = float(np.vdot(y - sigma, dx).real) >= bound
        stationary = False
        if x_prev is not None:
            moved = x - x_prev
            stationary = float(np.vdot(moved, moved).real) <= PROJ_STATIONARY**2
        if ((descends and comp <= bound) or stationary) and float(
            np.linalg.eigvalsh(ax)[0]
        ) >= -PROJ_FEAS:
            # A negative part of C weakens the bound by at most its size, since
            # every z in the set has Tr z^Γ ≤ 1; rounding alone leaves ~1e-19.
            neg = 0.0 if c_psd else max(0.0, -float(np.linalg.eigvalsh(c)[0]))
            if (descends and comp + neg <= bound) or (stationary and neg <= PROJ_FEAS):
                return x, c, k, False
        b_new = _clip_psd(c - ax)
        if float(np.vdot(c - b_new, b_new - b).real) > 0.0:
            theta, c, c_psd = 1.0, b_new, True
        else:
            theta_new = (1.0 + np.sqrt(1.0 + 4.0 * theta**2)) / 2.0
            c = b_new + ((theta - 1.0) / theta_new) * (b_new - b)
            theta, c_psd = theta_new, False
        b, x_prev = b_new, x
    return x, b, max_iters, True


def _project_public(
    a: HermitianMatrix, set_tag: str, config: SolverConfig | None
) -> HermitianMatrix:
    cfg = config or SolverConfig()
    x, _, _, capped = _project(a.mat, a.dims, set_tag, cfg.projection_iters)
    if capped:
        feasibility = _shift_feasible(x, a.dims, set_tag)[1]
        raise ConvergenceError(
            f"projection onto the {'PPT' if set_tag == 'PPT' else 'Rains'} set hit its "
            f"cap of {cfg.projection_iters} iterations with feasibility residual {feasibility:.3e}"
        )
    return hermitian(x, a.dims)


def project_P(a: HermitianMatrix, config: SolverConfig | None = None) -> HermitianMatrix:
    """Frobenius projection onto the PPT states (accelerated dual ascent, cold).

    The output is PPT to PROJ_FEAS and within √COLD_COMPLEMENTARITY of the
    exact projection. Raises ConvergenceError when ``config.projection_iters``
    runs out first.
    """
    return _project_public(a, "PPT", config)


def project_T(a: HermitianMatrix, config: SolverConfig | None = None) -> HermitianMatrix:
    """Frobenius projection onto the Rains set (accelerated dual ascent, cold).

    The output is PSD to PROJ_FEAS and within √COLD_COMPLEMENTARITY of the
    exact projection. Raises ConvergenceError when ``config.projection_iters``
    runs out first.
    """
    return _project_public(a, "RAINS_T", config)


def _shift_feasible(
    x: np.ndarray, dims: tuple[int, int], set_tag: str
) -> tuple[np.ndarray, float]:
    """Measure how far x is from the PPT set or the Rains set, and move it onto it.

    The residual is max(-λmin x, -λmin x^Γ, |Tr x - 1|) on the PPT set and
    max(-λmin x, ‖x^Γ‖₁ - 1) on the Rains set. The move is
    x ↦ (x + ε·1)/(1 + nε), with ε = max(0, -λmin x^Γ, -λmin x) on the PPT
    set and ε = max(0, -λmin x) on the Rains set, which is then divided by
    max(1, ‖x^Γ‖₁). The mixture keeps a unit trace, and makes x^Γ and x PSD
    because both grow by ε·1 before the positive rescaling; the mixture's
    ‖x^Γ‖₁ is Σ|μᵢ + ε|/(1 + nε) over the eigenvalues μ of x^Γ, so one pair
    of eigendecompositions gives both the residual and the move. Returns the
    moved point, x itself when it needs no move, and x's residual.
    """
    n = x.shape[0]
    lam = float(np.linalg.eigvalsh(x)[0])
    mu = np.linalg.eigvalsh(partial_transpose_array(x, dims))
    if set_tag == "PPT":
        residual = max(-lam, -float(mu[0]), abs(float(np.trace(x).real) - 1.0))
        eps = max(0.0, -lam, -float(mu[0]))
    else:
        residual = max(-lam, float(np.sum(np.abs(mu))) - 1.0)
        eps = max(0.0, -lam)
    if eps > 0.0:
        x = (x + eps * np.eye(n)) / (1.0 + n * eps)
    if set_tag == "RAINS_T":
        ptnorm = float(np.sum(np.abs(mu + eps))) / (1.0 + n * eps)
        if ptnorm > 1.0:
            x = x / ptnorm
    return x, residual


@lru_cache(maxsize=None)
def _hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the n×n Hermitian matrices, shape (n², n, n).

    Diagonal units first, then (E_ij + E_ji)/√2 and i(E_ij - E_ji)/√2 for
    i < j; `_coords` reads coordinates in this basis. Built once per n and
    read-only, since every caller shares it.
    """
    iu, ju = _triu(n)
    m = iu.size
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    sym, skew = n + np.arange(m), n + m + np.arange(m)
    basis[sym, iu, ju] = basis[sym, ju, iu] = 1.0 / np.sqrt(2.0)
    basis[skew, iu, ju] = 1j / np.sqrt(2.0)
    basis[skew, ju, iu] = -1j / np.sqrt(2.0)
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=None)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of n×n, read-only."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _coords(x: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian matrices (..., n, n) in `_hermitian_basis`."""
    iu, ju = _triu(x.shape[-1])
    off = np.sqrt(2.0) * x[..., iu, ju]
    return np.concatenate(
        [np.diagonal(x, axis1=-2, axis2=-1).real, off.real, off.imag], axis=-1
    )


def _sandwich(a: np.ndarray, e: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a·E_k)·b for every matrix E_k of the stack e, shape (m, n, n), in two gemms.

    a·E_k is one (n, n) × (n, m·n) product on the stack laid side by side,
    and (a·E_k)·b one (m·n, n) × (n, n) product on the stack laid end to end.
    """
    m, n = e.shape[0], e.shape[-1]
    ae = (a @ e.transpose(1, 0, 2).reshape(n, m * n)).reshape(n, m, n).transpose(1, 0, 2)
    return (ae.reshape(m * n, n) @ b).reshape(m, n, n)


def _spectral(rho: np.ndarray, x: np.ndarray) -> tuple:
    """x with its raw spectrum, x = V diag(w) V†, and ρ in that basis, V†ρV."""
    w, v = np.linalg.eigh(x)
    return x, w, v, v.conj().T @ rho @ v


def _log_derivative(w: np.ndarray, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """L_x(ρ) = V (log[w_i, w_j] ∘ r) V† from x's spectrum and r = V†ρV."""
    return v @ (divided_differences(log_fn(), w) * r) @ v.conj().T


def _prox(set_tag: str) -> ScalarFunction:
    """The set's prox on eigenvalues, x - clip(x, lo, 1): max(x - 1, 0) on the
    PPT set (lo = -∞), the soft threshold at 1 on the Rains set (lo = -1).

    Clustered eigenvalues take the one-sided derivative, 1 past a threshold.
    """
    lo = -np.inf if set_tag == "PPT" else -1.0
    fn = lambda x: x - np.clip(x, lo, 1.0)
    return ScalarFunction(f"prox_{set_tag}", -np.inf, np.inf, fn, lambda x: (x > 1.0) | (x < lo))


def _residual(
    point: tuple, dims: tuple[int, int], prox: ScalarFunction
) -> tuple[np.ndarray, tuple] | None:
    """F(σ) = σ^Γ - prox(W) with W = σ^Γ + L_σ(ρ)^Γ, and the spectra behind it.

    ``point`` is `_spectral(ρ, σ)`; its spectrum and W = U diag(u_w) U† are
    what `_newton_step` linearizes at. None unless σ is positive definite,
    the domain of log.
    """
    sigma, w, v, r = point
    if w[0] <= 0.0:
        return None
    s_pt = partial_transpose_array(sigma, dims)
    u_w, u = np.linalg.eigh(s_pt + partial_transpose_array(_log_derivative(w, v, r), dims))
    return s_pt - (u * prox(u_w)) @ u.conj().T, (w, v, r, u_w, u)


def _newton_step(
    parts: tuple, f: np.ndarray, dims: tuple[int, int], prox: ScalarFunction
) -> np.ndarray:
    """Solve J[dσ] = -F for the Jacobian J of `_residual`.

    J[dσ] = dσ^Γ - Dprox(W)[dσ^Γ + D²log(σ)[ρ, dσ]^Γ], where
    D²log(σ)[ρ, E]_ij = Σ_k log[w_i, w_k, w_j](ρ_ik E_kj + E_ik ρ_kj) in σ's
    eigenbasis (Daleckii-Krein, second divided differences of log) and
    Dprox(W)[E] = U (T ∘ U†EU) U† with T the divided differences of the
    set's prox over W's eigenvalues, an element of the generalized Jacobian
    of the matrix prox. J is a real n² × n² system. Its matrix holds the
    coordinates of the images of the n² matrices of `_hermitian_basis`,
    computed on the whole stack by matmuls: each change of basis is one gemm
    per side (`_sandwich`), and the sum over k in D²log is a batched matmul
    over j for the ρ_ik term and over i for the ρ_kj term.
    """
    w, v, r, u_w, u = parts
    n = w.size
    t2 = log_second_divided_differences(w)
    # left[j] = (t2[i, k, j] ρ_ik)_ik and right[i] = (t2[i, k, j] ρ_kj)_kj.
    left = (t2 * r[:, :, None]).transpose(2, 0, 1)
    right = t2 * r[None, :, :]
    t_prox = divided_differences(prox, u_w)
    vh, uh = v.conj().T, u.conj().T

    def pt(x):
        return partial_transpose_array(x, dims)

    def d2log(e):
        e = _sandwich(vh, e, v)
        by_j = left @ e.transpose(2, 1, 0)  # (j, i, m) for the stack index m
        by_i = e.transpose(1, 0, 2) @ right  # (i, m, j)
        return _sandwich(v, by_j.transpose(2, 1, 0) + by_i.transpose(1, 0, 2), vh)

    basis = _hermitian_basis(n)
    a = _coords(pt(basis) - _sandwich(u, t_prox * _sandwich(uh, pt(basis + d2log(basis)), u), uh)).T
    return np.tensordot(np.linalg.solve(a, -_coords(f)), basis, axes=1)


def _newton(
    rho: np.ndarray, point: tuple, dims: tuple[int, int], prox: ScalarFunction
) -> tuple[np.ndarray, int] | None:
    """Semismooth Newton on the optimality system of the REE over the PPT or Rains set.

    For full-rank σ, σ minimizes S(ρ‖·) over its set iff φ̂ = L_σ(ρ) has the
    set's supporting form: 1 - Z^Γ with Z ⪰ 0, Z·σ^Γ = 0 on the PPT set, and
    (P₊ - P₋ + Q)^Γ on the Rains set (P± on the signed eigenspaces of σ^Γ,
    ‖Q‖_op ≤ 1 on its kernel). Either is the natural-map equation
    F(σ) = σ^Γ - prox(σ^Γ + φ̂^Γ) = 0 of `_prox`, the prox of Tr x + [x ⪰ 0]
    or of ‖x‖₁ (Sun & Sun, Math. Oper. Res. 27, 150 (2002)); Tr[σφ̂] = 1
    then gives Tr σ = 1, or ‖σ^Γ‖₁ = 1.

    ``point`` is `_spectral(ρ, σ)` at the start. Each step solves the
    linearization (`_newton_step`) and backtracks until ‖F‖ decreases with σ
    positive definite. The loop stops at NEWTON_TOL, after NEWTON_STEPS
    steps, or when no step decreases ‖F‖. Returns σ and the number of steps
    taken, or None when the start is not positive definite or the linear
    system is singular.
    """
    out = _residual(point, dims, prox)
    if out is None:
        return None
    size = float(np.linalg.norm(out[0]))
    steps = 0
    try:
        while steps < NEWTON_STEPS and size > NEWTON_TOL:
            d_sigma = _newton_step(out[1], out[0], dims, prox)
            alpha = 1.0
            while alpha >= 1e-4:
                trial_point = _spectral(rho, point[0] + alpha * d_sigma)
                trial = _residual(trial_point, dims, prox)
                if trial is not None and np.linalg.norm(trial[0]) <= (1.0 - 1e-4 * alpha) * size:
                    break
                alpha *= 0.5
            else:
                break
            point, out, size = trial_point, trial, float(np.linalg.norm(trial[0]))
            steps += 1
    except np.linalg.LinAlgError:  # a singular system, or a step to non-finite entries
        return None
    return point[0], steps


@dataclass(frozen=True)
class SolveResult:
    sigma_hat: HermitianMatrix
    value: float
    status: str  # "CONVERGED" | "NONCONVERGED"
    iterations: int  # SPG iterations; 0 when Newton certifies a warm start
    cert_gap: float
    objective_trace: list = field(default_factory=list)
    projection_iters: int = 0  # inner projection iterations, summed over the solve
    projections_capped: int = 0  # projections that ran out of config.projection_iters
    backtracks: int = 0  # rejected Armijo trials, summed over the solve
    newton_steps: int = 0  # steps of the accepted Newton attempt; 0 when SPG alone finished


def minimize_ree(
    rho: HermitianMatrix,
    set_tag: str,
    config: SolverConfig | None = None,
    extra_candidates: list[HermitianMatrix] | None = None,
) -> SolveResult:
    """Minimize S(ρ‖σ) over the PPT set ("PPT") or the Rains set ("RAINS_T").

    Spectral projected gradient, finished by semismooth Newton. The
    candidate pool is the maximally mixed state, the
    ``extra_candidates`` and, for the Rains set, ρ/‖ρ^Γ‖₁; every solve
    starts from its lowest-objective member that is feasible within
    TOL_FEAS. (P ⊂ T, so the REE minimizer passed as a candidate is a
    feasible Rains start, and an optimal one when a side is a qubit.)

    Each iteration computes d = Π(σ - t·g) - σ, one projection of the
    Barzilai-Borwein step t, and backtracks α ← ARMIJO_BETA·α from α = 1
    on σ + α·d until f(σ + α·d) ≤ f(σ) - 1e-4·α·⟨g, -d⟩, with g the
    gradient at σ; a trial is one objective evaluation, never a projection.
    The projection is `_project` warm-started from the previous iteration's
    multiplier times t/t_prev: the projection's optimal multipliers near a
    fixed point are proportional to the step, so the unscaled multiplier of
    step t_prev would start off by that factor. A positive factor keeps it
    PSD. The projection stops once its output is feasible to PROJ_FEAS and d
    is a descent direction with ⟨g, -d⟩ ≥ ‖d‖²/(2t), or once ‖d‖² is below
    roundoff and its output is stationary; above roundoff, a solve never
    ends on a direction that does not descend. ``projection_iters`` sums
    its inner iterations over the solve, ``projections_capped`` counts the
    projections that ran out of ``config.projection_iters``, and
    ``backtracks`` counts the rejected Armijo trials.

    `_newton` runs at once from a warm start (any pool member but the
    maximally mixed state), and after NEWTON_AFTER iterations from the
    maximally mixed state; it runs once more where SPG stops, if SPG moved.
    Its point replaces the iterate and ends the solve only when the result's
    own certificate (below) finds it feasible within TOL_FEAS with a gap of
    at most GAP_STOP; the accepted point is returned with that certificate,
    as computed. A declined attempt leaves the solve exactly as SPG alone
    runs it. ``newton_steps`` counts the steps of the accepted attempt, and
    ``iterations`` is 0 when Newton certifies a warm start.

    One step certifies every result. A result feasible within TOL_FEAS is
    shifted exactly onto the set by `_shift_feasible` before its value is
    taken, so the value is attained by a feasible point; a result further
    out is returned as it is.

    ``cert_gap`` bounds the first-order gap, the maximum over the set of
    Tr[φ̂(σ - σ̂)] with φ̂ = L_σ̂(ρ): it is `ppt.certified_max(φ̂, σ̂)`, the
    smallest `ppt.dual_bound` of φ̂ over the set's fixed dual points (the
    paper's `ppt.supporting_dual(φ̂, σ̂)`, the set's default point and
    B = 0), minus Tr[φ̂σ̂], plus the rounding of the value and the gap.
    `ppt.verify_minimum` applies the same test, with its own φ̂, to any anchor.
    By convexity the minimum lies in [value - cert_gap, value] whenever σ̂ is
    feasible. CONVERGED means exactly that: σ̂ is feasible within TOL_FEAS
    and ``cert_gap`` is at most CERT_TOL.

    The iterate is compared with the whole pool at the end, so for the
    Rains set the returned value never exceeds the logarithmic negativity.
    """
    cfg = config or SolverConfig()
    if set_tag not in ("PPT", "RAINS_T"):
        raise PreconditionError(f"unknown set tag {set_tag!r}")
    if abs(rho.trace() - 1.0) > 1e-9:
        raise NotAStateError(f"rho must have unit trace (got {rho.trace():.9f})")
    if min_eigenvalue(rho) < -1e-9:
        raise NotPSDError("rho must be PSD")

    dims = rho.dims
    n = rho.n
    rho_m = rho.mat
    tr_rho_log_rho = _trace_xlogx(rho)

    def evaluate(mat):
        # Extended-real objective: +inf when rho has weight where sigma has
        # none, so descent can never cross the support wall. The cache is
        # mat with its raw spectrum; each consumer floors it as it needs.
        cache = _, w, v, r = _spectral(rho_m, mat)
        rdiag = np.diag(r).real
        if np.any(rdiag[w < SUPPORT_ATOL] > SUPPORT_ATOL):
            return np.inf, cache
        f = tr_rho_log_rho - float(np.sum(rdiag * np.log(np.clip(w, EIG_FLOOR, None))))
        return f, cache

    def gradient(cache):
        _, w, v, r = cache
        g = -_log_derivative(np.clip(w, EIG_FLOOR, None), v, r)
        return (g + g.conj().T) / 2

    def certify(x):
        # x moved exactly onto the set when it is feasible within TOL_FEAS
        # (else left as it is), its objective f, Tr[φ̂x] with φ̂ = L_x(ρ), the
        # first-order gap `certified_max` - Tr[φ̂x], and whether x is feasible.
        shifted, residual = _shift_feasible(x, dims, set_tag)
        feasible = residual <= TOL_FEAS
        if feasible:
            x = shifted
        f, cache = evaluate(x)
        phi = -gradient(cache)
        anchor = float(np.vdot(phi, x).real)
        gap = certified_max(hermitian(phi, dims), hermitian(x, dims), set_tag)[0] - anchor
        return x, f, anchor, gap, feasible

    # Any feasible point upper-bounds the minimum: the pool is compared again
    # at the end, and its best feasible member is the start.
    pool = [np.eye(n, dtype=complex) / n] + [c.mat for c in extra_candidates or []]
    if set_tag == "RAINS_T":
        pool.append(rho_m / trace_norm(rho.pt))
    pool_evals = [evaluate(m) for m in pool]
    pool_values = [e[0] for e in pool_evals]
    starts = [i for i, m in enumerate(pool) if _shift_feasible(m, dims, set_tag)[1] <= TOL_FEAS]
    start = min(starts, key=pool_values.__getitem__)
    sigma, (f, cache) = pool[start], pool_evals[start]
    g = gradient(cache)
    t = STEP_INIT / max(1.0, float(np.linalg.norm(g)))
    trace = [f]
    iterations = backtracks = projection_iters = projections_capped = 0
    mult = None
    prox = _prox(set_tag)

    def newton_from(cache):
        # Newton from a point's cache, kept only when its point is feasible
        # and certified to GAP_STOP.
        out = _newton(rho_m, cache, dims, prox)
        if out is None:
            return None
        x, steps = out
        cert = certify(x)
        *_, gap, feasible = cert
        if not feasible or gap > GAP_STOP:
            return None
        return cert, steps

    # Newton's first attempt comes at once from a warm pool member, and after
    # NEWTON_AFTER iterations from the maximally mixed state.
    first = NEWTON_AFTER if start == 0 else 0
    newton = tried = None
    for k in range(cfg.max_iters):
        if k == first:
            newton, tried = newton_from(cache), cache
            if newton is not None:
                break
        iterations = k + 1
        # One projection per iteration, warm-started from the last multiplier
        # rescaled to this step (optimal multipliers are proportional to t);
        # every point of the segment from sigma to it is feasible by convexity.
        if mult is not None:
            mult = mult * (t / t_mult)
        x, mult, inner, capped = _project(
            sigma - t * g, dims, set_tag, cfg.projection_iters, mult, sigma
        )
        t_mult = t
        projection_iters += inner
        projections_capped += capped
        d = x - sigma
        decrease = float(np.vdot(g, -d).real)
        accepted = False
        alpha = 1.0
        while alpha * t >= 1e-12:
            cand = sigma + alpha * d
            fc, cand_cache = evaluate(cand)
            if fc <= f - 1e-4 * alpha * decrease + 1e-15:
                accepted = True
                break
            alpha *= ARMIJO_BETA
            backtracks += 1
        if not accepted:
            break
        s = cand - sigma
        g_new = gradient(cand_cache)
        y = g_new - g
        ss = float(np.vdot(s, s).real)
        sy = float(np.vdot(s, y).real)
        sigma, f, g, cache = cand, fc, g_new, cand_cache
        trace.append(f)
        t = min(max(ss / sy, 1e-8), 1e8) if sy > 1e-18 else min(alpha * t * 4.0, 1e8)
        if np.sqrt(ss) <= TOL_GRAD and k >= 2:
            break
    # One more attempt where SPG stopped, unless that is where the first was.
    if newton is None and iterations >= first and cache is not tried:
        newton = newton_from(cache)
    newton_steps = 0
    if newton is not None:
        cert, newton_steps = newton
        f = cert[1]
        trace.append(f)

    # The lowest pool value wins over the iterate, and is certified afresh;
    # certify leaves an infeasible winner where it is, and it is refused below.
    i = min(range(len(pool)), key=pool_values.__getitem__)
    if pool_values[i] < f:
        cert = certify(pool[i])
    elif newton is None:
        cert = certify(sigma)
    sigma, _, anchor, gap, feasible = cert

    sigma_h = hermitian(sigma, dims)
    value = relative_entropy(rho, sigma_h)
    # Both ends of the bracket carry rounding: the value is a difference of
    # two trace terms, the gap of two numbers near Tr[φ̂σ̂] = 1. The gap is
    # nonnegative, and n·ε times the sum of those terms is added to it.
    rounding = n * np.finfo(float).eps * (
        abs(tr_rho_log_rho) + abs(tr_rho_log_rho - value) + abs(anchor)
    )
    cert_gap = max(0.0, gap) + rounding
    converged = feasible and cert_gap <= CERT_TOL
    return SolveResult(
        sigma_hat=sigma_h,
        value=value,
        status="CONVERGED" if converged else "NONCONVERGED",
        iterations=iterations,
        cert_gap=cert_gap,
        objective_trace=trace,
        projection_iters=projection_iters,
        projections_capped=projections_capped,
        backtracks=backtracks,
        newton_steps=newton_steps,
    )


@dataclass(frozen=True)
class LinearSolveResult:
    sigma_hat: HermitianMatrix
    value: float
    gap: float
    status: str
    certificate: SupportingFunctional | None
    iterations: int


def _polish_to_boundary(sigma: np.ndarray, dims: tuple[int, int]) -> np.ndarray | None:
    """Move a state σ along the ray from the maximally mixed state to the PT boundary.

    On x(t) = (1 - t)·1/n + t·σ the smallest PT eigenvalue is
    (1 - t)/n + t·λmin(σ^Γ), which vanishes at t* = 1/(1 - n·λmin(σ^Γ)).
    When σ is not PPT, t* < 1 and x(t*) is a mixture of two states, so it is
    PSD; when t* > 1 its PSD-ness is checked. None when σ^Γ ⪰ 1/n (no
    boundary on the ray) or when x(t*) is not PSD.
    """
    n = sigma.shape[0]
    lam_pt = float(np.linalg.eigvalsh(partial_transpose_array(sigma, dims))[0])
    if lam_pt >= 1.0 / n:
        return None
    t = 1.0 / (1.0 - n * lam_pt)
    x = (1.0 - t) * np.eye(n, dtype=complex) / n + t * sigma
    if t > 1.0 and float(np.linalg.eigvalsh(x)[0]) < -1e-11:
        return None
    return x


def maximize_linear(
    m: HermitianMatrix,
    config: SolverConfig | None = None,
    set_tag: str = "PPT",
) -> LinearSolveResult:
    """Maximize Tr[Mσ] over the PPT set (or over the Rains set).

    ADMM on the semidefinite program: X lies in C1 and Y = X^Γ in C2, where
    C1 is the spectraplex {X ⪰ 0, Tr X = 1} and C2 the PSD cone for the PPT
    set, and C1 is the PSD cone and C2 the trace-norm unit ball for the Rains
    set. With scaled multiplier U and penalty 1, each iteration is
    X ← Π_C1((Y - U)^Γ + M), Y ← Π_C2(X^Γ + U), U ← U + X^Γ - Y; every
    projection is one eigendecomposition and a closed-form step on its
    eigenvalues.

    U is a dual point, and `ppt.dual_bound` turns it into an upper bound on
    the maximum: at B = -U for the PPT set, which is PSD because the Y step
    leaves U the negative part of X^Γ + U, and at B = U for the Rains set.
    The feasible σ̂ is X moved onto the PPT boundary along the ray
    from the maximally mixed state (X itself when the ray has no boundary
    point) for the PPT set, and X / max(1, ‖X^Γ‖₁) for the Rains set.
    ``value`` is Tr[Mσ̂] and ``gap`` the bound minus ``value``, so the maximum
    lies in [value, value + gap]. The loop stops once the gap is at most
    GAP_STOP or after ``config.max_iters`` iterations. CONVERGED means σ̂ is
    feasible within TOL_FEAS and the gap is at most 1e-6. For the
    PPT set the supporting functional at σ̂ is attached when σ̂ lies on the
    boundary.
    """
    cfg = config or SolverConfig()
    if set_tag not in ("PPT", "RAINS_T"):
        raise PreconditionError(f"unknown set tag {set_tag!r}")
    w_m = m.spectrum.eigenvalues
    if w_m[0] < -1e-9 or w_m[-1] > 1.0 + 1e-9:
        raise PreconditionError("maximize_linear requires 0 <= M <= 1")

    dims = m.dims
    n = m.n
    mm = m.mat

    def pt(x):
        return partial_transpose_array(x, dims)

    if set_tag == "PPT":
        project_x = lambda x: _project_spectral(x, _project_simplex)
        project_y = _clip_psd

        def feasible(x):
            polished = _polish_to_boundary(x, dims)
            return x if polished is None else polished

    else:
        project_x = _clip_psd
        project_y = lambda y: _project_spectral(y, _project_l1_ball)

        def feasible(x):
            return x / max(1.0, float(np.sum(np.abs(np.linalg.eigvalsh(pt(x))))))

    y = np.eye(n, dtype=complex) / n
    u = np.zeros((n, n), dtype=complex)
    for iterations in range(1, cfg.max_iters + 1):
        x = project_x(pt(y - u) + mm)
        z = pt(x) + u
        y = project_y(z)
        u = z - y
        sigma = feasible(x)
        value = float(np.vdot(mm, sigma).real)
        gap = dual_bound(mm, dims, set_tag, -u if set_tag == "PPT" else u) - value
        if gap <= GAP_STOP:
            break

    sigma_h = hermitian(sigma, dims)
    certificate = None
    if set_tag == "PPT":
        try:
            if is_boundary_of_P(sigma_h):
                certificate = ppt_functional(sigma_h)
        except PreconditionError:
            certificate = None

    converged = _shift_feasible(sigma, dims, set_tag)[1] <= TOL_FEAS and gap <= 1e-6
    return LinearSolveResult(
        sigma_hat=sigma_h,
        value=value,
        gap=gap,
        status="CONVERGED" if converged else "NONCONVERGED",
        certificate=certificate,
        iterations=iterations,
    )
