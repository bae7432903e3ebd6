"""The Rains set T = {τ ⪰ 0 : ‖τ^Γ‖₁ ≤ 1} and its supporting functionals.

Supporting functionals of T at a boundary point τ* (trace-norm of the partial
transpose equal to one) are partial transposes of P₁ - P₂ + Q, where P₁ and
P₂ project onto the positive and negative eigenspaces of τ*^Γ and Q lives on
the nullspace with spectral norm at most one. A state ρ is minimized by τ*
exactly when ρ = L‡_τ*(φ) for such a φ with L‡_τ*(φ) ⪰ 0, and then

    R(ρ) = -S(ρ) - Tr[φ τ* log τ*] = S(ρ ‖ τ*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPSDError, PreconditionError, SupportViolationError
from .criteria import ConverseOutcome, _log_closed_form, general_converse
from .frechet import log_fn
from .linalg import (
    HermitianMatrix,
    hermitian,
    min_eigenvalue,
    random_state,
    rank_of,
    signed_eigenspaces,
    support_projector,
    trace_norm,
)
from .divergences import log_negativity
from .ppt import (
    FORM_TOL,
    MinimalityCertificate,
    SupportingFunctional,
    form_residual,
    is_ppt,
    supporting_dual,
    verify_minimum,
)


def _signed_projectors(a: HermitianMatrix):
    """P₊ and P₋, the projectors onto the positive and negative eigenspaces of ``a``."""
    v, pos, neg, _ = signed_eigenspaces(a)
    return v[:, pos] @ v[:, pos].conj().T, v[:, neg] @ v[:, neg].conj().T


def ball_functional(
    alpha: HermitianMatrix, null_part: HermitianMatrix | None = None
) -> HermitianMatrix:
    """Supporting functional of the trace-norm unit ball at ``alpha``.

    Returns ω = P₊ - P₋ + ω₃ with P₊/P₋ the projectors onto the positive and
    negative eigenspaces of alpha and ω₃ an optional Hermitian block on the
    nullspace with spectral norm at most one (default zero). Satisfies
    Tr[ωα] = ‖α‖₁ = 1 and Tr[ωβ] ≤ 1 on the ball; unique iff alpha has no
    zero eigenvalues.
    """
    if abs(trace_norm(alpha) - 1.0) > 1e-9:
        raise PreconditionError("anchor not on the unit sphere of the trace norm")
    p_pos, p_neg = _signed_projectors(alpha)
    omega = hermitian(p_pos - p_neg + (0.0 if null_part is None else null_part.mat), alpha.dims)
    # The ball's form at alpha is the Rains form at an anchor whose partial
    # transpose is alpha, read through Γ.
    phi = omega.pt
    if form_residual(phi, "RAINS_T", supporting_dual(phi, alpha.pt, "RAINS_T")) > FORM_TOL:
        raise PreconditionError(
            "null block must live on the nullspace of alpha with spectral norm at most 1"
        )
    return omega


def rains_functional(
    tau_star: HermitianMatrix, q: HermitianMatrix | None = None
) -> SupportingFunctional:
    """Supporting functional (P₁ - P₂ + Q)^Γ of T at a boundary anchor.

    P₁ and P₂ come from the spectral decomposition of τ*^Γ; Q defaults to
    zero on the nullspace (the canonical representative) and must satisfy
    P₁Q = P₂Q = 0 with spectral norm at most one, which the
    `SupportingFunctional` constructor checks.
    """
    if min_eigenvalue(tau_star) < -1e-10:
        raise NotPSDError("tau* must be PSD")
    tpt = tau_star.pt
    if abs(trace_norm(tpt) - 1.0) > 1e-9:
        raise PreconditionError("anchor must satisfy ||tau*^Gamma||_1 = 1")
    p1, p2 = _signed_projectors(tpt)
    phi = hermitian(p1 - p2 + (0.0 if q is None else q.mat), tau_star.dims).pt
    return SupportingFunctional(phi=phi, anchor=tau_star, set_tag="RAINS_T")


def rains_converse(
    tau_star: HermitianMatrix, functional: SupportingFunctional
) -> ConverseOutcome:
    """Recover the state ρ = L‡_τ*(φ) minimized by τ*, or refuse.

    The converse map is `criteria.general_converse` with g = log. Refusals:
    anchor off the trace-norm sphere; φ not supported inside supp(τ*) for
    singular anchors; L‡_τ*(φ) not PSD (no state is minimized by this
    hyperplane); L‡_τ*(φ) without unit trace. Accepted states have unit
    trace and live on supp(τ*).
    """
    if abs(trace_norm(tau_star.pt) - 1.0) > 1e-9:
        return ConverseOutcome(None, "tau* is not on the trace-norm sphere")
    try:
        out = general_converse(log_fn(), tau_star, functional)
    except SupportViolationError:
        return ConverseOutcome(None, "phi is not supported inside supp(tau*)")
    if out.accepted and abs(out.rho.trace() - 1.0) > 1e-9:
        return ConverseOutcome(None, f"recovered matrix has trace {out.rho.trace():.12f}")
    return out


def verify_rains_min(
    rho: HermitianMatrix,
    tau_star: HermitianMatrix,
    tol: float = 1e-8,
) -> MinimalityCertificate:
    """Check that τ* minimizes the Rains bound for ρ: `ppt.verify_minimum` on T."""
    return verify_minimum(rho, tau_star, "RAINS_T", tol)


def rains_closed_form(
    tau_star: HermitianMatrix,
    functional: SupportingFunctional,
    rho: HermitianMatrix,
) -> float:
    """Closed-form Rains bound R(ρ) = -S(ρ) - Tr[φ τ* log τ*].

    Valid when τ* minimizes the Rains bound for ρ with supporting functional
    φ (verify with ``verify_rains_min``); then it equals S(ρ ‖ τ*).
    """
    if abs(trace_norm(tau_star.pt) - 1.0) > 1e-8:
        raise PreconditionError("anchor must satisfy ||tau*^Gamma||_1 = 1")
    return _log_closed_form(rho, functional.phi, tau_star)


@dataclass(frozen=True)
class RainsLnReport:
    """Comparison of the Rains bound against the logarithmic negativity."""

    verdict: str  # "EQUAL" or "STRICT"
    max_support_overlap: float  # max over T of Tr[P_rho tau], certified lower end
    anchor_overlap: float  # Tr[P_rho tau*] with tau* = rho / ||rho^Gamma||_1
    log_negativity: float
    rho_full_rank: bool
    rho_ppt: bool
    rains_if_equal: float | None
    status: str  # status of the maximization over T


def rains_vs_ln(rho: HermitianMatrix, config=None) -> RainsLnReport:
    """Decide whether R(ρ) equals the logarithmic negativity of ρ.

    Equality holds iff the candidate minimizer τ* = ρ/‖ρ^Γ‖₁ attains the
    maximum of Tr[P_ρ τ] over T, whose value at τ* is 1/‖ρ^Γ‖₁. The
    maximization runs on the forward solver, which brackets the maximum in
    [value, value + gap]; EQUAL needs the bracket's upper end within 1e-6 of
    the anchor overlap, and ``status`` is the solve's label. Full-rank
    non-PPT states are always strict: there Tr[P_ρ τ] = Tr[τ] is maximized by
    PPT states at 1, above the anchor overlap.
    """
    from .solver import maximize_linear

    p_rho = support_projector(rho)
    res = maximize_linear(p_rho, config, set_tag="RAINS_T")
    anchor_overlap = 1.0 / trace_norm(rho.pt)
    ln = log_negativity(rho)
    full_rank = rank_of(rho) == rho.n
    ppt = is_ppt(rho)
    equal = res.value + res.gap <= anchor_overlap + 1e-6
    return RainsLnReport(
        verdict="EQUAL" if equal else "STRICT",
        max_support_overlap=res.value,
        anchor_overlap=anchor_overlap,
        log_negativity=ln,
        rho_full_rank=full_rank,
        rho_ppt=ppt,
        rains_if_equal=ln if equal else None,
        status=res.status,
    )


@dataclass(frozen=True)
class QubitEqualityReport:
    """Forward-solved Rains bound vs REE over random non-PPT states.

    ``nonconverged`` counts the solves (two per state) whose status is not
    CONVERGED; a gap between such values certifies nothing, so any of them
    fails the audit.
    """

    dims: tuple[int, int]
    seed: int
    ree_values: list = field(default_factory=list)
    rains_values: list = field(default_factory=list)
    ln_values: list = field(default_factory=list)
    max_gap: float = 0.0
    nonconverged: int = 0
    passed: bool | None = None  # None when no subsystem is a qubit (report only)


def qubit_equality_audit(
    dims: tuple[int, int], samples: int, seed: int, config=None
) -> QubitEqualityReport:
    """Compare forward-solved R and E over random non-PPT states.

    With one qubit subsystem the two must agree, and every solve must be
    CONVERGED; other dimensions are audited report-only with no pass bar.
    Both subsystems need dimension at least 2 (every state of a 1×n split is
    PPT, so no sample would ever be drawn) and ``samples`` must be at least
    1 (a PASS needs a solve behind it).
    """
    from .solver import minimize_ree

    if min(dims) < 2:
        raise PreconditionError(f"both subsystems need dimension >= 2, got {dims}")
    if samples < 1:
        raise PreconditionError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    ree_vals: list[float] = []
    rains_vals: list[float] = []
    ln_vals: list[float] = []
    nonconverged = 0
    count = 0
    while count < samples:
        rho = random_state(dims, rng)
        if is_ppt(rho):
            continue
        count += 1
        ep = minimize_ree(rho, "PPT", config)
        rb = minimize_ree(rho, "RAINS_T", config, extra_candidates=[ep.sigma_hat])
        nonconverged += (ep.status != "CONVERGED") + (rb.status != "CONVERGED")
        ree_vals.append(ep.value)
        rains_vals.append(rb.value)
        ln_vals.append(log_negativity(rho))
    gaps = [abs(r - e) for r, e in zip(rains_vals, ree_vals)]
    max_gap = max(gaps) if gaps else 0.0
    qubit_side = min(dims) == 2
    return QubitEqualityReport(
        dims=dims,
        seed=seed,
        ree_values=ree_vals,
        rains_values=rains_vals,
        ln_values=ln_vals,
        max_gap=max_gap,
        nonconverged=nonconverged,
        passed=(max_gap < 5e-4 and nonconverged == 0) if qubit_side else None,
    )
