"""The PPT set and the Rains set: membership, supporting functionals, minimality.

A state σ* on the boundary of the PPT set (its partial transpose has a zero
eigenvector) supports hyperplanes of the form

    φ = 1 - Σ_i a_i (|φ_i⟩⟨φ_i|)^Γ,   a_i ≥ 0,

where |φ_i⟩ runs over the zero eigenvectors of σ*^Γ. Then Tr[φσ] ≤ 1 for all
PPT σ with equality at σ*, and the coefficients are rescaled so that
Tr[(P_σ* - φ)²] = 1.

On the Rains set the form is (P₁ - P₂ + Q)^Γ (see `entbound.rains`). On
either set the form is a dual point B of the weak-duality bound
`dual_bound`, read off φ and its anchor by `supporting_dual`, and φ has the
form exactly when B rebuilds it (`form_residual`). Whether a given φ attains
its maximum over the set at a point is decided by `dual_bound`:
`certified_max` takes its smallest value over one fixed set of dual points
per set, and it certifies both the forward solver's results and
`verify_minimum`, the paper's minimality test for S(ρ‖·).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotPSDError, PreconditionError
from .frechet import build_kernel, induced_functional, log_fn
from .linalg import (
    HermitianMatrix,
    from_json_dict,
    hermitian,
    is_psd,
    min_eigenvalue,
    partial_transpose_array,
    random_state,
    rel_tol,
    signed_eigenspaces,
    support_projector,
    to_json_dict,
    trace_inner_product,
    trace_norm,
)


# Frobenius bound on φ - built(B), the distance of φ from the supporting form
# rebuilt from its own dual point B = `supporting_dual(φ, anchor, set)`.
FORM_TOL = 1e-7


@dataclass(frozen=True)
class SupportingFunctional:
    """Matrix φ supporting the PPT set ("PPT") or the Rains set ("RAINS_T") at an anchor.

    The constructor checks that Tr[φ·anchor] = 1, that φ has its set's form
    at the anchor (`form_residual` at `supporting_dual` at most FORM_TOL)
    and that the anchor lies in the set (`is_ppt`, or PSD for the Rains
    set). Together these say that Tr[φσ] ≤ 1 over the set, with equality at
    the anchor.
    """

    phi: HermitianMatrix
    anchor: HermitianMatrix
    set_tag: str

    def __post_init__(self) -> None:
        if self.set_tag not in ("PPT", "RAINS_T"):
            raise PreconditionError(f"unknown set tag {self.set_tag!r}")
        if self.phi.dims != self.anchor.dims:
            raise DimensionMismatchError(f"dims {self.phi.dims} != {self.anchor.dims}")
        anchor_value = trace_inner_product(self.phi, self.anchor)
        if abs(anchor_value - 1.0) > 1e-9:
            raise PreconditionError(
                f"anchor equality violated: Tr[phi anchor] = {anchor_value:.12f}"
            )
        b = supporting_dual(self.phi, self.anchor, self.set_tag)
        residual = form_residual(self.phi, self.set_tag, b)
        if residual > FORM_TOL:
            raise PreconditionError(
                f"phi lacks the supporting form of {self.set_tag} at its anchor "
                f"(residual {residual:.3e})"
            )
        inside = is_ppt(self.anchor) if self.set_tag == "PPT" else is_psd(self.anchor)
        if not inside:
            raise PreconditionError(f"anchor lies outside the {self.set_tag} set")

    @property
    def anchor_value(self) -> float:
        return trace_inner_product(self.phi, self.anchor)


def functional_to_json_dict(f: SupportingFunctional) -> dict:
    return {"phi": to_json_dict(f.phi), "anchor": to_json_dict(f.anchor), "set": f.set_tag}


def functional_from_json_dict(d: dict) -> SupportingFunctional:
    """Read a functional; the ``certificate`` key of older files is ignored."""
    try:
        phi = from_json_dict(d["phi"])
        anchor = from_json_dict(d["anchor"])
        tag = d["set"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatchError(f"malformed functional object: {exc}") from exc
    return SupportingFunctional(phi=phi, anchor=anchor, set_tag=tag)


def supporting_dual(
    phi: HermitianMatrix, anchor: HermitianMatrix, set_tag: str
) -> np.ndarray:
    """The dual point B of `dual_bound` that the paper's supporting form of φ names.

    B is read off φ and its anchor alone, in the eigenbasis of anchor^Γ split
    by `linalg.signed_eigenspaces`:

    - "PPT": the PSD part of (1 - φ)^Γ compressed onto ker anchor^Γ. When
      φ = 1 - Σ a_i (|φ_i⟩⟨φ_i|)^Γ over that kernel with a_i ≥ 0, B is
      Σ a_i |φ_i⟩⟨φ_i|.
    - "RAINS_T": P₊ - P₋ + Q, with P₊ and P₋ the projectors onto the positive
      and negative eigenspaces of anchor^Γ and Q φ^Γ compressed onto its
      kernel, with the spectrum clipped to [-1, 1]. When φ = (P₁ - P₂ + Q)^Γ,
      B is that matrix.

    Either B lies in the domain where `dual_bound` is valid, and φ has the
    form exactly when `form_residual` at B is zero.
    """
    v, pos, neg, null = signed_eigenspaces(anchor.pt)
    phi_pt = partial_transpose_array(phi.mat, phi.dims)
    if set_tag == "PPT":
        target, bounds = np.eye(phi.n) - phi_pt, (0.0, None)
        b = np.zeros_like(phi_pt)
    elif set_tag == "RAINS_T":
        target, bounds = phi_pt, (-1.0, 1.0)
        b = v[:, pos] @ v[:, pos].conj().T - v[:, neg] @ v[:, neg].conj().T
    else:
        raise PreconditionError(f"unknown set tag {set_tag!r}")
    kernel = v[:, null]
    if kernel.shape[1]:
        comp = kernel.conj().T @ target @ kernel
        w, u = np.linalg.eigh((comp + comp.conj().T) / 2)
        u = kernel @ u
        b = b + (u * np.clip(w, *bounds)) @ u.conj().T
    return b


def form_residual(phi: HermitianMatrix, set_tag: str, b: np.ndarray) -> float:
    """Frobenius distance of φ from the form built on the dual point B.

    The form is 1 - B^Γ on the PPT set and B^Γ on the Rains set.
    """
    b_pt = partial_transpose_array(b, phi.dims)
    built = np.eye(phi.n) - b_pt if set_tag == "PPT" else b_pt
    return float(np.linalg.norm(phi.mat - built))


def dual_bound(
    phi: np.ndarray, dims: tuple[int, int], set_tag: str, b: np.ndarray
) -> float:
    """Weak-duality upper bound on max Tr[φσ] over the PPT set or the Rains set.

    ``phi`` and the dual point ``b`` are Hermitian arrays on the bipartition
    ``dims``; every certificate of the package is this bound at its own B.

    - "PPT": λmax(φ + B^Γ), valid for B ⪰ 0, since every PPT state σ has
      Tr[φσ] ≤ Tr[(φ + B^Γ)σ] ≤ λmax(φ + B^Γ).
    - "RAINS_T": ‖B + μ·1‖_op with μ = max(0, λmax(φ - B^Γ)), valid for any
      Hermitian B: Λ = B + μ·1 has Λ^Γ ⪰ φ, so every τ ⪰ 0 with ‖τ^Γ‖₁ ≤ 1
      has Tr[φτ] ≤ Tr[Λ^Γ τ] = Tr[Λ τ^Γ] ≤ ‖Λ‖_op.

    B is not checked; the caller builds it in the valid domain.
    """
    b_pt = partial_transpose_array(b, dims)
    if set_tag == "PPT":
        return float(np.linalg.eigvalsh(phi + b_pt)[-1])
    if set_tag == "RAINS_T":
        mu = max(0.0, float(np.linalg.eigvalsh(phi - b_pt)[-1]))
        return float(np.max(np.abs(np.linalg.eigvalsh(b) + mu)))
    raise PreconditionError(f"unknown set tag {set_tag!r}")


def certified_max(
    phi: HermitianMatrix, anchor: HermitianMatrix, set_tag: str
) -> tuple[float, np.ndarray]:
    """Certified upper bound on max Tr[φσ] over the PPT set or the Rains set.

    The bound is the smallest `dual_bound` of φ over one fixed set of dual
    points; minus Tr[φ·anchor] it bounds the first-order gap at the anchor:

    - the paper's B = `supporting_dual(φ, anchor, set_tag)`, exact when φ
      has the set's supporting form at the anchor;
    - the set's default point, λmax(φ^Γ)·1 - φ^Γ on the PPT set (where the
      bound reads λmax(φ^Γ)) and φ^Γ on the Rains set (‖φ^Γ‖_op);
    - B = 0.

    The default point and B = 0 take their bounds in closed form, bit for bit
    the values `dual_bound` computes there. The partial transpose permutes
    entries exactly, so on the PPT set φ + B^Γ at the default point is
    exactly diagonal, and on the Rains set φ - B^Γ is exactly 0 there (μ = 0)
    and φ at B = 0 (the bound is μ = max(0, λmax φ)).

    Returns the bound and the paper's B.
    """
    b = supporting_dual(phi, anchor, set_tag)
    phi_pt = partial_transpose_array(phi.mat, phi.dims)
    w_pt = np.linalg.eigvalsh(phi_pt)
    lam = float(np.linalg.eigvalsh(phi.mat)[-1])
    if set_tag == "PPT":
        diagonal = np.diagonal(phi.mat) + (float(w_pt[-1]) - np.diagonal(phi_pt))
        fixed = (float(np.max(diagonal.real)), lam)
    else:
        fixed = (float(np.max(np.abs(w_pt))), max(0.0, lam))
    bound = min(*fixed, dual_bound(phi.mat, phi.dims, set_tag, b))
    return bound, b


def is_ppt(sigma: HermitianMatrix, tol: float | None = None) -> bool:
    """True iff the partial transpose of the state is PSD within ``tol``."""
    w = sigma.spectrum.eigenvalues
    if w[0] < -1e-9 * max(1.0, float(np.max(np.abs(w)))):
        raise NotPSDError(f"is_ppt requires a PSD input (min eig {w[0]:.3e})")
    if abs(sigma.trace() - 1.0) > 1e-9:
        raise PreconditionError(f"is_ppt requires unit trace (got {sigma.trace():.9f})")
    w_pt = sigma.pt.spectrum.eigenvalues
    if tol is None:
        tol = rel_tol(w_pt)
    return float(w_pt[0]) >= -tol


def is_in_T(tau: HermitianMatrix, tol: float = 1e-10) -> bool:
    """Membership in the Rains set T: PSD within tol and ‖τ^Γ‖₁ ≤ 1 + tol."""
    if min_eigenvalue(tau) < -tol:
        return False
    return trace_norm(tau.pt) <= 1.0 + tol


@dataclass(frozen=True)
class MinimalityCertificate:
    """Outcome of `verify_minimum`: does the anchor minimize S(ρ‖·) over its set?"""

    passed: bool
    in_set: bool
    phi_hat: HermitianMatrix
    anchor_value: float
    max_violation: float
    form_ok: bool
    anchor_singular: bool
    violator: HermitianMatrix | None = None


def _farthest_ppt_on_segment(
    sigma_star: HermitianMatrix, target: np.ndarray
) -> HermitianMatrix:
    """Last PPT state on the segment from σ* toward the state ``target``.

    The PPT states on a segment from a PPT start form an interval, so
    bisection on the smallest partial-transpose eigenvalue finds its far end.
    """
    dims = sigma_star.dims
    a = sigma_star.pt.mat
    b = partial_transpose_array(target, dims)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if float(np.linalg.eigvalsh((1.0 - mid) * a + mid * b)[0]) >= 0.0:
            lo = mid
        else:
            hi = mid
    return hermitian((1.0 - lo) * sigma_star.mat + lo * target, dims)


def verify_minimum(
    rho: HermitianMatrix, anchor: HermitianMatrix, set_tag: str, tol: float = 1e-8
) -> MinimalityCertificate:
    """Check that ``anchor`` minimizes S(ρ‖·) over the PPT set or the Rains set.

    By the paper's converse theorem it does exactly when the induced
    functional φ̂ = L_anchor(ρ) supports the set at the anchor:
    Tr[φ̂σ] ≤ Tr[φ̂·anchor] over the set (for a singular anchor the test is
    sufficient only). ``max_violation`` is `certified_max(φ̂, anchor,
    set_tag)` minus Tr[φ̂·anchor], a certified upper bound on the largest
    violation. PASS means that the anchor lies in the set (``in_set``, by
    `is_ppt`'s rule on the PPT set and `is_in_T`'s on the Rains set) and
    ``max_violation`` is at most ``tol``. ``form_ok`` reports
    that φ̂ has the set's supporting form at the anchor (`form_residual` at
    the paper's dual point at most FORM_TOL); it never gates PASS, since the
    φ̂ of a singular anchor is masked off its support and generally lacks the
    form. ρ must be a state, and on a singular anchor it must live on the
    support (else `frechet.induced_functional` raises
    `SupportViolationError`). When the PPT test fails at an anchor in the
    set, ``violator`` is the farthest PPT state on the segment from the
    anchor toward the top eigenvector of φ̂ + B^Γ, with B the paper's dual
    point, if that state violates by more than ``tol``.
    """
    if abs(rho.trace() - 1.0) > 1e-9 or min_eigenvalue(rho) < -1e-9:
        raise PreconditionError("rho must be a unit-trace PSD state")
    kernel = build_kernel(log_fn(), anchor)
    phi_hat = induced_functional(kernel, rho)
    anchor_value = trace_inner_product(phi_hat, anchor)
    bound, b = certified_max(phi_hat, anchor, set_tag)
    max_violation = bound - anchor_value
    # Membership is reported, never raised: a non-state lies outside the PPT set.
    try:
        inside = is_in_T(anchor) if set_tag == "RAINS_T" else is_ppt(anchor)
    except (NotPSDError, PreconditionError):
        inside = False
    passed = inside and max_violation <= tol

    violator = None
    if set_tag == "PPT" and inside and not passed:
        top = np.linalg.eigh(phi_hat.mat + partial_transpose_array(b, anchor.dims))[1][:, -1]
        candidate = _farthest_ppt_on_segment(anchor, np.outer(top, top.conj()))
        if trace_inner_product(phi_hat, candidate) - anchor_value > tol:
            violator = candidate
    return MinimalityCertificate(
        passed=passed,
        in_set=inside,
        phi_hat=phi_hat,
        anchor_value=anchor_value,
        max_violation=max_violation,
        form_ok=form_residual(phi_hat, set_tag, b) <= FORM_TOL,
        anchor_singular=not kernel.mask.all(),
        violator=violator,
    )


def is_boundary_of_P(sigma: HermitianMatrix, tol: float | None = None) -> bool:
    """True iff σ is PPT and σ^Γ has a zero eigenvalue within ``tol``."""
    w_pt = sigma.pt.spectrum.eigenvalues
    if tol is None:
        tol = rel_tol(w_pt)
    if not is_ppt(sigma, tol):
        raise PreconditionError("boundary test requires a PPT state")
    return float(w_pt[0]) <= tol


def pt_zero_subspace(sigma_star: HermitianMatrix) -> np.ndarray:
    """Columns spanning the zero eigenspace of σ*^Γ (`linalg.signed_eigenspaces`)."""
    v, _, _, null = signed_eigenspaces(sigma_star.pt)
    return v[:, null]


def ppt_functional(
    sigma_star: HermitianMatrix, coefficients: np.ndarray | None = None
) -> SupportingFunctional:
    """Supporting functional of the PPT set anchored at a boundary state.

    φ = 1 - Σ a_i (|φ_i⟩⟨φ_i|)^Γ over the zero eigenvectors of σ*^Γ, with the
    coefficient vector rescaled so Tr[(P_σ* - φ)²] = 1. ``coefficients``
    defaults to all ones; only its direction matters.
    """
    if not is_boundary_of_P(sigma_star):
        raise PreconditionError("anchor is not on the boundary of the PPT set")
    vecs = pt_zero_subspace(sigma_star)
    m = vecs.shape[1]
    if coefficients is None:
        a = np.ones(m)
    else:
        a = np.asarray(coefficients, dtype=float)
    if a.shape != (m,):
        raise PreconditionError(
            f"expected {m} coefficients (zero-eigenvalue multiplicity), got {a.shape}"
        )
    if np.any(a < 0):
        raise PreconditionError("coefficients must be nonnegative")
    if not np.any(a > 0):
        raise PreconditionError("zero coefficient vector")

    n = sigma_star.n
    w_h = hermitian((vecs * a) @ vecs.conj().T, sigma_star.dims).pt

    p = support_projector(sigma_star)
    eye = np.eye(n)
    q_def = float(np.trace(eye - p.mat).real)  # Tr[(1-P)²] = corank
    pw = float(np.trace((eye - p.mat) @ w_h.mat).real)
    w2 = trace_inner_product(w_h, w_h)
    disc = pw * pw - w2 * (q_def - 1.0)
    if disc < 0:
        raise PreconditionError(
            "normalization Tr[(P - phi)^2] = 1 unreachable for this anchor/coefficients"
        )
    c = (pw + float(np.sqrt(disc))) / w2
    if c <= 0:
        raise PreconditionError("normalization requires a positive rescaling")

    phi = hermitian(eye - c * w_h.mat, sigma_star.dims)
    return SupportingFunctional(phi=phi, anchor=sigma_star, set_tag="PPT")


def random_boundary_state(dims: tuple[int, int], seed: int) -> HermitianMatrix:
    """PPT state whose partial transpose has minimum eigenvalue in [0, 1e-14].

    Samples a full-rank state σ0 with strictly positive partial transpose and
    a non-PPT direction ρ1, and stops the segment σ0 → ρ1 where its partial
    transpose first becomes singular. With S = (σ0^Γ)^(-1/2),
    ((1 - t)σ0 + tρ1)^Γ = S⁻¹((1 - t)·1 + t·Sρ1^ΓS)S⁻¹, so the crossing is
    t* = 1/(1 - μ) with μ = λmin(Sρ1^ΓS) < 0. One Newton step on the minimum
    eigenvalue along the segment removes the rounding of μ, and the step is
    then backed off one ulp at a time until the minimum eigenvalue is
    nonnegative. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    n = dims[0] * dims[1]

    def pt_min_eig(mat: np.ndarray) -> float:
        # Trial points are exactly Hermitian, so they need no HermitianMatrix wrapper.
        return float(np.linalg.eigvalsh(partial_transpose_array(mat, dims))[0])

    eye = np.eye(n) / n
    sigma0 = None
    for _ in range(200):
        cand = random_state(dims, rng).mat
        mix = 0.0
        while mix <= 1.0:
            trial = (1.0 - mix) * cand + mix * eye
            if pt_min_eig(trial) > 1e-3 / n:
                sigma0 = trial
                break
            mix += 0.1
        if sigma0 is not None:
            break
    if sigma0 is None:
        raise PreconditionError("failed to sample an interior PPT start")

    rho1 = None
    for _ in range(1000):
        cand = random_state(dims, rng).mat
        if pt_min_eig(cand) < -1e-6:
            rho1 = cand
            break
    if rho1 is None:
        raise PreconditionError("failed to sample a non-PPT direction")

    sigma0_pt = partial_transpose_array(sigma0, dims)
    rho1_pt = partial_transpose_array(rho1, dims)
    w0, v0 = np.linalg.eigh(sigma0_pt)
    s = (v0 / np.sqrt(w0)) @ v0.conj().T
    t = 1.0 / (1.0 - float(np.linalg.eigvalsh(s @ rho1_pt @ s)[0]))
    # S amplifies rounding by the condition number of σ0^Γ; one Newton step on
    # λmin(t), whose slope is ⟨v, (ρ1^Γ - σ0^Γ) v⟩ at its eigenvector v,
    # brings the crossing back to rounding level.
    w, v = np.linalg.eigh((1.0 - t) * sigma0_pt + t * rho1_pt)
    t -= w[0] / float(np.vdot(v[:, 0], (rho1_pt - sigma0_pt) @ v[:, 0]).real)
    for _ in range(64):
        out = (1.0 - t) * sigma0 + t * rho1
        m = pt_min_eig(out)
        if 0.0 <= m <= 1e-14:
            return hermitian(out, dims)
        if m > 1e-14:
            break
        t = float(np.nextafter(t, 0.0))
    raise PreconditionError(f"closed-form step missed the boundary (min PT eig {m:.3e})")
