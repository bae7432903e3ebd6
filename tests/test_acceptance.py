"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also asserts, so a plain pytest run enforces everything.
"""

import time

import numpy as np
import pytest

from entbound import (
    additivity_check,
    build_family,
    build_kernel,
    frechet_apply,
    frechet_pinv_apply,
    hermitian,
    is_ppt,
    log_fn,
    log_negativity,
    matrix_function,
    maximize_linear,
    minimize_ree,
    neg_log_fn,
    ppt_functional,
    quasi_f_relative_entropy,
    rains_converse,
    rains_functional,
    random_boundary_state,
    random_hermitian,
    random_state,
    ree_closed_form,
    relative_entropy,
    renyi_relative_entropy,
    sandwiched_renyi,
    support_projector,
    trace_inner_product,
    trace_norm,
    verify_rains_min,
)
from samplers import sample_ppt_states
from conftest import bell_state, random_positive, random_positive_state


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_frechet_engine():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_adj = worst_fd = worst_fix = 0.0
    for n in (2, 4, 6, 9):
        for _ in range(25):
            a = random_positive((n, 1), rng)
            b = random_hermitian((n, 1), rng)
            k = build_kernel(log_fn(), a)

            c = random_hermitian((n, 1), rng)
            adj = abs(
                trace_inner_product(c, frechet_apply(k, b))
                - trace_inner_product(frechet_apply(k, c), b)
            )
            worst_adj = max(worst_adj, adj)

            t = 1e-6
            fd = (
                matrix_function(log_fn(), hermitian(a.mat + t * b.mat)).mat
                - matrix_function(log_fn(), a).mat
            ) / t
            rel = np.linalg.norm(fd - frechet_apply(k, b).mat) / np.linalg.norm(b.mat)
            worst_fd = max(worst_fd, rel)

            p = support_projector(a)
            fix1 = np.linalg.norm(frechet_apply(k, a).mat - p.mat)
            fix2 = np.linalg.norm(frechet_pinv_apply(k, p).mat - a.mat)
            worst_fix = max(worst_fix, fix1, fix2)
    elapsed = time.monotonic() - t0
    ok = worst_adj < 1e-10 and worst_fd < 1e-4 and worst_fix < 1e-10 and elapsed < 5.0
    report(
        1,
        ok,
        f"self-adjoint {worst_adj:.2e}, fd {worst_fd:.2e}, "
        f"fixed-points {worst_fix:.2e}, {elapsed:.2f}s",
    )
    assert worst_adj < 1e-10
    assert worst_fd < 1e-4
    assert worst_fix < 1e-10
    assert elapsed < 5.0


def test_criterion_2_ppt_functionals():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    plan = [((2, 2), 17), ((2, 3), 17), ((3, 3), 16)]
    worst_anchor = 0.0
    worst_violation = -np.inf
    for dims, count in plan:
        batch = sample_ppt_states(dims, 10_000, rng)
        for seed in range(count):
            sigma = random_boundary_state(dims, 1000 + seed)
            f = ppt_functional(sigma)
            worst_anchor = max(worst_anchor, abs(f.anchor_value - 1.0))
            vals = np.einsum("ij,kji->k", f.phi.mat, batch).real
            worst_violation = max(worst_violation, float(np.max(vals)) - 1.0)
    elapsed = time.monotonic() - t0
    ok = worst_anchor < 1e-9 and worst_violation <= 1e-10 and elapsed < 30.0
    report(
        2,
        ok,
        f"50 anchors, anchor-eq {worst_anchor:.2e}, "
        f"max battery violation {worst_violation:.2e}, {elapsed:.1f}s",
    )
    assert worst_anchor < 1e-9
    assert worst_violation <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_converse_forward_consistency():
    t0 = time.monotonic()
    worst_val = worst_iter = 0.0
    plan = [((2, 2), 25), ((2, 3), 10)]
    for dims, count in plan:
        for seed in range(count):
            sigma = random_boundary_state(dims, 3000 + seed)
            fam = build_family(sigma, ppt_functional(sigma))
            # Stay inside the family: the endpoint state is singular and the
            # minimizer uniqueness argument needs full-rank rho.
            for frac in (0.3, 0.6, 0.9):
                x = frac * fam.x_max
                closed = ree_closed_form(fam, x)
                res = minimize_ree(fam.state(x), "PPT")
                worst_val = max(worst_val, abs(res.value - closed))
                worst_iter = max(
                    worst_iter, np.linalg.norm(res.sigma_hat.mat - sigma.mat)
                )
    elapsed = time.monotonic() - t0
    ok = worst_val < 2e-4 and worst_iter < 1e-3 and elapsed < 300.0
    report(
        3,
        ok,
        f"35 families x3, |closed-solver| {worst_val:.2e}, "
        f"|sigma_hat-sigma*| {worst_iter:.2e}, {elapsed:.1f}s",
    )
    assert worst_val < 2e-4
    assert worst_iter < 1e-3
    assert elapsed < 300.0


def test_criterion_4_rains_converse():
    t0 = time.monotonic()
    accepted = refused = 0
    verified = True
    refusal_with_negative_pt = False
    # Bell anchor: accepted singular case.
    tau_bell = hermitian(bell_state().mat / 2, (2, 2))
    res = rains_converse(tau_bell, rains_functional(tau_bell))
    assert res.accepted
    accepted += 1
    verified &= verify_rains_min(res.rho, tau_bell).passed

    rng = np.random.default_rng(404)
    for _ in range(12):
        rho = random_positive_state((2, 2), rng)
        tau = hermitian(rho.mat / trace_norm(rho.pt), (2, 2))
        pt_min = np.linalg.eigvalsh(tau.pt.mat)[0]
        out = rains_converse(tau, rains_functional(tau))
        if out.accepted:
            accepted += 1
            verified &= verify_rains_min(out.rho, tau).passed
        else:
            refused += 1
            if pt_min < -1e-8:
                refusal_with_negative_pt = True
    elapsed = time.monotonic() - t0
    ok = verified and refusal_with_negative_pt and elapsed < 60.0
    report(
        4,
        ok,
        f"{accepted} accepted (all verified: {verified}), {refused} refusals, "
        f"negative-PT refusal seen: {refusal_with_negative_pt}, {elapsed:.1f}s",
    )
    assert verified
    assert refusal_with_negative_pt
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def qubit_audit_records():
    records = []
    plan = [((2, 2), 50, 505), ((2, 3), 20, 506)]
    for dims, count, seed in plan:
        rng = np.random.default_rng(seed)
        done = 0
        while done < count:
            rho = random_state(dims, rng)
            if is_ppt(rho):
                continue
            done += 1
            ep = minimize_ree(rho, "PPT")
            rb = minimize_ree(rho, "RAINS_T", extra_candidates=[ep.sigma_hat])
            records.append(
                {
                    "dims": dims,
                    "ree": ep.value,
                    "rains": rb.value,
                    "ln": log_negativity(rho),
                    "min_eig": float(np.linalg.eigvalsh(rho.mat)[0]),
                }
            )
    return records


def test_criterion_5_qubit_equality(qubit_audit_records):
    t0 = time.monotonic()
    gaps = [abs(r["rains"] - r["ree"]) for r in qubit_audit_records]
    max_gap = max(gaps)

    # Control dimensions (3, 3): report only, no pass bar.
    rng = np.random.default_rng(507)
    control_gaps = []
    done = 0
    while done < 8:
        rho = random_state((3, 3), rng)
        if is_ppt(rho):
            continue
        done += 1
        ep = minimize_ree(rho, "PPT")
        rb = minimize_ree(rho, "RAINS_T", extra_candidates=[ep.sigma_hat])
        control_gaps.append(ep.value - rb.value)
    elapsed = time.monotonic() - t0
    ok = max_gap < 5e-4
    report(
        5,
        ok,
        f"70 qubit-side samples max |R-E| {max_gap:.2e}; "
        f"3x3 control max E-R {max(control_gaps):.2e} (report only), {elapsed:.1f}s",
    )
    assert max_gap < 5e-4
    assert elapsed < 600.0


def test_criterion_6_order_relations(qubit_audit_records):
    ok_lower = all(r["rains"] >= -1e-10 for r in qubit_audit_records)
    ok_ree = all(r["rains"] <= r["ree"] + 5e-4 for r in qubit_audit_records)
    ok_ln = all(r["rains"] <= r["ln"] + 1e-8 for r in qubit_audit_records)
    full_rank = [r for r in qubit_audit_records if r["min_eig"] > 1e-8]
    ok_strict = all(r["rains"] < r["ln"] - 1e-6 for r in full_rank)
    ok = ok_lower and ok_ree and ok_ln and ok_strict
    report(
        6,
        ok,
        f"{len(qubit_audit_records)} samples: 0<=R {ok_lower}, R<=E_P {ok_ree}, "
        f"R<=LN {ok_ln}, strict R<LN on {len(full_rank)} full-rank {ok_strict}",
    )
    assert ok_lower and ok_ree and ok_ln and ok_strict


def test_criterion_7_bell_desk_numbers():
    t0 = time.monotonic()
    bell = bell_state()
    ep = minimize_ree(bell, "PPT").value
    ln = log_negativity(bell)
    hppt = maximize_linear(bell).value
    elapsed = time.monotonic() - t0
    ok = (
        abs(ep - np.log(2)) < 2e-4
        and abs(ln - np.log(2)) < 2e-4
        and abs(hppt - 0.5) < 1e-5
    )
    report(
        7,
        ok,
        f"E_P(Bell)={ep:.6f}, LN(Bell)={ln:.6f}, h_PPT(Bell proj)={hppt:.6f}, "
        f"{elapsed:.2f}s",
    )
    assert abs(ep - np.log(2)) < 2e-4
    assert abs(ln - np.log(2)) < 2e-4
    assert abs(hppt - 0.5) < 1e-5


def test_criterion_8_divergence_zoo():
    rng = np.random.default_rng(808)
    worst_quasi = worst_sand = worst_limit = 0.0
    for i in range(50):
        n = (2, 3, 4)[i % 3]
        rho = random_positive_state((n, 1), rng)
        sigma = random_positive_state((n, 1), rng)
        worst_quasi = max(
            worst_quasi,
            abs(quasi_f_relative_entropy(neg_log_fn(), rho, sigma) - relative_entropy(rho, sigma)),
        )
        # Commuting pair in a shared random eigenbasis.
        w, v = np.linalg.eigh(random_hermitian((n, 1), rng).mat)
        p = rng.uniform(0.2, 1.0, size=n)
        p /= p.sum()
        s = rng.uniform(0.2, 1.0, size=n)
        s /= s.sum()
        crho = hermitian((v * p) @ v.conj().T)
        csig = hermitian((v * s) @ v.conj().T)
        for alpha in (0.5, 0.7, 0.9):
            worst_sand = max(
                worst_sand,
                abs(
                    sandwiched_renyi(alpha, crho, csig)
                    - renyi_relative_entropy(alpha, crho, csig)
                ),
            )
        alpha = 1.0 - 1e-4
        rel = relative_entropy(rho, sigma)
        worst_limit = max(
            worst_limit,
            abs(renyi_relative_entropy(alpha, rho, sigma) - rel),
            abs(sandwiched_renyi(alpha, rho, sigma) - rel),
        )
    ok = worst_quasi < 1e-9 and worst_sand < 1e-9 and worst_limit < 1e-3
    report(
        8,
        ok,
        f"quasi-vs-relent {worst_quasi:.2e}, sandwiched-vs-renyi {worst_sand:.2e}, "
        f"alpha->1 limit {worst_limit:.2e}",
    )
    assert worst_quasi < 1e-9
    assert worst_sand < 1e-9
    assert worst_limit < 1e-3



def _bell_diagonal_boundary_anchor(seed: int):
    """Full-rank Bell-diagonal state with the largest weight tuned to 1/2.

    Bell-diagonal states are PPT exactly when no weight exceeds 1/2, so the
    tuned state sits on the boundary and everything built from it commutes
    with its hyperplane.
    """
    rng = np.random.default_rng(seed)
    kets = np.array(
        [
            [1, 0, 0, 1],
            [1, 0, 0, -1],
            [0, 1, 1, 0],
            [0, 1, -1, 0],
        ],
        dtype=complex,
    ) / np.sqrt(2)
    q = rng.uniform(0.1, 1.0, size=4)
    q /= q.sum()
    i = int(np.argmax(q))
    t = (0.5 - q[i]) / (1.0 - q[i])
    q = (1 - t) * q
    q[i] += t
    mat = sum(q[k] * np.outer(kets[k], kets[k].conj()) for k in range(4))
    return hermitian(mat, (2, 2))


def test_criterion_9_weak_additivity():
    # Generic anchors: both condition residuals are reported.
    sigma = random_boundary_state((2, 2), 909)
    generic = additivity_check(sigma, ppt_functional(sigma))
    assert generic.commutator_norm >= 0.0
    assert generic.condition_two_available
    assert generic.max_eig_minus_one is not None
    assert generic.min_eig_minus_one is not None

    # Seeded search for a commuting PASS instance among Bell-diagonal anchors.
    found = None
    for seed in range(20):
        anchor = _bell_diagonal_boundary_anchor(seed)
        if np.linalg.eigvalsh(anchor.mat)[0] < 1e-6:
            continue
        try:
            rep = additivity_check(anchor, ppt_functional(anchor))
        except Exception:
            continue
        if rep.passed:
            found = (seed, rep)
            break
    ok = found is not None
    detail = (
        f"generic residuals (comm {generic.commutator_norm:.2e}, "
        f"max-eig-1 {generic.max_eig_minus_one:.2e}); "
    )
    if found:
        seed, rep = found
        detail += (
            f"commuting PASS at seed {seed} "
            f"(comm {rep.commutator_norm:.2e}, max-eig-1 {rep.max_eig_minus_one:.2e})"
        )
    else:
        detail += "no commuting PASS found"
    report(9, ok, detail)
    assert ok
