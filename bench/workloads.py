"""The three workloads: oracle-made inputs, one timed operation per input, checks.

A workload yields rounds of cases. Every round holds the same operations in
the same order, with inputs made from the seed and the round index, so a run
of whole rounds fails the same share of its operations whatever the seed and
however many rounds it completes. Each case's ``run`` makes the library calls
that the matching CLI subcommand makes, with the same default
``SolverConfig``; its ``check`` compares the result with the oracle, or with
a property the method must have, never with stored output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

import oracle

FAMILY_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
# Seeds of the inputs that do not depend on --seed: the forward base states
# and the generic effects of the linear workload (see their classes).
BASE_SEED = 20140201
GENERIC_SEED = 20140202


@dataclass
class Check:
    """Failure reasons of one operation and its distances to oracle references."""

    failures: list[str] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    label_only: bool = True  # every failure is a status label contradicting the oracle

    def expect(self, ok: bool, reason: str) -> None:
        if not ok:
            self.failures.append(reason)
            self.label_only = False

    def reference(self, what: str, value: float, ref: float, tol: float) -> bool:
        err = abs(value - ref)
        self.errors.append(err)
        self.expect(err <= tol, f"{what} misses the oracle reference by more than {tol:g}")
        return err <= tol

    def status(self, what: str, status: str, meets_reference: bool) -> None:
        if status == "CONVERGED" and not meets_reference:
            self.failures.append(f"{what}: CONVERGED on a value that misses the reference")
        elif status != "CONVERGED" and meets_reference:
            self.failures.append(f"{what}: {status} on a value that meets the reference")

    def state(self, what: str, mat: np.ndarray, tol: float) -> None:
        self.expect(
            abs(np.trace(mat).real - 1.0) <= tol and oracle.is_psd(mat, tol),
            f"{what} is not a state within {tol:g}",
        )


@dataclass(frozen=True)
class Case:
    label: str
    probe: np.ndarray  # the input handed to the projection probe of a traced run
    dims: tuple[int, int]
    run: Callable[[], Any]
    check: Callable[[Any], Check]
    # Set on operations that fail every time through a named fault of the
    # program: a wrong status label on a value that meets its reference.
    known_fault: bool = False


def _round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _dims_label(dims: tuple[int, int]) -> str:
    return f"{dims[0]}x{dims[1]}"


class ForwardWorkload:
    """`entbound compare`: REE over PPT, Rains bound over T, log negativity.

    Per round and per dims in DIMS: two converse-family states with a known
    REE and one NPT Ginibre state. The cost of a solve follows its iteration
    count, which ranges from about 12 to the 400 cap with the input, so
    independent inputs per seed would make the seed, not the program, set
    the figures. Round r therefore draws its base states from a stream fixed
    by r alone, and the seed rotates each by its own Haar-random local
    unitary U_A ⊗ U_B. The values, both constraint sets and the solver's path
    are covariant under local unitaries, so every seed poses the same
    problems in another basis; iteration counts repeat, except on solves that
    stall near the cap, where rounding decides. With two family states per
    Ginibre state the median falls inside the family group, not on the gap
    between the groups.
    """

    name = "forward"
    DIMS = ((2, 3), (2, 4), (3, 3))
    FAMILY_PER_GINIBRE = 2

    def __init__(self, eb):
        self.eb = eb

    def round(self, seed: int, r: int) -> list[Case]:
        base = np.random.default_rng([BASE_SEED, r])
        rotations = _round_rng(seed, r)
        cases = []
        for dims in self.DIMS:
            for _ in range(self.FAMILY_PER_GINIBRE):
                anchor = oracle.boundary_anchor(dims, base)
                direction = oracle.family_direction(anchor, dims)
                x = oracle.family_x_max(anchor, direction) * base.uniform(0.25, 0.75)
                u = oracle.local_unitary(dims, rotations)
                rho = oracle.rotate(u, oracle.family_state(anchor, direction, x))
                ree = oracle.relative_entropy(rho, oracle.rotate(u, anchor))
                cases.append(self._case("family", dims, rho, ree))
            u = oracle.local_unitary(dims, rotations)
            rho = oracle.rotate(u, oracle.npt_ginibre_state(dims, base))
            cases.append(self._case("ginibre", dims, rho, None))
        return cases

    def _case(self, kind, dims, rho, ree_ref):
        eb = self.eb

        def run():
            rho_h = eb.linalg.hermitian(rho, dims)
            config = eb.solver.SolverConfig()
            ep = eb.solver.minimize_ree(rho_h, "PPT", config)
            rb = eb.solver.minimize_ree(rho_h, "RAINS_T", config, extra_candidates=[ep.sigma_hat])
            return ep, rb, eb.divergences.log_negativity(rho_h)

        def check(out) -> Check:
            ep, rb, ln = out
            e, r = ep.value, rb.value
            c = Check()
            if ree_ref is not None:
                c.status("REE solve", ep.status, c.reference("REE", e, ree_ref, 1e-7))
            c.reference("log negativity", ln, oracle.log_negativity(rho, dims), 1e-9)
            c.expect(r <= e + 1e-9, "Rains bound above REE")
            c.expect(r <= ln + 1e-8, "Rains bound above log negativity")
            n = dims[0] * dims[1]
            c.expect(e <= np.log(n) - oracle.entropy(rho) + 1e-9, "REE above S(rho || 1/n)")
            c.expect(r >= oracle.hashing_bound(rho, dims) - 1e-9, "Rains bound below hashing bound")
            if 2 in dims:
                c.expect(abs(r - e) <= 5e-4, "Rains bound and REE differ with a qubit side")
            return c

        return Case(f"{kind} {_dims_label(dims)}", rho, dims, run, check)


class ConverseWorkload:
    """The converse construction at one oracle-made PPT-boundary anchor per dims."""

    name = "converse"
    DIMS = ((2, 3), (2, 4), (3, 3))

    def __init__(self, eb):
        self.eb = eb

    def round(self, seed: int, r: int) -> list[Case]:
        rng = _round_rng(seed, r)
        return [self._case(dims, oracle.boundary_anchor(dims, rng)) for dims in self.DIMS]

    def _case(self, dims, anchor):
        eb = self.eb

        def run():
            sigma = eb.linalg.hermitian(anchor, dims)
            functional = eb.ppt.ppt_functional(sigma)
            family = eb.ree.build_family(sigma, functional)
            xs = [family.x_max * f for f in FAMILY_FRACTIONS]
            states = [family.state(x) for x in xs]
            closed = [eb.ree.ree_closed_form(family, x) for x in xs]
            cps = eb.ree.verify_cps(family.state(family.x_max / 2), sigma)
            rains_fn = eb.rains.rains_functional(sigma)
            converse = eb.rains.rains_converse(sigma, rains_fn)
            rains = None
            if converse.accepted:
                rains = (
                    eb.rains.verify_rains_min(converse.rho, sigma),
                    eb.rains.rains_closed_form(sigma, rains_fn, converse.rho),
                )
            return xs, states, closed, cps, converse, rains

        def check(out) -> Check:
            xs, states, closed, cps, converse, rains = out
            c = Check()
            direction = oracle.family_direction(anchor, dims)
            for x, state, value in zip(xs, states, closed):
                ref_state = oracle.family_state(anchor, direction, x)
                c.expect(
                    float(np.max(np.abs(state.mat - ref_state))) <= 1e-9,
                    "family state differs from the oracle's rho(x)",
                )
                ref_value = oracle.relative_entropy(ref_state, anchor)
                c.reference("REE closed form", value, ref_value, 1e-9)
            c.state("rho(x_max)", states[-1].mat, 1e-9)
            c.expect(cps.passed, "verify_cps did not pass on rho(x_max/2)")
            rains_dir = oracle.log_derivative_pinv(anchor, oracle.rains_functional(anchor, dims))
            c.expect(
                converse.accepted == oracle.is_psd(rains_dir, 1e-10),
                "rains_converse acceptance differs from PSD-ness of the oracle's L‡(phi)",
            )
            if rains is not None:
                certificate, value = rains
                c.expect(certificate.passed, "verify_rains_min did not pass")
                ref_value = oracle.relative_entropy(converse.rho.mat, anchor)
                c.reference("Rains closed form", value, ref_value, 1e-9)
                c.expect(
                    value <= oracle.log_negativity(converse.rho.mat, dims) + 1e-9,
                    "Rains closed form above log negativity",
                )
            return c

        return Case(f"anchor {_dims_label(dims)}", anchor, dims, run, check)


class LinearWorkload:
    """`entbound hppt`: maximize Tr[Mσ] over PPT states, 0 ⪯ M ⪯ 1.

    Per round: one pure-state projector M per dims in DIMS, drawn from the
    seed (reference: its largest squared Schmidt coefficient), then the fixed
    generic effects of GENERIC (reference: the oracle's seesaw), the same in
    every round and run. `maximize_linear` labels every generic M
    NONCONVERGED, because its gap is measured against the loose bound
    min(λmax M, λmax M^Γ), so those operations fail every time; as they do
    not depend on the seed, every run fails the same share. Pure-state
    solves take 20-300 ms, generic 2×2 ones about 0.8 s and the 2×3 one about
    3 s; with two generic 2×2 effects the median falls inside their group.
    """

    name = "linear"
    DIMS = ((2, 2), (2, 3))
    GENERIC = ((2, 2), (2, 2), (2, 3))

    def __init__(self, eb):
        self.eb = eb
        rng = np.random.default_rng(GENERIC_SEED)
        self.generic = []
        for dims in self.GENERIC:
            m = oracle.random_effect(dims[0] * dims[1], rng)
            case = self._case("generic", dims, m, oracle.seesaw_max(m, dims, rng))
            self.generic.append(replace(case, known_fault=True))

    def round(self, seed: int, r: int) -> list[Case]:
        rng = _round_rng(seed, r)
        cases = []
        for dims in self.DIMS:
            psi = oracle.random_ket(dims[0] * dims[1], rng)
            m = np.outer(psi, psi.conj())
            cases.append(self._case("pure", dims, m, oracle.schmidt_max_sq(psi, dims)))
        return cases + self.generic

    def _case(self, kind, dims, m, ref):
        eb = self.eb

        def run():
            m_h = eb.linalg.hermitian(m, dims)
            return eb.solver.maximize_linear(m_h, eb.solver.SolverConfig(), set_tag="PPT")

        def check(res) -> Check:
            c = Check()
            meets = c.reference("max Tr[M sigma]", res.value, ref, 1e-7)
            c.status("linear solve", res.status, meets)
            sigma = res.sigma_hat.mat
            c.state("sigma_hat", sigma, 1e-8)
            c.expect(oracle.min_pt_eig(sigma, dims) >= -1e-8, "sigma_hat is not PPT within 1e-8")
            return c

        return Case(f"{kind} {_dims_label(dims)}", m, dims, run, check)


WORKLOADS = {w.name: w for w in (ForwardWorkload, ConverseWorkload, LinearWorkload)}
