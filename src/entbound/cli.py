"""Command-line frontend with JSON input/output.

Every subcommand reads and writes the repo-wide JSON matrix schema
(``{"dims": [n1, n2], "re": [[...]], "im": [[...]]}``). Exit codes: 0 on
success or PASS, 1 on FAIL or refusal, 2 on input errors. Only the
subcommands that draw random inputs (``boundary-sample``, ``audit``) take
``--seed``, and they echo it in the output; every computation is otherwise
deterministic, so identical invocations produce byte-identical JSON (the
version field is constant per release).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import EntboundError
from .linalg import from_json_dict, to_json_dict
from .divergences import (
    log_negativity,
    quasi_f_relative_entropy,
    relative_entropy,
    renyi_relative_entropy,
    sandwiched_renyi,
)
from .frechet import neg_log_fn
from .ppt import (
    functional_from_json_dict,
    functional_to_json_dict,
    ppt_functional,
    random_boundary_state,
    verify_minimum,
)
from .ree import build_family, family_to_json_dict, ree_closed_form
from .rains import qubit_equality_audit, rains_closed_form, rains_converse, rains_functional
from .solver import maximize_linear, minimize_ree


def _emit(obj: dict, out: str | None) -> None:
    obj = {"version": __version__, **obj}
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_matrix(path: str):
    d = _load_json(path)
    if isinstance(d, dict) and "re" not in d:
        # Accept outputs of other subcommands that wrap the matrix.
        for key in ("sigma_star", "tau_star", "rho", "sigma", "m", "sigma_hat", "matrix"):
            inner = d.get(key)
            if isinstance(inner, dict) and "re" in inner:
                d = inner
                break
    return from_json_dict(d)


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"dims must look like 2x3, got {text!r}")
    return int(parts[0]), int(parts[1])


def _scale(value: float, bits: bool) -> float:
    return value / math.log(2.0) if bits else value


def _cmd_boundary_sample(args) -> int:
    sigma = random_boundary_state(_parse_dims(args.dims), args.seed)
    _emit({"seed": args.seed, "sigma_star": to_json_dict(sigma)}, args.out)
    return 0


def _cmd_ppt_functional(args) -> int:
    sigma = _load_matrix(args.sigma_star)
    coeffs = None
    if args.coeffs:
        coeffs = np.asarray(_load_json(args.coeffs), dtype=float)
    functional = ppt_functional(sigma, coeffs)
    _emit(functional_to_json_dict(functional), args.out)
    return 0


def _cmd_ree_family(args) -> int:
    sigma = _load_matrix(args.sigma_star)
    functional = functional_from_json_dict(_load_json(args.phi))
    fam = build_family(sigma, functional)
    if args.x is not None:
        xs = [args.x]
    else:
        xs = [fam.x_max * f for f in (0.25, 0.5, 0.75, 1.0)]
    values = [{"x": x, "ree": _scale(ree_closed_form(fam, x), args.bits)} for x in xs]
    _emit({**family_to_json_dict(fam), "values": values}, args.out)
    return 0


def _cmd_verify(args) -> int:
    cert = verify_minimum(
        _load_matrix(args.rho), _load_matrix(args.anchor), args.set_tag, args.tol
    )
    _emit(
        {
            "passed": cert.passed,
            "in_set": cert.in_set,
            "anchor_value": cert.anchor_value,
            "max_violation": cert.max_violation,
            "form_ok": cert.form_ok,
            "anchor_singular": cert.anchor_singular,
            "phi_hat": to_json_dict(cert.phi_hat),
        },
        args.out,
    )
    return 0 if cert.passed else 1


def _cmd_rains_functional(args) -> int:
    tau = _load_matrix(args.tau_star)
    q = _load_matrix(args.q) if args.q else None
    functional = rains_functional(tau, q)
    _emit(functional_to_json_dict(functional), args.out)
    return 0


def _cmd_rains_converse(args) -> int:
    tau = _load_matrix(args.tau_star)
    functional = functional_from_json_dict(_load_json(args.phi))
    res = rains_converse(tau, functional)
    payload = {"accepted": res.accepted, "refusal": res.refusal}
    if res.accepted:
        payload["rho"] = to_json_dict(res.rho)
    _emit(payload, args.out)
    return 0 if res.accepted else 1


def _cmd_rains_closed_form(args) -> int:
    tau = _load_matrix(args.tau_star)
    functional = functional_from_json_dict(_load_json(args.phi))
    rho = _load_matrix(args.rho)
    value = rains_closed_form(tau, functional, rho)
    _emit({"rains": _scale(value, args.bits)}, args.out)
    return 0


def _cmd_compare(args) -> int:
    rho = _load_matrix(args.rho)
    ep = minimize_ree(rho, "PPT")
    rb = minimize_ree(rho, "RAINS_T", extra_candidates=[ep.sigma_hat])
    ln = log_negativity(rho)
    _emit(
        {
            "ree": _scale(ep.value, args.bits),
            "rains": _scale(rb.value, args.bits),
            "log_negativity": _scale(ln, args.bits),
            "gaps": {
                "ree_minus_rains": _scale(ep.value - rb.value, args.bits),
                "ln_minus_rains": _scale(ln - rb.value, args.bits),
                "ln_minus_ree": _scale(ln - ep.value, args.bits),
            },
            "solver": {
                "ree_status": ep.status,
                "rains_status": rb.status,
                "ree_cert_gap": ep.cert_gap,
                "rains_cert_gap": rb.cert_gap,
            },
        },
        args.out,
    )
    return 0


def _cmd_audit(args) -> int:
    dims = _parse_dims(args.dims)
    report = qubit_equality_audit(dims, args.samples, args.seed)
    _emit(
        {
            "dims": list(dims),
            "seed": args.seed,
            "samples": args.samples,
            "ree": report.ree_values,
            "rains": report.rains_values,
            "log_negativity": report.ln_values,
            "max_gap": report.max_gap,
            "nonconverged": report.nonconverged,
            "passed": report.passed,
        },
        args.out,
    )
    if report.passed is None:
        return 0
    return 0 if report.passed else 1


def _cmd_hppt(args) -> int:
    m = _load_matrix(args.m)
    res = maximize_linear(m, set_tag="PPT")
    payload = {
        "value": res.value,
        "gap": res.gap,
        "status": res.status,
        "sigma_hat": to_json_dict(res.sigma_hat),
    }
    if res.certificate is not None:
        payload["certificate"] = functional_to_json_dict(res.certificate)
    _emit(payload, args.out)
    return 0


def _cmd_divergence(args) -> int:
    rho = _load_matrix(args.rho)
    sigma = _load_matrix(args.sigma)
    if args.kind == "relent":
        value = relative_entropy(rho, sigma)
    elif args.kind == "quasi":
        value = quasi_f_relative_entropy(neg_log_fn(), rho, sigma)
    elif args.kind == "renyi":
        if args.alpha is None:
            raise EntboundError("renyi divergence needs --alpha")
        value = renyi_relative_entropy(args.alpha, rho, sigma)
    else:
        if args.alpha is None:
            raise EntboundError("sandwiched divergence needs --alpha")
        value = sandwiched_renyi(args.alpha, rho, sigma)
    _emit(
        {"kind": args.kind, "alpha": args.alpha, "value": _scale(value, args.bits)},
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entbound",
        description="Supporting functionals, converse families, and forward solvers "
        "for entanglement bounds over the PPT and Rains sets.",
    )
    parser.add_argument("--version", action="version", version=f"entbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, bits=False, seed=False):
        p.add_argument("--out", help="write the JSON result here instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if bits:
            p.add_argument("--bits", action="store_true", help="report in bits (divide by log 2)")

    p = sub.add_parser("boundary-sample", help="sample a PPT boundary state")
    p.add_argument("--dims", required=True)
    add_common(p, seed=True)
    p.set_defaults(fn=_cmd_boundary_sample)

    p = sub.add_parser("ppt-functional", help="supporting functional at a boundary state")
    p.add_argument("--sigma-star", required=True)
    p.add_argument("--coeffs", help="JSON array of nonnegative coefficients")
    add_common(p)
    p.set_defaults(fn=_cmd_ppt_functional)

    ree = sub.add_parser("ree", help="converse families and verification over the PPT set")
    ree_sub = ree.add_subparsers(dest="ree_command", required=True)

    p = ree_sub.add_parser("family", help="build the family minimized by sigma*")
    p.add_argument("--sigma-star", required=True)
    p.add_argument("--phi", required=True, help="functional JSON (from ppt-functional)")
    p.add_argument("--x", type=float, default=None)
    add_common(p, bits=True)
    p.set_defaults(fn=_cmd_ree_family)

    def add_verify(p, anchor_flag, set_tag):
        p.add_argument("--rho", required=True)
        p.add_argument(anchor_flag, dest="anchor", required=True)
        p.add_argument(
            "--tol",
            type=float,
            default=1e-8,
            help="PASS needs the anchor in the set and max_violation at most this; "
            "max_violation is the smallest dual bound on max Tr[phi_hat sigma] over "
            "the set, minus Tr[phi_hat anchor]",
        )
        add_common(p)
        p.set_defaults(fn=_cmd_verify, set_tag=set_tag)

    p = ree_sub.add_parser("verify", help="check that sigma* minimizes for rho")
    add_verify(p, "--sigma-star", "PPT")

    rains = sub.add_parser("rains", help="Rains-set functionals, converse, verification")
    rains_sub = rains.add_subparsers(dest="rains_command", required=True)

    p = rains_sub.add_parser("functional", help="supporting functional of the Rains set")
    p.add_argument("--tau-star", required=True)
    p.add_argument("--q", help="optional nullspace block JSON matrix")
    add_common(p)
    p.set_defaults(fn=_cmd_rains_functional)

    p = rains_sub.add_parser("converse", help="recover the state minimized at tau*")
    p.add_argument("--tau-star", required=True)
    p.add_argument("--phi", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_rains_converse)

    p = rains_sub.add_parser("verify", help="check the Rains minimization criterion")
    add_verify(p, "--tau-star", "RAINS_T")

    p = rains_sub.add_parser("closed-form", help="closed-form Rains bound")
    p.add_argument("--tau-star", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--rho", required=True)
    add_common(p, bits=True)
    p.set_defaults(fn=_cmd_rains_closed_form)

    p = sub.add_parser("compare", help="forward-solved REE, Rains bound, and negativity")
    p.add_argument("--rho", required=True)
    add_common(p, bits=True)
    p.set_defaults(fn=_cmd_compare)

    audit = sub.add_parser("audit", help="batch audits")
    audit_sub = audit.add_subparsers(dest="audit_command", required=True)
    p = audit_sub.add_parser("qubit-equality", help="Rains bound vs REE when one side is a qubit")
    p.add_argument("--dims", required=True)
    p.add_argument("--samples", type=int, default=20)
    add_common(p, seed=True)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("hppt", help="maximize Tr[M sigma] over PPT states")
    p.add_argument("--m", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_hppt)

    p = sub.add_parser("divergence", help="evaluate a divergence between two matrices")
    p.add_argument("--kind", required=True, choices=["relent", "quasi", "renyi", "sandwiched"])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    add_common(p, bits=True)
    p.set_defaults(fn=_cmd_divergence)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (EntboundError, OSError, json.JSONDecodeError, ValueError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
