"""Benchmark of the entbound forward solvers, converse constructions and linear solver.

    python3 bench/run.py --workload {forward,converse,linear} --seed N \
        --seconds S --trace {0,1}

One process runs one workload as a closed loop: a single client starts the
next operation only when the previous one has returned and been checked.
BLAS is pinned to one thread. Inputs and references come from `oracle.py`,
seeded by --seed. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. A copy with
more detail goes to bench/results/. See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in the set-up probes.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# A run ends after the first whole round that finishes with --seconds elapsed
# and at least MIN_OPS operations attempted, so that op_tail_ms always has
# TAIL_BEYOND operations beyond it and is no mere maximum.
MIN_OPS = 40
TAIL_BEYOND = 10
SETUP_REPEATS = 5
ACCURACY_CAP = 16.0
# Traced runs execute a fixed number of whole rounds, so that their counts
# repeat exactly from run to run on the same seed.
TRACED_ROUNDS = {"forward": 4, "converse": 8, "linear": 4}


def load_entbound():
    """Import entbound from this checkout's src/, and nowhere else."""
    if not (SRC / "entbound" / "__init__.py").is_file():
        sys.exit(f"error: no entbound package under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("entbound")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: entbound was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(
        **{layer: importlib.import_module(f"entbound.{layer}") for layer in tracing.LAYERS}
    )


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports entbound.cli."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import entbound.cli"],
            cwd=ROOT, env=env, check=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def project_probe(eb, case) -> tuple[float, float, float]:
    """Cold public projections of one workload input onto P and T.

    Returns the two wall times (ms) and the worst feasibility residual of the
    outputs, measured by the oracle.
    """
    x = eb.linalg.hermitian(case.probe, case.dims)
    t0 = time.perf_counter()
    p = eb.solver.project_P(x).mat
    t1 = time.perf_counter()
    t = eb.solver.project_T(x).mat
    t2 = time.perf_counter()
    dims = case.dims
    pt_p = oracle.herm(oracle.partial_transpose(p, dims))
    pt_t = oracle.herm(oracle.partial_transpose(t, dims))
    infeasible = max(
        -float(np.linalg.eigvalsh(oracle.herm(p))[0]),
        -float(np.linalg.eigvalsh(pt_p)[0]),
        abs(float(np.trace(p).real) - 1.0),
        -float(np.linalg.eigvalsh(oracle.herm(t))[0]),
        float(np.sum(np.abs(np.linalg.eigvalsh(pt_t)))) - 1.0,
    )
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3, infeasible


def run_loop(workload, seed: int, seconds: float, tracer=None, rounds=None, probe=None):
    """Closed loop over whole rounds; returns op times (s) and check outcomes."""
    times: list[float] = []
    labels: list[str] = []
    errors: list[float] = []
    reasons: Counter = Counter()
    failed = 0
    unexpected = 0  # failures other than a case's known fault
    probes = []
    # Let lazy set-up finish before timing: one untimed, unchecked operation.
    workload.round(seed, 0)[0].run()
    started = time.perf_counter()
    r = 0
    while True:
        for case in workload.round(seed, r):
            labels.append(case.label)
            t0 = time.perf_counter()
            try:
                out = tracer.op(case.run) if tracer else case.run()
            except Exception as exc:  # an operation that raises counts as failed
                times.append(time.perf_counter() - t0)
                failed += 1
                unexpected += 1
                reasons[f"{case.label}: raised {type(exc).__name__}: {exc}"] += 1
                continue
            times.append(time.perf_counter() - t0)
            result = case.check(out)
            errors.extend(result.errors)
            if result.failures:
                failed += 1
                unexpected += not (case.known_fault and result.label_only)
                for reason in result.failures:
                    reasons[f"{case.label}: {reason}"] += 1
            if probe is not None:
                probes.append(probe(case))
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif time.perf_counter() - started >= seconds and len(times) >= MIN_OPS:
            break
    return SimpleNamespace(
        times=times, labels=labels, errors=errors, reasons=reasons,
        failed=failed, unexpected=unexpected, rounds=r, probes=probes,
    )


def tail(times: list[float]) -> float:
    """The highest order statistic with TAIL_BEYOND operations beyond it."""
    return sorted(times)[len(times) - 1 - TAIL_BEYOND]


def accuracy_digits(errors: list[float]) -> float:
    """-log10 of the worst reference error, capped; 0 when nothing was referenced."""
    if not errors:
        return 0.0
    worst = max(errors)
    return ACCURACY_CAP if worst <= 0.0 else min(ACCURACY_CAP, -math.log10(worst))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop, setup_s: float) -> dict:
    return {
        "op_p50_ms": metric(statistics.median(loop.times) * 1e3, "ms"),
        "op_tail_ms": metric(tail(loop.times) * 1e3, "ms"),
        "ops_per_s": metric(len(loop.times) / sum(loop.times), "1/s"),
        "accuracy_digits": metric(accuracy_digits(loop.errors), "digits"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# Per-layer metrics printed by a traced run: counts, and times that every
# workload's operations or probes produce. The results file holds the full
# table, including the self times of functions some workloads never call.
COUNTED = (
    "solver.minimize_ree",
    "solver.maximize_linear",
    "ppt.sample_ppt_states",
    "rains.sample_T",
    "ree.verify_cps",
    "rains.verify_rains_min",
    "ppt.ppt_functional",
    "frechet.build_kernel",
    "divergences.relative_entropy",
    "linalg.partial_transpose",
)


def per_layer(tracer, loop) -> tuple[dict, dict]:
    ops = len(loop.times)
    table = tracer.layer_table()
    eig = [table.get(f"numpy.{f}", {"calls": 0, "self_ms": 0.0}) for f in tracing.EIG_FUNCTIONS]
    hm = table.get("linalg.HermitianMatrix", {"calls": 0, "self_ms": 0.0})
    probe_p, probe_t, infeasible = zip(*loop.probes)
    metrics = {
        "op.traced_ms": metric(sum(loop.times) / ops * 1e3, "ms"),
        "solver.iterations": metric(tracer.solver_iterations / ops, "count"),
        "numpy.eig.calls": metric(sum(e["calls"] for e in eig) / ops, "count"),
        "numpy.eig.matrices": metric(tracer.eig_matrices / ops, "count"),
        "numpy.eig.self_ms": metric(sum(e["self_ms"] for e in eig) / ops, "ms"),
        "linalg.HermitianMatrix.constructs": metric(hm["calls"] / ops, "count"),
        "linalg.HermitianMatrix.self_ms": metric(hm["self_ms"] / ops, "ms"),
        "solver.project_P.cold_ms": metric(statistics.mean(probe_p), "ms"),
        "solver.project_T.cold_ms": metric(statistics.mean(probe_t), "ms"),
        "solver.project.infeasibility": metric(max(infeasible), "residual"),
    }
    for name in COUNTED:
        metrics[f"{name}.calls"] = metric(table.get(name, {"calls": 0})["calls"] / ops, "count")
    full = {name: {k: v / ops for k, v in row.items()} for name, row in table.items()}
    full["solver.ms_per_iteration"] = (
        table["solver.minimize_ree"]["self_ms"] / tracer.solver_iterations
        if tracer.solver_iterations
        else None
    )
    full["module_self_ms"] = {k: v / ops for k, v in tracing.module_totals(table).items()}
    return metrics, full


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    eb = load_entbound()
    setup_s = measure_setup() if not args.trace else None
    workload = WORKLOADS[args.workload](eb)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        loop = run_loop(
            workload, args.seed, args.seconds, tracer=tracer,
            rounds=TRACED_ROUNDS[args.workload], probe=lambda case: project_probe(eb, case),
        )
        metrics, layers = per_layer(tracer, loop)
    else:
        loop = run_loop(workload, args.seed, args.seconds)
        metrics, layers = end_to_end(loop, setup_s), None

    result = {
        "correct": loop.unexpected == 0,
        "attempted": len(loop.times),
        "failed": loop.failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "rounds": loop.rounds,
        "timed_s": sum(loop.times),
        "failure_reasons": dict(loop.reasons),
        "op_ms": [[label, t * 1e3] for label, t in zip(loop.labels, loop.times)],
        "layers": layers,
        "machine": machine(),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        tracer.save(RESULTS / f"spans-{stem}.npz")
    for reason, count in sorted(loop.reasons.items()):
        print(f"failed x{count}: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
