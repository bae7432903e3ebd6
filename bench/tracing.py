"""Spans around every public function of the `entbound` layers, for traced runs.

`install` wraps each public function of the layer modules and rebinds the
name in every `entbound` module that holds it, wraps the constructor check
of `linalg.HermitianMatrix`, and wraps `numpy.linalg.eigh` and `eigvalsh`.
No program file changes. While the tracer is active, each call appends one
span (name, parent, start, end) to flat in-memory arrays; `layer_table`
derives calls and self times from them and `save` writes them out.
"""

from __future__ import annotations

import array
import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("linalg", "frechet", "divergences", "ppt", "ree", "rains", "solver")
EIG_FUNCTIONS = ("eigh", "eigvalsh")
OP_SPAN = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.active = False
        # Counters read from results and arguments at the same boundaries.
        self.solver_iterations = 0
        self.eig_matrices = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def op(self, run):
        """Run one operation under a root span, with tracing on."""
        self.active = True
        sid = self.open(self._id(OP_SPAN))
        try:
            return run()
        finally:
            self.close(sid)
            self.active = False

    def wrap(self, name: str, fn, after=None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(out, args)
            return out

        return traced

    def _count_iterations(self, result, args) -> None:
        self.solver_iterations += result.iterations

    def _count_matrices(self, result, args) -> None:
        self.eig_matrices += math.prod(np.shape(args[0])[:-2])

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "entbound"]
        for layer in LAYERS:
            module = sys.modules[f"entbound.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                after = self._count_iterations if name == "solver.minimize_ree" else None
                traced = self.wrap(name, fn, after)
                for m in modules:
                    for alias, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, alias, traced)
        hm = sys.modules["entbound.linalg"].HermitianMatrix
        hm.__post_init__ = self.wrap("linalg.HermitianMatrix", hm.__post_init__)
        for fname in EIG_FUNCTIONS:
            setattr(
                np.linalg,
                fname,
                self.wrap(f"numpy.{fname}", getattr(np.linalg, fname), self._count_matrices),
            )

    def _arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return names, parent, dur

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Calls and self time (ms) per span name; self time = duration minus children."""
        names, parent, dur = self._arrays()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_time = dur - covered
        calls = np.bincount(names, minlength=len(self.names))
        self_ms = np.bincount(names, weights=self_time, minlength=len(self.names)) * 1e3
        return {
            name: {"calls": int(calls[i]), "self_ms": float(self_ms[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        names, parent, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=names,
            parent=parent,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def module_totals(table: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time (ms) summed per layer prefix, e.g. 'solver' or 'numpy'."""
    totals: dict[str, float] = defaultdict(float)
    for name, row in table.items():
        totals[name.split(".")[0]] += row["self_ms"]
    return dict(totals)
