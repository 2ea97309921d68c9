"""In-memory spans around boundarylab's layers, installed from outside the package.

A span is (name, start, end, parent).  Spans live in flat arrays while the
benchmark runs and are written out once at the end.  The wrappers replace
each traced function at every place boundarylab binds it (``harness``
imports ``solve`` by name, ``barriers`` imports ``pucci_minus`` by name, and
so on), and each traced method on its class; leaving ``traced()`` restores
the originals, so untraced iterations run the package untouched.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from boundarylab import barriers, cli, harness, modulus, pucci, regdist, solver
from boundarylab.geometry import BoundaryGraph


class Tracer:
    """Span recorder plus per-iteration counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.seen_points: set = set()

    def reset_counters(self) -> None:
        self.counters = {}
        self.seen_points = set()

    def count(self, name: str, n) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, before=None, after=None):
        """fn inside a span; before(tracer, args) and after(tracer, result) count."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent, stack = (self.name_id, self.start, self.end,
                                              self.parent, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, out)
            return out
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def totals(self, lo: int, hi: int) -> dict:
        """<name>.calls, <name>.s and <name>.self_s over spans lo..hi-1.

        Self time is a span's duration minus the durations of its direct
        children; spans nest properly because the benchmark is one thread.
        """
        nid = np.frombuffer(self.name_id[lo:hi], dtype=np.int32)
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.start[lo:hi], dtype=np.float64))
        par = np.frombuffer(self.parent[lo:hi], dtype=np.int64) - lo
        inside = par >= 0
        child = np.bincount(par[inside], weights=dur[inside], minlength=hi - lo)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        return out

    def save(self, path, **extra) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int64), **extra)


def _data_points(tr, args):
    tr.count("solver.data.points", len(np.atleast_2d(args[0])))


def _gamma_points(tr, args):
    graph, xp = args[0], args[1]
    tr.count("geometry.gamma.points", np.size(xp) // (graph.dim - 1))


def _interpolate_points(tr, args):
    n = len(np.atleast_2d(args[1]))
    tr.count("solver.interpolate.points", n)
    tr.count("solver.interpolate.empty_calls", int(n == 0))


def _regdist_points(name):
    """Points per call, and how many this iteration already evaluated on the same field."""
    def before(tr, args):
        field, pts = args[0], np.atleast_2d(np.asarray(args[1], dtype=float))
        seen = tr.seen_points
        repeated = 0
        for row in pts:
            key = (id(field), row.tobytes())
            if key in seen:
                repeated += 1
            else:
                seen.add(key)
        tr.count(name, len(pts))
        tr.count("regdist.points", len(pts))
        tr.count("regdist.repeated_points", repeated)
    return before


def _solution_counts(tr, sol):
    tr.count("solver.nodes", len(sol.values))
    tr.count("solver.cut_points", len(sol.boundary_points))
    tr.count("solver.policy_rounds", sol.iterations)


def _growth_levels(tr, rep):
    tr.count("harness.levels", len(rep.ks))


# (module defining the function, function name, span name, before, after)
FUNCTIONS = [
    (modulus, "eval_modulus", "modulus.eval_modulus", None, None),
    (solver, "discretize", "solver.discretize", None, None),
    (solver, "solve", "solver.solve", None, _solution_counts),
    (harness, "measure_growth", "harness.measure_growth", None, _growth_levels),
    (regdist, "check_distance_bounds", "regdist.check_distance_bounds", None, None),
    (pucci, "sym_eigvals", "pucci.sym_eigvals", None, None),
    (pucci, "pucci_minus", "pucci.pucci_minus", None, None),
    (pucci, "pucci_plus", "pucci.pucci_plus", None, None),
    (barriers, "verify_barrier", "barriers.verify_barrier", None, None),
    (barriers, "barrier_hessian_value", "barriers.barrier_hessian_value", None, None),
    (barriers, "sample_domain_points", "barriers.sample_domain_points", None, None),
    (cli, "main", "cli.main", None, None),
]
# (class, method name, span name, before, after)
METHODS = [
    (BoundaryGraph, "gamma", "geometry.gamma", _gamma_points, None),
    (BoundaryGraph, "seminorm_at", "geometry.seminorm_at", None, None),
    (solver.GridSolution, "interpolate", "solver.interpolate", _interpolate_points, None),
    (regdist.RegularizedDistanceField, "__init__", "regdist.field_init", None, None),
    (regdist.RegularizedDistanceField, "eval_all", "regdist.eval_all",
     _regdist_points("regdist.eval_all.points"), None),
    (regdist.RegularizedDistanceField, "eval_d", "regdist.eval_d",
     _regdist_points("regdist.eval_d.points"), None),
]


@contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        package = [m for name, m in sys.modules.items()
                   if name == "boundarylab" or name.startswith("boundarylab.")]
        for module, fname, span, before, after in FUNCTIONS:
            original = getattr(module, fname)
            wrapped = tracer.wrap(span, original, before, after)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, attr, wrapped)
        for cls, meth, span, before, after in METHODS:
            patch(cls, meth, tracer.wrap(span, cls.__dict__[meth], before, after))

        # the Dirichlet callable is wrapped where each GridProblem receives it,
        # which covers the data cli builds and the harness's level transfer
        grid_init = solver.GridProblem.__init__

        def init(self, *args, **kwargs):
            grid_init(self, *args, **kwargs)
            self.dirichlet = tracer.wrap("solver.data", self.dirichlet, _data_points)

        patch(solver.GridProblem, "__init__", init)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
