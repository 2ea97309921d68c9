"""boundarylab benchmark: one workload, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One process and one thread of our own, BLAS threads 1; a closed
loop runs one iteration after another for as long as another one is
expected to end within ``--seconds`` (at least one iteration).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
iteration time relative to the host's speed sampled during the iteration
(``HostSpeed``), the set-up time (the package import and one cold set-up of
the workload) and the peak resident set.  ``--trace 1`` alternates untraced
and traced iterations and reports the per-layer metrics, medians over the
traced iterations, and the tracing overhead.  Both print a
provenance line and then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results, and
in traced runs every span, go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# These layers run only during set-up here, so their traced figures come
# from the traced set-up rather than from the iterations.
SETUP_PHASE = ("regdist.field_init.s", "barriers.sample_domain_points.s")


def _import_workloads():
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def setup(name: str, seed: int, work: Path, tracer=None):
    """(seconds, ops): import the package and set the workload up, timed.

    With a tracer, the set-up after the import is traced.
    """
    t0 = time.perf_counter()
    wl = _import_workloads()
    if name not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; choose from {', '.join(wl.WORKLOADS)}")
    if tracer is None:
        ops = wl.WORKLOADS[name].setup(seed, work)
    else:
        import spans
        with spans.traced(tracer):
            ops = wl.WORKLOADS[name].setup(seed, work)
    return time.perf_counter() - t0, ops


class Tally:
    """Operations attempted and failed, and the last output of each operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs: dict = {}

    def record(self, results) -> None:
        for op, value, error in results:
            self.attempted += 1
            if error is None:
                try:
                    ok, out = op.check(value)
                except Exception as exc:     # a check that cannot read the output fails it
                    ok, out, error = False, {}, exc
            else:
                ok, out = False, {}
            if error is not None:
                out["error"] = repr(error)
                traceback.print_exception(error, file=sys.stderr)
            if not ok:
                self.failed += 1
                print(f"check failed: {op.label}: {out}", file=sys.stderr)
            self.outputs[op.label] = out


def run_iteration(ops):
    """(seconds, [(op, result, error)]): every operation, timed as one."""
    gc.collect()
    results = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            results.append((op, op.call(), None))
        except Exception as exc:         # recorded as a failed operation
            results.append((op, None, exc))
    return time.perf_counter() - t0, results


class HostSpeed:
    """Samples how fast the host runs fixed code while an iteration runs.

    On a shared VM the host's speed can drift by a factor of two within
    seconds, for every process alike, so a raw iteration time says as much
    about the host as about the program.  While a ``with host:`` block
    runs, a timer interrupts it every PERIOD_S seconds and times two passes
    that never touch boundarylab: lookups of shuffled keys in a dict whose
    entries the program's own data has pushed out of the caches since the
    last sample, and interpreted arithmetic with numpy calls on a tiny
    array, run once untimed so that only the warm pass counts.  The
    workloads slow down with the host about as much as the sum of the two
    passes does; either pass alone tracks them less well.  ``host.mean_s``
    is the mean sample over the last block: the host's slowness while it
    ran.
    """

    PERIOD_S = 0.1
    N_KEYS, N_LOOKUPS, N_STEPS = 30_000, 2_000, 1_500

    def __init__(self):
        import numpy as np
        self._np = np
        self._small = np.array([0.3, 0.4])
        rng = random.Random(0)
        self._table = {f"key{i}": i for i in range(self.N_KEYS)}
        self._lookups = rng.sample(list(self._table), self.N_LOOKUPS)
        self.samples: list[float] = []

    def _lookup_pass(self) -> float:
        table = self._table
        t0 = time.perf_counter()
        s = 0
        for key in self._lookups:
            s += table[key]
        return time.perf_counter() - t0

    def _compute_pass(self) -> float:
        np, small = self._np, self._small
        t0 = time.perf_counter()
        s = 0.0
        for i in range(self.N_STEPS):
            s += i * i % 7
        for _ in range(self.N_STEPS // 20):
            s += float(np.sqrt(small @ small))
        return time.perf_counter() - t0

    def _sample(self, signum=None, frame=None) -> None:
        cold = self._lookup_pass()
        self._compute_pass()
        self.samples.append(cold + self._compute_pass())

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:            # a block shorter than one period
            self._sample()

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.samples)


def _fits(t0: float, last: float, seconds: float) -> bool:
    """Whether one more iteration as long as the last one still ends within the run."""
    return time.perf_counter() - t0 + last <= seconds


def _git_commit():
    """HEAD of the repository; None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    pkg = SRC / "boundarylab"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, sizes: dict) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": sizes,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
    }


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def _select(specs, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def _layer_values(tracer, lo: int, hi: int) -> dict:
    """Every span total and counter of the spans lo..hi-1 (one iteration)."""
    vals = tracer.totals(lo, hi)
    vals.update(tracer.counters)
    points = tracer.counters.get("regdist.points", 0)
    vals["regdist.repeat_point_frac"] = (
        tracer.counters.get("regdist.repeated_points", 0) / points if points else 0.0)
    vals["harness.self_s"] = vals["harness.measure_growth.self_s"]
    return vals


def measure(args, work: Path):
    """(metrics, tally, details) of one run."""
    end_to_end, per_layer = _spec()
    tally = Tally()
    if not args.trace:
        # One cold set-up: a repeat in this process would find the package
        # imported and its caches warm, and would hide work moved into set-up.
        setup_s, ops = setup(args.workload, args.seed, work)
        walls, hosts = [], []
        host = HostSpeed()
        t0 = time.perf_counter()
        while not walls or _fits(t0, walls[-1], args.seconds):
            with host:
                dt, results = run_iteration(ops)
            walls.append(dt)
            hosts.append(host.mean_s)
            tally.record(results)
        rel = [w / h for w, h in zip(walls, hosts)]
        values = {
            "wall_rel": statistics.median(rel),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return _select(end_to_end, values), tally, {
            "wall_s": walls, "host_pass_s": hosts, "wall_rel": rel}

    _import_workloads()
    import numpy as np
    import spans
    tracer = spans.Tracer()
    _, ops = setup(args.workload, args.seed, work, tracer)
    setup_vals = _layer_values(tracer, 0, len(tracer))
    plain, traced_walls, layers, bounds = [], [], [], []
    t0 = time.perf_counter()
    while not traced_walls or _fits(t0, max(plain[-1], traced_walls[-1]), args.seconds):
        if len(plain) <= len(traced_walls):
            dt, results = run_iteration(ops)
            plain.append(dt)
        else:
            tracer.reset_counters()
            lo = len(tracer)
            with spans.traced(tracer):
                dt, results = run_iteration(ops)
            traced_walls.append(dt)
            layers.append(_layer_values(tracer, lo, len(tracer)))
            bounds.append((lo, len(tracer)))
        tally.record(results)
    values = {}
    for m in per_layer:
        name = m["name"]
        if name == "trace.overhead_s":
            values[name] = statistics.median(traced_walls) - statistics.median(plain)
        elif name in SETUP_PHASE:
            values[name] = setup_vals.get(name, 0.0)
        else:
            values[name] = statistics.median(v.get(name, 0) for v in layers)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz",
                iterations=np.array(bounds, dtype=np.int64).reshape(-1, 2))
    return _select(per_layer, values), tally, {
        "wall_s_untraced": plain, "wall_s_traced": traced_walls, "per_iteration": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "boundarylab" / "__init__.py").is_file():
        print(f"error: no boundarylab package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"

    work = OUT / f"work-{os.getpid()}"
    try:
        metrics, tally, details = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov = provenance(args, _import_workloads().WORKLOADS[args.workload].sizes)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"provenance": prov, "result": result, "outputs": tally.outputs,
         "samples": details}, indent=1, default=float))
    line = {"provenance": prov, "outputs": tally.outputs}
    if "wall_s" in details:
        line["wall_s_median"] = statistics.median(details["wall_s"])
    print(json.dumps(line, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
