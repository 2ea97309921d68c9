"""Cold start-up of the boundarylab CLI: wall time and peak RSS of whole processes.

    python3 scripts/bench_startup.py --base DIR --head DIR --runs N --out BENCH_startup.json

DIR is a checkout of the repository (its ``src/`` is put on PYTHONPATH).
Each of four CLI processes runs N times per checkout, base and head taking
turns so that a drift of the host's speed hits both alike; BLAS threads are
1.  For each process and checkout the file records the median and quartiles
of the wall time of the whole process, the median of its ``ru_maxrss`` (from
``wait4``, in MiB), and its exit codes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONE_2D = {"family": "cone", "L": 0.1}
CONE_3D = {"family": "cone", "dim": 3, "L": 0.1}
E_12 = {"lam": 1, "Lam": 2}
# (name, command, config): the cascade_cone and pucci_sinusoid benchmark
# configs, and the distance and barrier checks of the regdist_3d and
# barrier_2d workloads on one cone each
PROCESSES = [
    ("growth-cascade_cone", "growth",
     {"domain": {"family": "cone", "L": 0.2}, "k_max": 7, "n_grid": 128}),
    ("solve-pucci_sinusoid", "solve",
     {"domain": {"family": "sinusoid", "A": 0.05, "k": 4},
      "operator": {"kind": "pucci_minus", "ellipticity": E_12}, "stencil": "wide",
      "r": 0.5, "n": 128, "rhs": {"name": "constant", "value": -1},
      "dirichlet": {"name": "linear", "coeffs": [0.3, 0.5], "offset": 0.1}}),
    ("regdist-check-cone3d", "regdist-check", {"domain": CONE_3D, "r": 0.25, "n_points": 100}),
    ("barrier-check-cone2d", "barrier-check",
     {"domain": CONE_2D, "ellipticity": E_12, "r": 0.25, "n_points": 300}),
]


def run_once(checkout: Path, command: str, config: Path, out: Path) -> tuple[float, float, int]:
    """(wall seconds, ru_maxrss in MiB, exit code) of one cold CLI process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-m", "boundarylab.cli", command, "--config", str(config),
            "--out", str(out), "--seed", "1"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def describe(checkout: Path) -> dict:
    """The checkout's HEAD, whether its source differs from HEAD, and the source's hash."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True).stdout.strip()
    h = hashlib.sha256()
    pkg = checkout / "src" / "boundarylab"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return {"commit": git("rev-parse", "HEAD"),
            "src_modified": bool(git("status", "--porcelain", "--", "src")),
            "source_sha256": h.hexdigest()}


def summary(walls: list, rss: list, codes: list) -> dict:
    q1, med, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return {"wall_s": {"median": med, "q1": q1, "q3": q3, "min": min(walls), "max": max(walls)},
            "ru_maxrss_mib": {"median": statistics.median(rss), "min": min(rss),
                              "max": max(rss)},
            "exit_codes": sorted(set(codes)), "runs": len(walls)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}

    import numpy
    import scipy
    result = {
        "what": __doc__.splitlines()[0],
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "checkouts": {side: describe(path) for side, path in sides.items()},
        "processes": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, command, cfg in PROCESSES:
            config = work / f"{name}.json"
            config.write_text(json.dumps({"schema_version": 1, **cfg}))
            samples = {side: ([], [], []) for side in sides}
            for i in range(args.runs):
                order = list(sides) if i % 2 == 0 else list(reversed(sides))
                for side in order:
                    wall, rss, code = run_once(sides[side], command, config, work / "out")
                    for acc, v in zip(samples[side], (wall, rss, code)):
                        acc.append(v)
            result["processes"][name] = {
                "command": command, "config": cfg,
                **{side: summary(*samples[side]) for side in sides}}
            print(name, {side: round(result["processes"][name][side]["wall_s"]["median"], 3)
                         for side in sides}, file=sys.stderr)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
