"""Write the reference solution that the pucci_sinusoid output check compares to.

    python3 benchmarks/make_reference.py

Runs the workload's ``solve`` config through the CLI and stores the nodes
and ``u`` in ``benchmarks/data/pucci_sinusoid_ref.npz``.  Run it only on the
commit whose solver is the reference; the committed file comes from the
commit that introduced the benchmark.
"""

import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from boundarylab import cli  # noqa: E402


def main() -> int:
    tmp = Path(tempfile.mkdtemp(dir=BENCH_DIR.parent))
    try:
        cfg = workloads.write_config(tmp / "solve.json", workloads.SOLVE_CONFIG)
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp)])
        if rc != 0:
            return rc
        sol = np.loadtxt(tmp / "solution.csv", delimiter=",", skiprows=1)
    finally:
        shutil.rmtree(tmp)
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(workloads.REFERENCE, nodes=sol[:, :2], u=sol[:, 2])
    print(f"wrote {workloads.REFERENCE} ({len(sol)} nodes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
