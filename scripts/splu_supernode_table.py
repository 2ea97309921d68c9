"""The measured table behind the supernode setting of boundarylab.solver.

    PYTHONPATH=src python3 scripts/splu_supernode_table.py [--repeats 5] [--sizes 64 128 256 512]

_DiscreteSystem.frozen_matrix factors every frozen-policy M-matrix with
splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
options={"SymmetricMode": True}) and single-column supernodes, relax = 1 and
panel_size = 1.  This table times that call, in ms per factorization, with
SuperLU's default supernodes ("default": scipy passes none) and with
(relax, panel_size) = (1, 1), (2, 2), (4, 4) and (10, 10), on three matrices
at n = 2r/h in --sizes, r = 0.5:

- laplace-cone: the Laplacian on the cone L 0.2 (the one policy);
- pucci-sinusoid: Pucci M- with (lam, Lam) = (1, 2) on the sinusoid A 0.05,
  k 4, rhs -1, Dirichlet data 0.1 + 0.3 x + 0.5 y (the pucci_sinusoid
  benchmark's problem at n = 128);
- pucci-cone-E18: Pucci M- with (lam, Lam) = (1, 8), all eight directions,
  on the cone L 0.2, with the same data.

A Pucci matrix is the one of the solve's final, mixed, policy.  Each cell is
the median (first - third quartile) over --repeats, then the fill
nnz(L) + nnz(U); the configurations take turns within each repeat, in an
order that reverses from one repeat to the next.  BLAS runs one thread, as in
the benchmark.  Needs numpy, scipy and the standard library.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time

# one BLAS thread, as in the benchmark; set before numpy loads BLAS
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.sparse.linalg import splu  # noqa: E402

from boundarylab import (  # noqa: E402
    BoundaryGraph, EllipticityPair, GridProblem, LaplaceOp, PucciOp, discretize, solve,
)

R = 0.5
CONFIGS = [("default", {}),
           *((f"({k}, {k})", {"relax": k, "panel_size": k}) for k in (1, 2, 4, 10))]


def _linear(p):
    return 0.1 + 0.3 * p[:, 0] + 0.5 * p[:, 1]


MATRICES = [
    ("laplace-cone", BoundaryGraph("cone", L=0.2), LaplaceOp()),
    ("pucci-sinusoid", BoundaryGraph("sinusoid", A=0.05, k=4.0),
     PucciOp(EllipticityPair(1.0, 2.0), "minus")),
    ("pucci-cone-E18", BoundaryGraph("cone", L=0.2), PucciOp(EllipticityPair(1.0, 8.0), "minus")),
]


def frozen(graph, operator, n):
    """The CSC matrix of the final policy of the problem's solve."""
    prob = GridProblem(graph, R, n, operator, lambda p: -np.ones(len(p)), _linear)
    sys_ = discretize(prob)
    policy = solve(prob, sys_).policy
    alphas = sys_.alphas
    alpha = np.broadcast_to(alphas, (len(alphas), sys_.m, alphas.shape[2]))[policy,
                                                                             np.arange(sys_.m)]
    return sys_.frozen_matrix(alpha)[0]


def factor(A, kwargs):
    return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True}, **kwargs)


def timed(A, repeats):
    """(ms per factorization, fill) of every configuration; they take turns per repeat."""
    times = [[] for _ in CONFIGS]
    for i in range(repeats):
        order = range(len(CONFIGS)) if i % 2 == 0 else reversed(range(len(CONFIGS)))
        for c in order:
            t0 = time.perf_counter()
            factor(A, CONFIGS[c][1])
            times[c].append(1e3 * (time.perf_counter() - t0))
    fills = []
    for _, kwargs in CONFIGS:
        lu = factor(A, kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
    return times, fills


def cell(ms, fill):
    q1, med, q3 = np.percentile(ms, [25, 50, 75])
    return f"{med:.3g} ({q1:.3g}-{q3:.3g}); {fill}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256, 512])
    args = parser.parse_args(argv)
    print(f"{args.repeats} repeats; python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, {platform.machine()}, {os.cpu_count()} CPUs")
    print("\nms per factorization, median (quartiles); nnz(L) + nnz(U)\n")
    print("| matrix | n | unknowns | " + " | ".join(label for label, _ in CONFIGS) + " |")
    print("|---|---|---|" + "---|" * len(CONFIGS))
    for name, graph, operator in MATRICES:
        for n in args.sizes:
            A = frozen(graph, operator, n)
            times, fills = timed(A, args.repeats)
            print(f"| {name} | {n} | {A.shape[0]} | "
                  + " | ".join(cell(ms, fill) for ms, fill in zip(times, fills)) + " |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
