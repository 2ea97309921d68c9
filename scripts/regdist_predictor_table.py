"""The measured table behind regdist.PREDICT_ORDER and regdist.PREDICT_STEPS.

    PYTHONPATH=src python3 scripts/regdist_predictor_table.py [--seed 1] [--repeats 7]

For each predictor (order 8, 16 or 32; 1, 2 or 3 steps, and no predictor
as the reference row) the script inverts four distance batches: the
regdist_3d benchmark's 3-D cone (L 0.1, r 0.25, 100 points) and the three
2-D families of barrier_2d (sinusoid A 0.05 k 4, cone L 0.1, c1model
omega 0.2 t^0.5; r 0.3, 1000 points each), every batch drawn with
np.random.default_rng(seed).  It prints, per batch, the predictor and the
working-order point-passes of one eval_all, and the median eval_all time
over the repeats; the predictors take turns within each repeat, so a drift
of the host's speed hits them alike.  Each call gets a fresh field, so no
batch is served from eval_all's memo.  Needs numpy and the standard library.
"""

from __future__ import annotations

import argparse
import platform
import statistics
import sys
import time

import numpy as np

from boundarylab import BoundaryGraph, power, regdist
from boundarylab.barriers import sample_domain_points
from boundarylab.regdist import RegularizedDistanceField

BATCHES = [
    ("cone3d", BoundaryGraph("cone", dim=3, L=0.1), 0.25, 100),
    ("sinusoid", BoundaryGraph("sinusoid", A=0.05, k=4.0), 0.3, 1000),
    ("cone", BoundaryGraph("cone", L=0.1), 0.3, 1000),
    ("c1model", BoundaryGraph("c1model", omega=power(0.5, scale=0.2)), 0.3, 1000),
]
# (order, steps); steps 0 is the inversion without a predictor
PREDICTORS = [(None, 0)] + [(o, k) for o in (8, 16, 32) for k in (1, 2, 3)]


def point_passes(graph, pts, order, steps) -> tuple[int, int]:
    """(predictor, working-order) point-passes of one eval_all."""
    passes = {}
    p_derivs = RegularizedDistanceField._p_derivs

    def counted(self, xp, s, o):
        passes[o] = passes.get(o, 0) + len(s)
        return p_derivs(self, xp, s, o)

    RegularizedDistanceField._p_derivs = counted
    try:
        RegularizedDistanceField(graph).eval_all(pts)
    finally:
        RegularizedDistanceField._p_derivs = p_derivs
    working = passes.pop(2 * regdist.QUAD_ORDER)
    return sum(passes.values()), working


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    batches = [(name, graph, sample_domain_points(graph, r, n, np.random.default_rng(args.seed)))
               for name, graph, r, n in BATCHES]

    def use(order, steps):
        regdist.PREDICT_ORDER = order or regdist.PREDICT_ORDER
        regdist.PREDICT_STEPS = steps

    shipped = regdist.PREDICT_ORDER, regdist.PREDICT_STEPS
    counts, times = {}, {pred: {name: [] for name, _, _ in batches} for pred in PREDICTORS}
    for pred in PREDICTORS:                 # counts, and the rules' caches warmed
        use(*pred)
        counts[pred] = {name: point_passes(graph, pts, *pred) for name, graph, pts in batches}
    for i in range(args.repeats):
        order = PREDICTORS if i % 2 == 0 else PREDICTORS[::-1]
        for pred in order:
            use(*pred)
            for name, graph, pts in batches:
                field = RegularizedDistanceField(graph)
                t0 = time.perf_counter()
                field.eval_all(pts)
                times[pred][name].append(time.perf_counter() - t0)
    use(*shipped)

    print(f"seed {args.seed}, {args.repeats} repeats; python {platform.python_version()}, "
          f"numpy {np.__version__}, {platform.machine()}, shipped order {shipped[0]}, "
          f"steps {shipped[1]}")
    print("point-passes of one eval_all, predictor + working order; median eval_all ms")
    print("| order | steps | " + " | ".join(name for name, _, _ in batches) + " |")
    print("|---|---|" + "---|" * len(batches))
    for pred in PREDICTORS:
        cells = [f"{counts[pred][name][0]} + {counts[pred][name][1]}; "
                 f"{1e3 * statistics.median(times[pred][name]):.1f}"
                 for name, _, _ in batches]
        print(f"| {pred[0] or '-'} | {pred[1]} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
