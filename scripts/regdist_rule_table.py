"""The measured tables behind the rule constants of boundarylab.regdist.

    PYTHONPATH=src python3 scripts/regdist_rule_table.py [--seed 1] [--repeats 7]

Tables 1-4 read four distance batches, drawn with np.random.default_rng(seed):
the regdist_3d benchmark's 3-D cone (L 0.1, r 0.25, 100 points) and the three
2-D families of barrier_2d (sinusoid A 0.05 k 4, cone L 0.1, c1model
omega 0.2 t^0.5; r 0.3, 1000 points each).  An error is the worst over a
batch of |d - d_ref|, |grad d - grad d_ref| and d |D^2 d - D^2 d_ref| (max
entry), against the same field at the fixed working order 128 (2-D) or 80
(3-D).  TODAY holds the same three errors of the exp(-1/(1 - rho^2)) bump
at working order 64 against its own order 128 / 80, measured at e939f88;
1e-14 stands in for rounding where TODAY is below it.

Table 1, the mollifier: (1 - rho^2)^m for m = 2, 3, 4, and a wider
piecewise-polynomial plateau (1 on rho <= 1/2, then the quintic smoothstep
down to 0 at rho = 1, with no rule panel at its knot), each at the shipped
ladder.  Per batch: the smallest fixed working order whose three errors are
within TODAY ("-" if none up to 128); whether the ladder's eval_all is within
TODAY ("ok") or not ("OVER"); its point-passes per order; its median time
in ms.  Then the constants of run_calibration(2026) that the profile gives.
Table 2, the ladder at the shipped mollifier: base order and CERT_TOL.  Per
batch the three errors of eval_all, its point-passes per order and its
median time; and whether the under-resolved sinusoid (A 2e-4, k 1000) raises
and its k = 300 twin (same slope) passes, at (0.01, 0.2) and (0.05, 0.1).
Table 3, the radius FAR of kink preimages beyond which the shared rule
centred at 0 serves: the same columns as Table 2, at the shipped ladder.
Table 4, the 2-D grading exponent: the three errors on the c1model batch at
fixed working orders 12, 16 and 24.
Table 5, the 3-D rule split on the 3-D cone batch and a 3-D c1model batch
(omega 0.2 t^0.5, r 0.25, 100 points): rays from an outside kink at q, 2q
and 4q angles in psi (the polar rule keeps its 2q directions), each with q
nodes along every ray of a kinked block, and 2q angles with the BUMP_POWER +
2 nodes that are exact on the cone only.  Columns as in Table 2; a block is
sized for 2q directions, so the 4q-angle rays fill twice _QUAD_NODES.
Configurations take turns within each repeat, and every call gets a fresh
field.  Needs numpy and the standard library.
"""

from __future__ import annotations

import argparse
import functools
import math
import platform
import statistics
import sys
import time

import numpy as np

from boundarylab import BoundaryGraph, QuadratureError, power, regdist
from boundarylab.barriers import sample_domain_points
from boundarylab.calibrate import run_calibration
from boundarylab.regdist import RegularizedDistanceField

BATCHES = [
    ("cone3d", BoundaryGraph("cone", dim=3, L=0.1), 0.25, 100),
    ("sinusoid", BoundaryGraph("sinusoid", A=0.05, k=4.0), 0.3, 1000),
    ("cone", BoundaryGraph("cone", L=0.1), 0.3, 1000),
    ("c1model", BoundaryGraph("c1model", omega=power(0.5, scale=0.2)), 0.3, 1000),
]
# (|d|, |grad d|, d |D^2 d|) of the exp bump at working order 64, e939f88
TODAY = {"cone3d": (1.8e-14, 5.6e-13, 6.9e-11), "sinusoid": (2.1e-16, 8.9e-16, 6.5e-13),
         "cone": (2.4e-14, 2.2e-13, 6.8e-11), "c1model": (3.6e-12, 4.5e-8, 2.2e-7)}
# Table 5's second 3-D batch, next to the cone3d batch
BATCHES_3D = [("c1model3d", BoundaryGraph("c1model", dim=3, omega=power(0.5, scale=0.2)),
               0.25, 100)]
FIXED = (8, 12, 16, 24, 32, 48, 64)
CONSTANTS = ("C_regdist_2d", "C_regdist_3d", "C0_barrier", "K_sandwich")
KNOBS = ("BUMP_POWER", "BASE_ORDER", "TOP_ORDER", "CERT_TOL", "GRADE", "FAR")


class Plateau:
    """1 on rho <= 1/2, then S(2 - 2 rho) with S(x) = 10x^3 - 15x^4 + 6x^5; C^2, mass 1."""

    def __init__(self, dim_surface: int):
        x, w = np.polynomial.legendre.leggauss(40)
        rho = 0.75 + 0.25 * x                     # the decaying half, exact at this order
        tail = 0.25 * w @ (self._shape(rho) * (rho if dim_surface == 2 else 1.0))
        self.normalization = (2.0 * (0.5 + tail) if dim_surface == 1
                              else 2.0 * math.pi * (0.125 + tail))

    @staticmethod
    def _shape(rho):
        x = np.clip(2.0 - 2.0 * rho, 0.0, 1.0)
        return x ** 3 * (10.0 - 15.0 * x + 6.0 * x * x)

    def eta_derivs(self, rho2):
        rho = np.sqrt(rho2)
        x = np.clip(2.0 - 2.0 * rho, 0.0, 1.0)
        slope = -2.0 * 30.0 * x * x * (1.0 - x) ** 2      # d/drho of S(2 - 2 rho)
        over = np.divide(slope, rho, out=np.zeros_like(rho), where=rho > 0)
        return self._shape(rho) / self.normalization, over / self.normalization


def use(profile=None, **knobs):
    """Set the module constants, the mollifier and the 3-D rule split (split's
    nodes and radial); clear the caches that read them."""
    regdist._nodes = knobs.pop("nodes", SHIPPED_NODES)
    RegularizedDistanceField._radial = knobs.pop("radial", SHIPPED_RADIAL)
    for name, value in knobs.items():
        setattr(regdist, name, value)
    regdist._mollifier = SHIPPED_MOLLIFIER if profile is None else profile
    SHIPPED_MOLLIFIER.cache_clear()
    regdist._centred_rule.cache_clear()


def split(ray_angles, chord):
    """The knobs of a 3-D rule whose rays from an outside kink take
    ray_angles(q) angles and whose kinked blocks take chord(q) nodes along
    each ray; the polar rule keeps its 2q directions."""
    def nodes(dim, c, order, radial):
        if dim == 3 and np.all(regdist._radius(c) >= 1.0):
            order = ray_angles(order) // 2              # _nodes casts 2 order rays
        return SHIPPED_NODES(dim, c, order, radial)

    def radial(self, c, order):
        return chord(order) if self.graph.dim == 3 and c.any(axis=1).all() else order

    return {"nodes": nodes, "radial": radial}


def fixed(graph, pts, q):
    """eval_all at the one working order 2q, with no certificate."""
    keep = {k: getattr(regdist, k) for k in ("BASE_ORDER", "TOP_ORDER", "CERT_TOL")}
    regdist.BASE_ORDER = regdist.TOP_ORDER = q
    regdist.CERT_TOL = math.inf
    try:
        return RegularizedDistanceField(graph).eval_all(pts)
    finally:
        for k, v in keep.items():
            setattr(regdist, k, v)


def errors(out, ref):
    (d, g, h), (D, G, H) = out, ref
    return (np.abs(d - D).max(), np.abs(g - G).max(),
            (D * np.abs(h - H).max(axis=(1, 2))).max())


def within(out, ref, name):
    """Whether every error of out is within TODAY (or rounding) on batch name."""
    return all(e <= max(t, 1e-14) for e, t in zip(errors(out, ref), TODAY[name]))


def passes(graph, pts):
    """Point-passes per order of one eval_all, and its output."""
    count = {}
    p_derivs = RegularizedDistanceField._p_derivs

    def counted(self, xp, s, order):
        count[order] = count.get(order, 0) + len(s)
        return p_derivs(self, xp, s, order)

    RegularizedDistanceField._p_derivs = counted
    try:
        out = RegularizedDistanceField(graph).eval_all(pts)
    finally:
        RegularizedDistanceField._p_derivs = p_derivs
    return "/".join(str(count[o]) for o in sorted(count)), out


def timed(configs, batches, repeats):
    """Median eval_all ms per (config, batch); configs take turns within each repeat."""
    times = {(c, name): [] for c in range(len(configs)) for name, _, _ in batches}
    for i in range(repeats):
        order = range(len(configs)) if i % 2 == 0 else reversed(range(len(configs)))
        for c in order:
            use(**configs[c])
            for name, graph, pts in batches:
                t0 = time.perf_counter()
                try:
                    RegularizedDistanceField(graph).eval_all(pts)
                except QuadratureError:
                    times[c, name].append(math.nan)
                    continue
                times[c, name].append(time.perf_counter() - t0)
    return {k: 1e3 * statistics.median(v) for k, v in times.items()}


def under_resolved():
    """(k = 1000 raises, k = 300 passes) for eval_d at the two points of the test."""
    pts = np.array([[0.01, 0.2], [0.05, 0.1]])
    out = []
    for A, k in ((2e-4, 1000.0), (0.2 / 300, 300.0)):
        try:
            RegularizedDistanceField(BoundaryGraph("sinusoid", A=A, k=k)).eval_d(pts)
            out.append(False)
        except QuadratureError:
            out.append(True)
    return "yes" if out == [True, False] else "NO"


def split_table(batches_3d, shipped, repeats):
    """Table 5: the 3-D rule split on the 3-D batches."""
    splits = [(f"{label} angles, q chord",
               dict(shipped, **split(lambda q, a=a: a * q, lambda q: q)))
              for label, a in (("q", 1), ("2q", 2), ("4q", 4))]
    splits.append(("2q angles, m + 2 chord",
                   dict(shipped, **split(lambda q: 2 * q, lambda q: regdist.BUMP_POWER + 2))))
    print("\nTable 5: 3-D rule split; errors |d|, |grad d|, d|D^2 d|; point-passes per "
          "order; eval_all ms\n")
    print("| split | " + " | ".join(name for name, _, _ in batches_3d) + " |")
    print("|---|" + "---|" * len(batches_3d))
    use(**shipped)
    refs = {name: fixed(graph, pts, 40) for name, graph, pts in batches_3d}
    times = timed([cfg for _, cfg in splits], batches_3d, repeats)
    for c, (label, cfg) in enumerate(splits):
        use(**cfg)
        cells = []
        for name, graph, pts in batches_3d:
            try:
                count, out = passes(graph, pts)
                e = errors(out, refs[name])
                cells.append(f"{e[0]:.0e}, {e[1]:.0e}, {e[2]:.0e}; {count}; {times[c, name]:.1f}")
            except QuadratureError:
                cells.append("raises")
        print(f"| {label} | " + " | ".join(cells) + " |")
    use(**shipped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    batches = [(name, graph, sample_domain_points(graph, r, n, np.random.default_rng(args.seed)))
               for name, graph, r, n in BATCHES]
    shipped = {k: getattr(regdist, k) for k in KNOBS}
    names = [name for name, _, _ in batches]
    print(f"seed {args.seed}, {args.repeats} repeats; python {platform.python_version()}, "
          f"numpy {np.__version__}, {platform.machine()}; shipped "
          + ", ".join(f"{k} {v}" for k, v in shipped.items()))

    profiles = [(f"m = {m}", dict(shipped, BUMP_POWER=m)) for m in (2, 3, 4)]
    profiles.append(("plateau", dict(shipped, profile=functools.lru_cache(maxsize=2)(Plateau))))
    print("\nTable 1: order reaching TODAY; point-passes per order; eval_all ms\n")
    print("| profile | " + " | ".join(names) + " | " + " | ".join(CONSTANTS) + " |")
    print("|---|" + "---|" * (len(names) + len(CONSTANTS)))
    times = timed([cfg for _, cfg in profiles], batches, args.repeats)
    for c, (label, cfg) in enumerate(profiles):
        use(**cfg)
        cells = []
        for name, graph, pts in batches:
            ref = fixed(graph, pts, 40 if graph.dim == 3 else 64)
            need = next((2 * q for q in FIXED if within(fixed(graph, pts, q), ref, name)), "-")
            try:
                count, out = passes(graph, pts)
                count = f"{'ok' if within(out, ref, name) else 'OVER'}; {count}"
            except QuadratureError:
                count = "raises"
            cells.append(f"{need}; {count}; {times[c, name]:.1f}")
        try:
            cal = run_calibration(2026)
            consts = [f"{getattr(cal, k):.4f}" for k in CONSTANTS]
        except QuadratureError:
            consts = ["raises"] * len(CONSTANTS)
        print(f"| {label} | " + " | ".join(cells + consts) + " |")

    ladders = [dict(shipped, BASE_ORDER=b, CERT_TOL=tol)
               for b in (4, 8, 16) for tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)]
    print("\nTable 2: errors |d|, |grad d|, d|D^2 d|; point-passes per order; eval_all ms\n")
    print("| base | CERT_TOL | " + " | ".join(names) + " | k 1000 raises, k 300 passes |")
    print("|---|---|" + "---|" * (len(names) + 1))
    use(**shipped)
    refs = {name: fixed(graph, pts, 40 if graph.dim == 3 else 64) for name, graph, pts in batches}
    times = timed(ladders, batches, args.repeats)
    for c, cfg in enumerate(ladders):
        use(**cfg)
        cells = []
        for name, graph, pts in batches:
            try:
                count, out = passes(graph, pts)
                e = errors(out, refs[name])
                cells.append(f"{e[0]:.0e}, {e[1]:.0e}, {e[2]:.0e}; {count}; {times[c, name]:.1f}")
            except QuadratureError:
                cells.append("raises")
        print(f"| {cfg['BASE_ORDER']} | {cfg['CERT_TOL']:.0e} | " + " | ".join(cells)
              + f" | {under_resolved()} |")

    fars = [dict(shipped, FAR=far) for far in (1.5, 2.0, 3.0, 4.0)]
    print("\nTable 3: FAR; errors |d|, |grad d|, d|D^2 d|; point-passes per order; eval_all ms\n")
    print("| FAR | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    times = timed(fars, batches, args.repeats)
    for c, cfg in enumerate(fars):
        use(**cfg)
        cells = []
        for name, graph, pts in batches:
            count, out = passes(graph, pts)
            e = errors(out, refs[name])
            cells.append(f"{e[0]:.0e}, {e[1]:.0e}, {e[2]:.0e}; {count}; {times[c, name]:.1f}")
        print(f"| {cfg['FAR']} | " + " | ".join(cells) + " |")

    print("\nTable 4: c1model errors |d|, |grad d|, d|D^2 d| at fixed working orders\n")
    print("| GRADE | 12 | 16 | 24 |")
    print("|---|---|---|---|")
    name, graph, pts = batches[3]
    for grade in (1, 2, 3):
        use(**dict(shipped, GRADE=grade))
        ref = fixed(graph, pts, 64)
        cells = [", ".join(f"{e:.0e}" for e in errors(fixed(graph, pts, q), ref))
                 for q in (6, 8, 12)]
        print(f"| {grade} | " + " | ".join(cells) + " |")

    batches_3d = [batches[0]] + [
        (name, graph, sample_domain_points(graph, r, n, np.random.default_rng(args.seed)))
        for name, graph, r, n in BATCHES_3D]
    split_table(batches_3d, shipped, args.repeats)
    use(**shipped)
    return 0


SHIPPED_MOLLIFIER = regdist._mollifier
SHIPPED_NODES = regdist._nodes
SHIPPED_RADIAL = RegularizedDistanceField._radial

if __name__ == "__main__":
    sys.exit(main())
