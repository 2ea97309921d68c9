"""The four benchmark workloads: set-up, one iteration, and output checks.

Each workload drives boundarylab only through its public API and CLI.  Its
set-up returns the operations of one iteration; the benchmark times the
operations of an iteration together and checks each result afterwards, so
the checks never count towards wall time.  A check depends only on the
program's output, never on the seed, so a claim can be re-run on a
held-out seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

# layer functions are called through their modules, so the tracer's
# wrappers (installed on the modules) see the benchmark's own calls too
from boundarylab import barriers, cli, regdist
from boundarylab.barriers import Barrier
from boundarylab.calibrate import EPS_CAP, epsilon_for, load_calibration
from boundarylab.geometry import BoundaryGraph
from boundarylab.modulus import power
from boundarylab.pucci import EllipticityPair

REFERENCE = Path(__file__).resolve().parent / "data" / "pucci_sinusoid_ref.npz"

GROWTH_CONFIG = {
    "schema_version": 1,
    "domain": {"family": "cone", "L": 0.2},
    "k_max": 7,
    "n_grid": 128,
}
SOLVE_CONFIG = {
    "schema_version": 1,
    "domain": {"family": "sinusoid", "A": 0.05, "k": 4},
    "operator": {"kind": "pucci_minus", "ellipticity": {"lam": 1, "Lam": 2}},
    "stencil": "wide",
    "r": 0.5,
    "n": 128,
    "rhs": {"name": "constant", "value": -1},
    "dirichlet": {"name": "linear", "coeffs": [0.3, 0.5], "offset": 0.1},
}

# acceptance criterion 4 bounds the sector-exponent error by 5%
ORACLE_REL_TOL = 0.05
# a refactor that keeps max|du| <= 1e-12 must pass with room to spare
U_TOL = 1e-10

E_BARRIER = EllipticityPair(1.0, 2.0)
E_MIN_EPS = EllipticityPair(1.0, 1.0)
R_DIST, R_BARRIER = 0.3, 0.25
N_DIST_2D, N_BARRIER_2D, N_MIN_EPS = 1000, 300, 200
R_DIST_3D, N_DIST_3D, N_BARRIER_3D = 0.25, 100, 100


class Op(NamedTuple):
    """One checked operation: call() is timed, check(result) is not."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, dict]]


class Workload(NamedTuple):
    setup: Callable[[int, Path], list]      # (seed, work dir) -> [Op]
    sizes: dict                             # problem sizes, for provenance


def write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    return path


def _setup_cascade_cone(seed: int, work: Path) -> list:
    load_calibration()
    cfg = write_config(work / "growth.json", GROWTH_CONFIG)
    out = work / "growth"
    L = GROWTH_CONFIG["domain"]["L"]
    # u ~ |x|^alpha in a sector of opening pi - 2 arctan L, so q_k ~ r_k^(alpha - 1)
    exact = math.pi / (math.pi - 2.0 * math.atan(L)) - 1.0

    def check(rc):
        rep = json.loads((out / "growth_report.json").read_text())
        err = abs(rep["exponent"] - exact) / exact
        return rc == 0 and err <= ORACLE_REL_TOL, {
            "exit_code": rc, "exponent": rep["exponent"], "oracle_rel_err": err}

    argv = ["growth", "--config", str(cfg), "--out", str(out)]
    return [Op("growth", lambda: cli.main(argv), check)]


def _max_abs_du(solution: np.ndarray, ref) -> float:
    """max|u - u_ref| after matching nodes by coordinates; inf on a node mismatch."""
    a = solution[np.lexsort((solution[:, 1], solution[:, 0]))]
    nodes = ref["nodes"]
    order = np.lexsort((nodes[:, 1], nodes[:, 0]))
    if a.shape[0] != nodes.shape[0] or np.abs(a[:, :2] - nodes[order]).max() > 1e-12:
        return math.inf
    return float(np.abs(a[:, 2] - ref["u"][order]).max())


def _setup_pucci_sinusoid(seed: int, work: Path) -> list:
    load_calibration()
    cfg = write_config(work / "solve.json", SOLVE_CONFIG)
    out = work / "solve"

    def check(rc):
        rep = json.loads((out / "solve_report.json").read_text())
        cert = rep["certificate"]
        sol = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
        with np.load(REFERENCE) as ref:
            du = _max_abs_du(sol, ref)
        ok = (rc == 0 and cert["monotone"] is True
              and cert["min_direction_weight"] >= 0.0 and du <= U_TOL)
        return ok, {"exit_code": rc, "max_abs_du": du, "n_nodes": rep["n_nodes"],
                    "policy_rounds": rep["iterations"], "certificate": cert}

    argv = ["solve", "--config", str(cfg), "--out", str(out)]
    return [Op("solve", lambda: cli.main(argv), check)]


def _distance_op(label, field, pts, C):
    def check(rep):
        return rep.passed, rep.to_dict()
    return Op(label, lambda: regdist.check_distance_bounds(field, pts, C), check)


def _barrier_op(label, barrier, pts, must_pass=True):
    """A barrier check; with must_pass=False the verdict is recorded, not judged."""
    def check(rep):
        ok = rep.passed if must_pass else math.isfinite(rep.min_value)
        return ok, {"pass": rep.passed, "min_value": rep.min_value, "epsilon": rep.eps}
    return Op(label, lambda: barriers.verify_barrier(barrier, pts), check)


def _families_2d():
    return [BoundaryGraph("sinusoid", A=0.05, k=4.0),
            BoundaryGraph("cone", L=0.1),
            BoundaryGraph("c1model", omega=power(0.5, scale=0.2))]


def _epsilon(cal, graph: BoundaryGraph) -> float:
    """The calibrated exponent, chosen the way the barrier-check CLI does."""
    sem = graph.local_lip_seminorm(min(2 * R_BARRIER, graph.chart_radius))
    return epsilon_for(cal, E_BARRIER, sem)


def _setup_barrier_2d(seed: int, work: Path) -> list:
    cal = load_calibration()
    rng = np.random.default_rng(seed)
    ops, fields = [], {}
    for graph in _families_2d():
        field = fields[graph.family] = regdist.RegularizedDistanceField(graph)
        pts_d = barriers.sample_domain_points(graph, R_DIST, N_DIST_2D, rng)
        pts_b = barriers.sample_domain_points(graph, R_BARRIER, N_BARRIER_2D, rng)
        eps = _epsilon(cal, graph)
        ops.append(_distance_op(f"distance:{graph.family}", field, pts_d, cal.C_regdist_2d))
        for sign in ("sub", "super"):
            b = Barrier(field=field, eps=eps, sign=sign, E=E_BARRIER, r=R_BARRIER)
            ops.append(_barrier_op(f"barrier-{sign}:{graph.family}", b, pts_b))
    cone_field = fields["cone"]
    pts_m = barriers.sample_domain_points(cone_field.graph, R_BARRIER, N_MIN_EPS, rng)

    def check(eps):
        return 0.0 < eps <= EPS_CAP, {"minimal_epsilon": eps}

    ops.append(Op("minimal-epsilon:cone",
                  lambda: barriers.minimal_passing_epsilon(cone_field, E_MIN_EPS, R_BARRIER, pts_m),
                  check))
    return ops


def _setup_regdist_3d(seed: int, work: Path) -> list:
    cal = load_calibration()
    rng = np.random.default_rng(seed)
    graph = BoundaryGraph("cone", dim=3, L=0.1)
    field = regdist.RegularizedDistanceField(graph)
    pts_d = barriers.sample_domain_points(graph, R_DIST_3D, N_DIST_3D, rng)
    pts_b = barriers.sample_domain_points(graph, R_BARRIER, N_BARRIER_3D, rng)
    b = Barrier(field=field, eps=_epsilon(cal, graph), sign="sub", E=E_BARRIER, r=R_BARRIER)
    # Known defect: C0_barrier was fitted on 2-D cones only, so this sub-barrier
    # fails at the eps cap (min_value about -0.22).  It is recorded, not judged.
    return [_distance_op("distance:cone3d", field, pts_d, cal.C_regdist_3d),
            _barrier_op("barrier-sub:cone3d", b, pts_b, must_pass=False)]


WORKLOADS = {
    "cascade_cone": Workload(_setup_cascade_cone, {
        "command": "growth", "domain": GROWTH_CONFIG["domain"], "operator": "laplace",
        "k_max": 7, "n_grid": 128}),
    "pucci_sinusoid": Workload(_setup_pucci_sinusoid, {
        "command": "solve", "domain": SOLVE_CONFIG["domain"], "operator": "pucci_minus",
        "ellipticity": [1, 2], "stencil": "wide", "r": 0.5, "n": 128}),
    "barrier_2d": Workload(_setup_barrier_2d, {
        "families": ["sinusoid A=0.05 k=4", "cone L=0.1", "c1model omega=0.2*t^0.5"],
        "distance_points": N_DIST_2D, "distance_r": R_DIST,
        "barrier_points": N_BARRIER_2D, "barrier_r": R_BARRIER, "barrier_E": [1, 2],
        "minimal_epsilon": {"family": "cone L=0.1", "E": [1, 1], "points": N_MIN_EPS}}),
    "regdist_3d": Workload(_setup_regdist_3d, {
        "family": "cone dim=3 L=0.1", "distance_points": N_DIST_3D, "distance_r": R_DIST_3D,
        "barrier_points": N_BARRIER_3D, "barrier_r": R_BARRIER, "barrier_E": [1, 2]}),
}
