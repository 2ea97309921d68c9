"""Batch command-line front-end.

Subcommands: modulus-table, regdist-check, barrier-check, solve, growth,
boundary-modulus, calibrate.  Exit codes: 0 on pass, 1 on a check failure,
2 on configuration or runtime errors.  All output is deterministic given
the config file and seed; CSV uses '.' decimals, LF line endings, and 17
significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import calibrate as _calmod
from .barriers import Barrier, sample_domain_points, verify_barrier
from .config import (data_from_config, ellipticity_from_config, graph_from_config,
                     load_config, modulus_from_config, operator_from_config)
from .errors import BoundaryLabError, ConfigError
from .harness import diagnostic_sequences, measure_boundary_modulus, measure_growth
from .modulus import dini_integral
from .regdist import RegularizedDistanceField, check_distance_bounds
from .solver import GridProblem, abp_check, solve

__all__ = ["main"]


def _write_csv(path: Path, header, rows) -> None:
    """One line per row, every value as '%.17g' of its float.

    Each row is one '%' on its list of floats, written 1024 rows at a time
    so the text of the whole table is never held at once.
    """
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    rows = np.asarray(rows, dtype=float)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for a in range(0, len(rows), 1024):
            f.write("".join([fmt % tuple(row) for row in rows[a:a + 1024].tolist()]))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cmd_modulus_table(cfg, out: Path, cal, seed) -> int:
    omega = modulus_from_config(cfg["modulus"])
    n = int(cfg.get("n_points", 50))
    hi = omega.t0 * (1.0 - 1e-9)
    lo = float(cfg.get("t_min", hi * 2.0 ** (-20)))
    ts = np.geomspace(lo, hi * (1 - 1e-9), n)
    rows = []
    for t in ts:
        rows.append([t, float(omega(t)), dini_integral(omega, t, hi)])
    _write_csv(out / "modulus.csv", ["t", "omega", "dini_to_t0"], rows)
    return 0


def _cmd_regdist_check(cfg, out: Path, cal, seed) -> int:
    graph = graph_from_config(cfg["domain"])
    n = int(cfg.get("n_points", 1000))
    r = float(cfg.get("r", 0.3))
    rng = np.random.default_rng(seed)
    field = RegularizedDistanceField(graph)
    pts = sample_domain_points(graph, r, n, rng)
    C = cal.C_regdist_2d if graph.dim == 2 else cal.C_regdist_3d
    rep = check_distance_bounds(field, pts, C)
    cols = ["x%d" % (i + 1) for i in range(graph.dim)]
    _write_csv(out / "regdist.csv",
               cols + ["d", "grad_norm", "hess_norm", "ratio"], rep.columns)
    _write_json(out / "regdist_report.json", rep.to_dict())
    return 0 if rep.passed else 1


def _cmd_barrier_check(cfg, out: Path, cal, seed) -> int:
    graph = graph_from_config(cfg["domain"])
    E = ellipticity_from_config(cfg["ellipticity"])
    r = float(cfg.get("r", 0.25))
    n = int(cfg.get("n_points", 500))
    rng = np.random.default_rng(seed)
    field = RegularizedDistanceField(graph)
    sem = graph.local_lip_seminorm(min(2 * r, graph.chart_radius))
    eps = _calmod.epsilon_for(cal, E, sem)
    pts = sample_domain_points(graph, r, n, rng)
    reports = {}
    ok = True
    for sign in ("sub", "super"):
        if eps <= 0:
            # exactly flat boundary: any positive exponent bump works
            eps_used = 1e-3
        else:
            eps_used = eps
        rep = verify_barrier(Barrier(field=field, eps=eps_used, sign=sign,
                                     E=E, r=r), pts)
        reports[sign] = rep.to_dict()
        ok = ok and rep.passed
    _write_json(out / "barrier_report.json",
                {"epsilon": eps, "seminorm": sem, "reports": reports})
    return 0 if ok else 1


def _cmd_solve(cfg, out: Path, cal, seed) -> int:
    graph = graph_from_config(cfg["domain"])
    op = operator_from_config(cfg["operator"])
    r = float(cfg.get("r", 0.5))
    n = int(cfg.get("n", 64))
    rhs = data_from_config(cfg.get("rhs", {"name": "zero"}), "rhs")
    g = data_from_config(cfg.get("dirichlet", {"name": "zero"}), "dirichlet")
    stencil = cfg.get("stencil", "standard5")
    prob = GridProblem(graph, r, 2 * r / n, op, rhs=rhs, dirichlet=g,
                       stencil=stencil)
    sol = solve(prob)
    _write_csv(out / "solution.csv", ["x1", "x2", "u"],
               np.column_stack([sol.nodes, sol.values]))
    rep = abp_check(sol)
    _write_json(out / "solve_report.json", {
        "residual": sol.residual,
        "iterations": sol.iterations,
        "h": sol.h,
        "n_nodes": len(sol.values),
        "certificate": sol.certificate,
        "abp": rep.to_dict(),
    })
    return 0


def _growth_csv(out: Path, report, extra=None) -> None:
    header = ["k", "r", "q", "m"]
    cols = [report.ks, report.radii, report.q, report.m]
    for name, col in (("env_lower", report.env_lower),
                      ("env_upper", report.env_upper),
                      ("eps_k", report.eps_seq), ("c_k", report.c_seq),
                      ("d_k", report.d_seq)):
        if col is not None:
            header.append(name)
            cols.append(col)
    if extra:
        for name, col in extra.items():
            header.append(name)
            cols.append(col)
    _write_csv(out / "growth.csv", header, np.column_stack(cols))


def _cmd_growth(cfg, out: Path, cal, seed) -> int:
    graph = graph_from_config(cfg["domain"])
    op = operator_from_config(cfg.get("operator", {"kind": "laplace"}))
    k_max = int(cfg.get("k_max", 7))
    n_grid = int(cfg.get("n_grid", 128))
    omega = modulus_from_config(cfg["omega"]) if "omega" in cfg else None
    outer = (data_from_config(cfg["outer_data"], "outer_data")
             if "outer_data" in cfg else None)
    rep = measure_growth(graph, op, k_max=k_max, n_grid=n_grid,
                         outer_data=outer, omega=omega, C_hat=cal.C_envelope)
    ks, eps, c, d = diagnostic_sequences(graph, cal.C0_barrier, cal.A_recursion,
                                         k_max)
    rep.eps_seq, rep.c_seq, rep.d_seq = eps, c, d
    _growth_csv(out, rep)
    _write_json(out / "growth_report.json", rep.to_dict())
    if rep.env_lower is not None:
        inside = np.all((rep.q >= rep.env_lower) & (rep.q <= rep.env_upper))
        return 0 if inside else 1
    return 0


def _cmd_boundary_modulus(cfg, out: Path, cal, seed) -> int:
    graph = graph_from_config(cfg["domain"])
    op = operator_from_config(cfg.get("operator", {"kind": "laplace"}))
    k_max = int(cfg.get("k_max", 7))
    n_grid = int(cfg.get("n_grid", 128))
    g_rec = cfg.get("g", {"name": "zero"})
    g = data_from_config(g_rec, "g")
    # the data's exact tangential gradient at the origin (zero unless linear)
    grad_g0 = (np.asarray(g_rec["coeffs"], dtype=float)[:-1] if g_rec["name"] == "linear"
               else np.zeros(graph.dim - 1))
    rep = measure_boundary_modulus(graph, op, k_max=k_max, n_grid=n_grid, g=g,
                                   grad_g0=grad_g0)
    extra = None
    code = 0
    if "omega_tilde" in cfg:
        wt = modulus_from_config(cfg["omega_tilde"], "omega_tilde")
        wt_vals = np.array([float(wt(min(r, wt.t0 * (1 - 1e-9)))) for r in rep.radii])
        ratio = rep.m * rep.radii / wt_vals
        extra = {"omega_tilde": wt_vals, "ratio": ratio}
        code = 0 if np.all(ratio <= cal.C_envelope) else 1
    _growth_csv(out, rep, extra)
    _write_json(out / "boundary_modulus_report.json", rep.to_dict())
    return code


def _cmd_calibrate(cfg, out: Path, cal, seed) -> int:
    new = _calmod.run_calibration(seed=seed, include_3d=bool(cfg.get("include_3d", True)))
    _calmod.save_calibration(new, out / "calibration.json")
    return 0


# allowed top-level config keys per subcommand (schema_version/seed always)
_ALLOWED_KEYS = {
    "modulus-table": {"modulus", "n_points", "t_min"},
    "regdist-check": {"domain", "n_points", "r"},
    "barrier-check": {"domain", "ellipticity", "r", "n_points"},
    "solve": {"domain", "operator", "r", "n", "rhs", "dirichlet", "stencil"},
    "growth": {"domain", "operator", "k_max", "n_grid", "omega", "outer_data"},
    "boundary-modulus": {"domain", "operator", "k_max", "n_grid", "g", "omega_tilde"},
    "calibrate": {"include_3d"},
}

_COMMANDS = {
    "modulus-table": _cmd_modulus_table,
    "regdist-check": _cmd_regdist_check,
    "barrier-check": _cmd_barrier_check,
    "solve": _cmd_solve,
    "growth": _cmd_growth,
    "boundary-modulus": _cmd_boundary_modulus,
    "calibrate": _cmd_calibrate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="boundarylab",
        description="Numerical experiments on boundary behavior of elliptic "
                    "equations in Lipschitz and C1 graph domains.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", type=Path, help="experiment config JSON")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--calibration", type=Path, default=None,
                        help="calibration constants JSON (default: packaged)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized sweeps (overrides the config)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config is not None else {"schema_version": 1}
        unknown = set(cfg) - _ALLOWED_KEYS[args.command] - {"schema_version", "seed"}
        if unknown:
            raise ConfigError(
                f"unknown keys for {args.command}: {sorted(unknown)}")
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        cal = _calmod.load_calibration(args.calibration)
        args.out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out, cal, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BoundaryLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
