"""Batch command-line front-end.

Subcommands: modulus-table, regdist-check, barrier-check, solve, growth,
boundary-modulus, calibrate.  Exit codes: 0 on pass, 1 on a check failure,
2 on configuration or runtime errors.  All output is deterministic given
the config file and seed; CSV uses '.' decimals, LF line endings, and 17
significant digits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import calibrate as _calmod
from .barriers import Barrier, sample_domain_points, verify_barrier
from .config import (_count, _integer, _positive, _write_json, data_from_config,
                     ellipticity_from_config, graph_from_config, load_config,
                     modulus_from_config, operator_from_config)
from .errors import BoundaryLabError, ConfigError, DomainError
from .harness import measure_boundary_modulus, measure_growth
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


def _cmd_modulus_table(cfg, out: Path, cal, seed) -> int:
    omega = modulus_from_config(cfg["modulus"])
    n = _count(cfg, "n_points", "modulus-table", 50)
    hi = omega.t0 * (1.0 - 1e-9)
    lo = _positive(cfg, "t_min", "modulus-table", hi * 2.0 ** (-20))
    if not lo < hi:
        raise ConfigError(f"modulus-table.t_min: expected a number below t0 = {omega.t0!r}, "
                          f"got {lo!r}")
    ts = np.geomspace(lo, hi * (1 - 1e-9), n)
    rows = []
    for t in ts:
        rows.append([t, float(omega(t)), dini_integral(omega, t, hi)])
    _write_csv(out / "modulus.csv", ["t", "omega", "dini_to_t0"], rows)
    return 0


def _cmd_regdist_check(cfg, out: Path, cal, seed) -> int:
    graph = graph_from_config(cfg["domain"])
    n = _count(cfg, "n_points", "regdist-check", 1000)
    r = _positive(cfg, "r", "regdist-check", 0.3)
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
    r = _positive(cfg, "r", "barrier-check", 0.25)
    n = _count(cfg, "n_points", "barrier-check", 500)
    rng = np.random.default_rng(seed)
    field = RegularizedDistanceField(graph)
    sem = graph.local_lip_seminorm(2 * r)
    eps = _calmod.epsilon_for(cal, E, sem)
    pts = sample_domain_points(graph, r, n, rng)
    reports = {}
    ok = True
    # exactly flat boundary: any positive exponent bump works
    eps_used = eps if eps > 0 else 1e-3
    for sign in ("sub", "super"):
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
    r = _positive(cfg, "r", "solve", 0.5)
    n = _integer(cfg, "n", "solve", 64)
    rhs = data_from_config(cfg.get("rhs", {"name": "zero"}), graph.dim, "rhs")
    g = data_from_config(cfg.get("dirichlet", {"name": "zero"}), graph.dim, "dirichlet")
    # schema-1 configs may carry "stencil": "wide", which selects nothing, as the
    # lattice directions follow from the operator; another value would name a
    # scheme that does not run, so it is refused
    if cfg.get("stencil", "wide") != "wide":
        raise ConfigError(f"solve key 'stencil' accepts only 'wide', got {cfg['stencil']!r}: "
                          "the lattice directions now follow from the operator")
    prob = GridProblem(graph, r, n, op, rhs=rhs, dirichlet=g)
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
    cols = {"k": report.ks, "r": report.radii, "q": report.q, "m": report.m}
    if report.env_lower is not None:
        cols.update(env_lower=report.env_lower, env_upper=report.env_upper)
    cols.update(extra or {})
    _write_csv(out / "growth.csv", list(cols), np.column_stack(list(cols.values())))


# the cascade record that growth and boundary-modulus share
_CASCADE_KEYS = {"domain", "operator", "k_max", "n_grid"}


def _cascade_from_config(cfg, command):
    """The graph, the operator and the cascade keywords of command's config."""
    graph = graph_from_config(cfg["domain"])
    op = operator_from_config(cfg.get("operator", {"kind": "laplace"}))
    return graph, op, {"k_max": _integer(cfg, "k_max", command, 7),
                       "n_grid": _integer(cfg, "n_grid", command, 128)}


def _cmd_growth(cfg, out: Path, cal, seed) -> int:
    graph, op, cascade = _cascade_from_config(cfg, "growth")
    omega = modulus_from_config(cfg["omega"], "omega") if "omega" in cfg else None
    outer = (data_from_config(cfg["outer_data"], graph.dim, "outer_data")
             if "outer_data" in cfg else None)
    rep = measure_growth(graph, op, outer_data=outer, omega=omega,
                         C_hat=cal.C_envelope, **cascade)
    _growth_csv(out, rep)
    _write_json(out / "growth_report.json", rep.to_dict())
    if rep.env_lower is not None:
        inside = np.all((rep.q >= rep.env_lower) & (rep.q <= rep.env_upper))
        return 0 if inside else 1
    return 0


def _cmd_boundary_modulus(cfg, out: Path, cal, seed) -> int:
    graph, op, cascade = _cascade_from_config(cfg, "boundary-modulus")
    g_rec = cfg.get("g", {"name": "zero"})
    g = data_from_config(g_rec, graph.dim, "g")
    # the data's exact tangential gradient at the origin (zero unless linear)
    grad_g0 = (np.asarray(g_rec["coeffs"], dtype=float)[:-1] if g_rec["name"] == "linear"
               else np.zeros(graph.dim - 1))
    wt_vals = extra = None
    code = 0
    if "omega_tilde" in cfg:
        # read and checked at the cascade radii R_1 2^-k before any level is solved
        wt = modulus_from_config(cfg["omega_tilde"], "omega_tilde")
        radii = graph.working_radius * 0.5 ** np.arange(1, cascade["k_max"] + 1)
        wt_vals = wt(radii)
        # written so that NaN fails it
        if not np.all(wt_vals > 0):
            k = int(np.argmin(wt_vals > 0))
            raise DomainError(f"omega_tilde must be positive at every cascade radius, "
                              f"got {float(wt_vals[k])!r} at r = {float(radii[k])!r}")
    rep = measure_boundary_modulus(graph, op, g=g, grad_g0=grad_g0, **cascade)
    if wt_vals is not None:
        ratio = rep.m * rep.radii / wt_vals
        extra = {"omega_tilde": wt_vals, "ratio": ratio}
        code = 0 if np.all(ratio <= cal.C_envelope) else 1
    _growth_csv(out, rep, extra)
    _write_json(out / "boundary_modulus_report.json", rep.to_dict())
    return code


def _cmd_calibrate(cfg, out: Path, cal, seed) -> int:
    new = _calmod.run_calibration(seed=seed)
    _calmod.save_calibration(new, out / "calibration.json")
    return 0


# each subcommand's handler and its top-level config keys (schema_version and
# seed are always allowed)
_COMMANDS = {
    "modulus-table": (_cmd_modulus_table, {"modulus", "n_points", "t_min"}),
    "regdist-check": (_cmd_regdist_check, {"domain", "n_points", "r"}),
    "barrier-check": (_cmd_barrier_check, {"domain", "ellipticity", "r", "n_points"}),
    "solve": (_cmd_solve, {"domain", "operator", "r", "n", "rhs", "dirichlet", "stencil"}),
    "growth": (_cmd_growth, _CASCADE_KEYS | {"omega", "outer_data"}),
    "boundary-modulus": (_cmd_boundary_modulus, _CASCADE_KEYS | {"g", "omega_tilde"}),
    "calibrate": (_cmd_calibrate, set()),
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
        handler, keys = _COMMANDS[args.command]
        unknown = set(cfg) - keys - {"schema_version", "seed"}
        if unknown:
            raise ConfigError(
                f"unknown keys for {args.command}: {sorted(unknown)}")
        seed = args.seed if args.seed is not None else _integer(cfg, "seed", args.command, 0)
        cal = _calmod.load_calibration(args.calibration)
        args.out.mkdir(parents=True, exist_ok=True)
        return handler(cfg, args.out, cal, seed)
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
