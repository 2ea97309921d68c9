"""Dyadic growth measurement: normal quotients, sup quotients, envelopes.

Level k of the cascade solves the Dirichlet problem on Omega cap B_{R_k},
R_k = 2^(-k+1) * R_1, on a fixed N x N grid (so h_k halves with the scale),
with data transferred from the level-(k-1) solution on the outer circle
and the prescribed boundary data on the graph part.  R_1 is the graph's
working radius, min(1/2, chart radius).  After each level the normal
quotient q_k = u(r_k e_n)/r_k and sup quotient
m_k = ||u||_{L_inf(B_{r_k})}/r_k are recorded at r_k = R_k/2 = 2^(-k) R_1.
On a dilation-invariant graph the system, its one-policy LU factor and the
bilinear transfer are built once: each later level costs one gather, one LU
solve and its residual check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import BoundaryLabError, ConvergenceError, DomainError
from .geometry import BoundaryGraph
from .modulus import Modulus, dini_integral
from .report import Report
from .solver import GridProblem, LaplaceOp, discretize, solve

__all__ = [
    "GrowthReport", "measure_growth", "measure_boundary_modulus",
    "envelope_lower", "envelope_upper", "fit_log_slope",
]


@dataclass(frozen=True)
class GrowthReport(Report):
    """Per-level cascade measurements plus fitted growth diagnostics."""

    ks: np.ndarray = field(metadata={"json": "k"})      # level indices
    radii: np.ndarray = field(metadata={"json": "r"})   # sampling radii r_k, strictly decreasing
    q: np.ndarray                 # normal quotients u(r_k e_n)/r_k
    m: np.ndarray                 # sup quotients ||u||_inf(B_{r_k})/r_k
    exponent: float               # fitted slope of log q_k vs log r_k
    exponent_r2: float
    residuals: np.ndarray         # solver residuals per level
    env_lower: Optional[np.ndarray] = None
    env_upper: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.any(np.diff(self.radii) >= 0):
            raise DomainError("cascade radii must be strictly decreasing")


def fit_log_slope(radii, values):
    """Least-squares slope of log(values) against log(radii).

    Drops the first and the last entry (cascade edges are contaminated by
    the outer data and the finest grid).
    """
    x = np.log(np.asarray(radii, dtype=float)[1:-1])
    y = np.log(np.asarray(values, dtype=float)[1:-1])
    if len(x) < 2:
        raise DomainError("need at least two interior levels for a slope fit")
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def _on_circle(pts: np.ndarray, R: float) -> np.ndarray:
    """Which cut points lie on the circle |p| = R (to 1e-9 R), not on the graph."""
    return np.abs(np.linalg.norm(pts, axis=-1) - R) < 1e-9 * R


def _level_data(pts, *, R, circle_data, graph_data):
    """A cascade level's Dirichlet data at its cut points: circle_data on the
    circle |p| = R, graph_data on the graph part."""
    on_circle = _on_circle(pts, R)
    out = np.empty(len(pts))
    out[on_circle] = circle_data(pts[on_circle])
    out[~on_circle] = graph_data(pts[~on_circle])
    return out


def _run_cascade(graph: BoundaryGraph, operator, *, k_max: int, n_grid: int,
                 outer_data: Callable, graph_data: Callable):
    """Sequential dyadic solve of levels 1..k_max from B_{R_1}, R_1 the
    graph's working radius, with zero forcing; returns per-level summaries.

    Each level's problem carries its data as its dirichlet: outer_data (level
    1) or the transfer of the level before on the circle, graph_data on the
    graph part.  On a dilation-invariant graph each level after the first
    solves the dilation of the level before, bitwise the level's own
    assembly, and the circle split and the transfer of level 2 serve every
    later level; other graphs assemble each level and build its transfer.
    """
    radii, qs, ms, residuals = [], [], [], []
    sol = system = transfer = None
    origin_gap = float(np.atleast_1d(graph.gamma(np.zeros((1, 1))))[0])
    for k in range(1, k_max + 1):
        R = 2.0 ** (-k + 1) * graph.working_radius
        circle_data = outer_data if sol is None else partial(sol.interpolate, fill=graph_data)
        prob = GridProblem(graph, R, n_grid, operator, rhs=lambda p: np.zeros(len(p)),
                           dirichlet=partial(_level_data, R=R, circle_data=circle_data,
                                             graph_data=graph_data))
        try:
            if sol is None or not graph.dilation_invariant:
                system = discretize(prob)
            else:
                # the level's cut points, as system.dilated scales them
                pts = system.boundary_points * (R / system.problem.r)
                if transfer is None:
                    on_circle = _on_circle(pts, R)
                    transfer = sol.transfer(pts[on_circle])
                values = np.empty(len(pts))
                values[on_circle] = sol.gather(transfer, graph_data)
                values[~on_circle] = graph_data(pts[~on_circle])
                system = system.dilated(prob, values)
            sol = solve(prob, system=system)
        except (BoundaryLabError, RuntimeError) as exc:
            raise ConvergenceError(f"cascade level {k} (R={R:g}) failed: {exc}") from exc
        r_k = R / 2.0
        u_probe = float(sol.interpolate(np.array([[0.0, origin_gap + r_k]]), fill=graph_data)[0])
        in_ball = np.linalg.norm(sol.nodes, axis=-1) <= r_k
        sup_u = float(np.abs(sol.values[in_ball]).max()) if in_ball.any() else 0.0
        radii.append(r_k)
        qs.append(u_probe / r_k)
        ms.append(sup_u / r_k)
        residuals.append(sol.residual)
    return (np.arange(1, k_max + 1), np.asarray(radii), np.asarray(qs),
            np.asarray(ms), np.asarray(residuals))


def envelope_lower(omega: Modulus, rho: float, r: float, C_hat: float) -> float:
    """(1/C) exp(-C int_rho^{2r} omega(s)/s ds)."""
    return (1.0 / C_hat) * np.exp(-C_hat * dini_integral(omega, rho, 2 * r))


def envelope_upper(omega: Modulus, rho: float, r: float, C_hat: float) -> float:
    """C exp(C int_rho^{2r} omega ds/s)."""
    return C_hat * np.exp(C_hat * dini_integral(omega, rho, 2 * r))


def measure_growth(graph: BoundaryGraph, operator=LaplaceOp(), *, k_max: int,
                   n_grid: int, outer_data=None, omega: Optional[Modulus] = None,
                   C_hat: float = 4.0) -> GrowthReport:
    """Dyadic growth of a nonnegative solution vanishing on the graph.

    Default data: u = 1 on the outermost circle, 0 on the graph part, and
    zero forcing; envelopes are attached when a boundary modulus omega is
    supplied.
    """
    if outer_data is None:
        outer_data = lambda p: np.ones(len(p))
    ks, radii, q, m, res = _run_cascade(
        graph, operator, k_max=k_max, n_grid=n_grid,
        outer_data=outer_data, graph_data=lambda p: np.zeros(len(p)))
    if np.any(q <= 0):
        raise ConvergenceError("nonpositive normal quotient in a cascade "
                               "expected to produce a positive solution")
    slope, r2 = fit_log_slope(radii, q)
    env_lo = env_hi = None
    if omega is not None:
        ref = 1  # envelopes relative to the first interior level
        env_lo = np.array([q[ref] * envelope_lower(omega, radii[i], radii[ref], C_hat)
                           for i in range(len(ks))])
        env_hi = np.array([q[ref] * envelope_upper(omega, radii[i], radii[ref], C_hat)
                           for i in range(len(ks))])
    return GrowthReport(ks=ks, radii=radii, q=q, m=m, exponent=slope,
                        exponent_r2=r2, residuals=res,
                        env_lower=env_lo, env_upper=env_hi)


def measure_boundary_modulus(graph: BoundaryGraph, operator=LaplaceOp(), *,
                             k_max: int, n_grid: int, g: Callable, grad_g0) -> GrowthReport:
    """Sup quotients of v = u - g(0) - grad g(0) . x' through the cascade.

    The cascade starts on B_{R_1}, R_1 the graph's working radius, with
    zero forcing.  The solution takes boundary data g on the graph part and
    u = 1 on the outermost circle at the first level; the affine part of g
    at the origin is subtracted before measuring, so smooth data with
    nonzero gradient still yields bounded m_k.  grad_g0 is the exact
    tangential gradient of g at the origin, of length n - 1.
    """
    g0 = float(np.atleast_1d(g(np.zeros((1, 2))))[0])

    def affine(p):
        return g0 + p[:, :-1] @ grad_g0

    # solve directly for v = u - affine: for linear operators this is the
    # cascade with affinely shifted boundary data
    ks, radii, qv, mv, res = _run_cascade(
        graph, operator, k_max=k_max, n_grid=n_grid,
        outer_data=lambda p: 1.0 - affine(np.atleast_2d(p)),
        graph_data=lambda p: np.atleast_1d(g(p)) - affine(np.atleast_2d(p)))
    slope, r2 = fit_log_slope(radii, np.maximum(np.abs(mv), 1e-300))
    return GrowthReport(ks=ks, radii=radii, q=qv, m=mv, exponent=slope,
                        exponent_r2=r2, residuals=res)
