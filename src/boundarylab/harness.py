"""Dyadic growth measurement: normal quotients, sup quotients, envelopes.

Level k of the cascade solves the Dirichlet problem on Omega cap B_{R_k},
R_k = 2^(-k+1) * r0, on a fixed N x N grid (so h_k halves with the scale),
with data transferred from the level-(k-1) solution on the outer circle
and the prescribed boundary data on the graph part.  After each level the
normal quotient q_k = u(r_k e_n)/r_k and sup quotient
m_k = ||u||_{L_inf(B_{r_k})}/r_k are recorded at r_k = R_k/2 = 2^(-k) r0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BoundaryLabError, ConvergenceError, DomainError
from .geometry import BoundaryGraph
from .modulus import Modulus, dini_integral
from .solver import GridProblem, LaplaceOp, discretize, solve

__all__ = [
    "GrowthReport", "measure_growth", "measure_boundary_modulus",
    "diagnostic_sequences", "envelope_lower", "envelope_upper",
    "fit_log_slope", "dyadic_sum_and_integral",
]


@dataclass
class GrowthReport:
    """Per-level cascade measurements plus fitted growth diagnostics."""

    ks: np.ndarray                # level indices
    radii: np.ndarray             # sampling radii r_k, strictly decreasing
    q: np.ndarray                 # normal quotients u(r_k e_n)/r_k
    m: np.ndarray                 # sup quotients ||u||_inf(B_{r_k})/r_k
    exponent: float               # fitted slope of log q_k vs log r_k
    exponent_r2: float
    residuals: np.ndarray         # solver residuals per level
    env_lower: Optional[np.ndarray] = None
    env_upper: Optional[np.ndarray] = None
    eps_seq: Optional[np.ndarray] = None
    c_seq: Optional[np.ndarray] = None
    d_seq: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.any(np.diff(self.radii) >= 0):
            raise DomainError("cascade radii must be strictly decreasing")

    def to_dict(self):
        out = {
            "k": self.ks.tolist(),
            "r": self.radii.tolist(),
            "q": self.q.tolist(),
            "m": self.m.tolist(),
            "exponent": self.exponent,
            "exponent_r2": self.exponent_r2,
            "residuals": self.residuals.tolist(),
        }
        for name in ("env_lower", "env_upper", "eps_seq", "c_seq", "d_seq"):
            v = getattr(self, name)
            if v is not None:
                out[name] = np.asarray(v).tolist()
        return out


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


def _run_cascade(graph: BoundaryGraph, operator, k_max: int, n_grid: int,
                 r0: float, outer_data: Callable, graph_data: Callable,
                 rhs: Optional[Callable] = None, stencil: str = "standard5"):
    """Sequential dyadic solve of levels 1..k_max; returns per-level summaries.

    On a dilation-invariant graph level 1 is discretized once and every
    later level solves its dilation, bitwise the level's own assembly.
    """
    if rhs is None:
        rhs = lambda p: np.zeros(len(p))
    radii, qs, ms, residuals = [], [], [], []
    prev_sol = base = None
    for k in range(1, k_max + 1):
        R = 2.0 ** (-k + 1) * r0
        h = 2 * R / n_grid

        def dirichlet(pts, _R=R, _prev=prev_sol):
            pts = np.atleast_2d(pts)
            out = np.empty(len(pts))
            on_circle = np.abs(np.linalg.norm(pts, axis=-1) - _R) < 1e-9 * _R
            if _prev is None:
                out[on_circle] = np.atleast_1d(outer_data(pts[on_circle]))
            else:
                # transfer from the coarser level; below-graph fill uses the
                # prescribed graph data (u extends continuously)
                out[on_circle] = _prev.interpolate(
                    pts[on_circle], fill=lambda q: np.atleast_1d(graph_data(q)))
            out[~on_circle] = np.atleast_1d(graph_data(pts[~on_circle]))
            return out

        prob = GridProblem(graph, R, h, operator, rhs=rhs, dirichlet=dirichlet,
                           stencil=stencil)
        try:
            if not graph.dilation_invariant:
                system = None
            elif base is None:
                system = base = discretize(prob)
            else:
                system = base.dilated(prob)
            sol = solve(prob, system=system)
        except (BoundaryLabError, RuntimeError) as exc:
            raise ConvergenceError(f"cascade level {k} (R={R:g}) failed: {exc}") from exc
        r_k = R / 2.0
        origin_gap = float(np.atleast_1d(graph.gamma(np.zeros((1, 1))))[0])
        u_probe = float(sol.interpolate(np.array([[0.0, origin_gap + r_k]]),
                                        fill=lambda q: np.atleast_1d(graph_data(q)))[0])
        in_ball = np.linalg.norm(sol.nodes, axis=-1) <= r_k
        sup_u = float(np.abs(sol.values[in_ball]).max()) if in_ball.any() else 0.0
        radii.append(r_k)
        qs.append(u_probe / r_k)
        ms.append(sup_u / r_k)
        residuals.append(sol.residual)
        prev_sol = sol
    return (np.arange(1, k_max + 1), np.asarray(radii), np.asarray(qs),
            np.asarray(ms), np.asarray(residuals))


def envelope_lower(omega: Modulus, rho: float, r: float, C_hat: float) -> float:
    """(1/C) exp(-C int_rho^{2r} omega(s)/s ds)."""
    return (1.0 / C_hat) * np.exp(-C_hat * dini_integral(omega, rho, 2 * r))


def envelope_upper(omega: Modulus, rho: float, r: float, C_hat: float,
                   forcing: float = 0.0) -> float:
    """C exp(C int_rho^{2r} omega ds/s) plus optional forcing integrals."""
    return C_hat * np.exp(C_hat * dini_integral(omega, rho, 2 * r)) + forcing


def measure_growth(graph: BoundaryGraph, operator=None, k_max: int = 7,
                   n_grid: int = 256, r0: float = 0.5,
                   outer_data=None, graph_data=None, rhs=None,
                   omega: Optional[Modulus] = None, C_hat: float = 4.0,
                   stencil: str = "standard5") -> GrowthReport:
    """Dyadic growth of a nonnegative solution vanishing on the graph.

    Default data: u = 1 on the outermost circle, 0 on the graph part;
    envelopes are attached when a boundary modulus omega is supplied.
    """
    if operator is None:
        operator = LaplaceOp()
    if outer_data is None:
        outer_data = lambda p: np.ones(len(p))
    if graph_data is None:
        graph_data = lambda p: np.zeros(len(p))
    ks, radii, q, m, res = _run_cascade(graph, operator, k_max, n_grid, r0,
                                        outer_data, graph_data, rhs, stencil)
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


def measure_boundary_modulus(graph: BoundaryGraph, operator=None, k_max: int = 7,
                             n_grid: int = 256, r0: float = 0.5,
                             g: Optional[Callable] = None, *, grad_g0,
                             outer_data: Optional[Callable] = None,
                             rhs=None, stencil: str = "standard5") -> GrowthReport:
    """Sup quotients of v = u - g(0) - grad g(0) . x' through the cascade.

    The solution takes boundary data g on the graph part (and on the
    outermost circle at the first level); the affine part of g at the
    origin is subtracted before measuring, so smooth data with nonzero
    gradient still yields bounded m_k.  grad_g0 is the exact tangential
    gradient of g at the origin, of length n - 1.
    """
    if operator is None:
        operator = LaplaceOp()
    if g is None:
        g = lambda p: np.zeros(len(p))
    g0 = float(np.atleast_1d(g(np.zeros((1, 2))))[0])

    def affine(p):
        return g0 + p[:, :-1] @ grad_g0

    outer = outer_data if outer_data is not None else (lambda p: np.ones(len(p)))
    # solve directly for v = u - affine: for linear operators with the same
    # rhs this is the cascade with affinely shifted boundary data
    ks, radii, qv, mv, res = _run_cascade(
        graph, operator, k_max, n_grid, r0,
        outer_data=lambda p: np.atleast_1d(outer(p)) - affine(np.atleast_2d(p)),
        graph_data=lambda p: np.atleast_1d(g(p)) - affine(np.atleast_2d(p)),
        rhs=rhs, stencil=stencil)
    slope, r2 = fit_log_slope(radii, np.maximum(np.abs(mv), 1e-300))
    return GrowthReport(ks=ks, radii=radii, q=qv, m=mv, exponent=slope,
                        exponent_r2=r2, residuals=res)


def diagnostic_sequences(graph: BoundaryGraph, C0_hat: float, A_hat: float,
                         k_max: int, omega_f: Optional[Modulus] = None,
                         omega_g: Optional[Modulus] = None, C_hat: float = 4.0):
    """The dyadic recursion sequences (eps_k, c_k, d_k) for k = 1..k_max.

    eps_k = C0_hat * seminorm(2^-k); c_1 = 1, c_k = (1 - A_hat eps_{k-1}) c_{k-1};
    d_k = omega_g(2^{-k-1}) + C_hat omega_f(2^{-k-1}).
    """
    ks = np.arange(1, k_max + 1)
    eps = np.empty(len(ks))
    for i, k in enumerate(ks):
        r = min(2.0 ** (-float(k)), graph.chart_radius)
        eps[i] = C0_hat * graph.local_lip_seminorm(r)
    c = np.empty(len(ks))
    c[0] = 1.0
    for i in range(1, len(ks)):
        factor = 1.0 - A_hat * eps[i - 1]
        if factor <= 0:
            factor = 0.0
        c[i] = factor * c[i - 1]
    d = np.zeros(len(ks))
    for i, k in enumerate(ks):
        t = 2.0 ** (-float(k) - 1)
        if omega_g is not None:
            d[i] += float(omega_g(t))
        if omega_f is not None:
            d[i] += C_hat * float(omega_f(t))
    return ks, eps, c, d


def dyadic_sum_and_integral(omega: Modulus, k0: int, k1: int):
    """(sum_{j=k0}^{k1} omega(2^-j), int_{2^-k1}^{2^-k0} omega ds/s).

    The two agree within a factor 2 ln 2 for nondecreasing omega.
    """
    if not k0 < k1:
        raise DomainError(f"need k0 < k1, got {k0}, {k1}")
    js = np.arange(k0, k1 + 1)
    s = float(sum(float(omega(2.0 ** (-float(j)))) for j in js))
    integral = dini_integral(omega, 2.0 ** (-float(k1)), 2.0 ** (-float(k0)))
    return s, integral
