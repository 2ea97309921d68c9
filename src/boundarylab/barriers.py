"""Barrier functions d^(1+eps), d^(1-eps) and the special-solution sandwich.

With d the regularized distance and D^2(d^q) = q d^(q-1) D^2 d
+ q(q-1) d^(q-2) grad d (x) grad d, the sub-barrier d^(1+eps) satisfies
M-(D^2 d^(1+eps)) >= 0 and the super-barrier d^(1-eps) satisfies
M+(D^2 d^(1-eps)) <= 0, once eps dominates the local Lipschitz seminorm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import BoundaryGraph
from .pucci import EllipticityPair, pucci_minus, pucci_plus
from .regdist import RegularizedDistanceField

__all__ = [
    "Barrier",
    "BarrierReport",
    "SandwichReport",
    "barrier_hessian_value",
    "verify_barrier",
    "check_special_solution_sandwich",
    "sample_domain_points",
    "minimal_passing_epsilon",
]

# eps < 1/2 is structural for the barrier exponents; leave head-room
EPS_CAP = 0.45


def sample_domain_points(graph: BoundaryGraph, r: float, n: int,
                         rng: np.random.Generator) -> np.ndarray:
    """n >= 1 random points of Omega cap B_r with x_n - Gamma(x') > 1e-6 r.

    Rejection sampling from the uniform distribution on the ball; the chart
    margin |x'| + 1.5 gap <= graph.working_radius is respected so the
    regularized distance is evaluable at every returned point.
    """
    if n < 1:
        raise DomainError(f"need at least one sample point, got n = {n}")
    dim = graph.dim
    wr = graph.working_radius
    out = []
    budget = 500 * max(n, 1)
    while len(out) < n and budget > 0:
        m = 4 * (n - len(out))
        budget -= m
        x = rng.uniform(-r, r, size=(m, dim))
        x = x[np.linalg.norm(x, axis=-1) < r]
        gap = x[:, -1] - np.atleast_1d(graph.gamma(x[:, :-1]))
        keep = (gap > 1e-6 * r) & (gap < 0.9 * wr) \
            & (np.linalg.norm(x[:, :-1], axis=-1) + 1.5 * gap < wr * 0.999)
        out.extend(x[keep])
    if len(out) < n:
        raise DomainError("could not sample enough interior points; is r too small?")
    return np.asarray(out[:n])


@dataclass(frozen=True)
class Barrier:
    """A power of the regularized distance used as sub- or supersolution."""

    field: RegularizedDistanceField
    eps: float
    sign: str                     # "sub" (exponent 1+eps) or "super" (1-eps)
    E: EllipticityPair
    r: float

    def __post_init__(self):
        if self.sign not in ("sub", "super"):
            raise DomainError(f"sign must be 'sub' or 'super', got {self.sign!r}")
        if not 0 < self.eps < 0.5:
            raise DomainError(f"need 0 < eps < 1/2, got {self.eps}")
        if self.r > self.field.working_radius:
            raise DomainError("barrier radius exceeds the field working radius")

    @property
    def exponent(self) -> float:
        return 1.0 + self.eps if self.sign == "sub" else 1.0 - self.eps


def _pucci_of_power(b: Barrier, d, grad, hess):
    """M-(D^2 d^q) for sub barriers, M+(D^2 d^q) for super, from d, grad d, D^2 d."""
    q = b.exponent
    D2 = ((q * d ** (q - 1.0))[:, None, None] * hess
          + (q * (q - 1.0) * d ** (q - 2.0))[:, None, None]
          * (grad[:, :, None] * grad[:, None, :]))
    op = pucci_minus if b.sign == "sub" else pucci_plus
    return op(b.E, D2)


def barrier_hessian_value(b: Barrier, x):
    """M-(D^2 d^(1+eps)) at x for sub barriers, M+(D^2 d^(1-eps)) for super.

    Accepts a single point or a batch; propagates regdist errors.
    """
    x = np.asarray(x, dtype=float)
    vals = _pucci_of_power(b, *b.field.eval_all(np.atleast_2d(x)))
    return float(vals[0]) if x.ndim == 1 else vals


@dataclass(frozen=True)
class BarrierReport:
    passed: bool
    min_value: float              # worst signed margin, in units of d^(q-2)
    argmin: np.ndarray
    eps: float
    sign: str
    n_samples: int

    def to_dict(self):
        return {
            "pass": self.passed,
            "min_value": self.min_value,
            "argmin": list(map(float, self.argmin)),
            "epsilon": self.eps,
            "sign": self.sign,
            "n_samples": self.n_samples,
        }


def _sign_test(b: Barrier, samples, d, grad, hess) -> BarrierReport:
    """The barrier sign condition at samples, given d, grad d and D^2 d there."""
    vals = _pucci_of_power(b, d, grad, hess)
    scale = d ** (b.exponent - 2.0)
    signed = vals / scale if b.sign == "sub" else -vals / scale
    i = int(np.argmin(signed))
    return BarrierReport(
        passed=bool(signed[i] >= -1e-8),
        min_value=float(signed[i]),
        argmin=samples[i],
        eps=b.eps,
        sign=b.sign,
        n_samples=samples.shape[0],
    )


def verify_barrier(b: Barrier, samples: np.ndarray) -> BarrierReport:
    """Check the barrier sign condition at every sample point.

    A sub barrier passes iff M-(D^2 d^(1+eps)) >= -1e-8 * d^(eps-1)
    pointwise; a super barrier iff M+(D^2 d^(1-eps)) <= 1e-8 * d^(-eps-1).
    Failures are reported, not raised.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    return _sign_test(b, samples, *b.field.eval_all(samples))


def minimal_passing_epsilon(field: RegularizedDistanceField, E: EllipticityPair,
                            r: float, samples: np.ndarray, sign: str = "sub") -> float:
    """Smallest eps in [1e-6, EPS_CAP] for which the barrier check passes on
    the given samples, to 1e-3 relative.

    Bisection; the per-point value is monotone in eps for d <= 1, so the
    passing set is an interval reaching EPS_CAP.  d, grad d and D^2 d do not
    depend on eps: the samples are inverted once, and each step runs only
    the sign test of verify_barrier on them.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    dgh = field.eval_all(samples)

    def passes(eps):
        b = Barrier(field=field, eps=eps, sign=sign, E=E, r=r)
        return _sign_test(b, samples, *dgh).passed

    if not passes(EPS_CAP):
        raise DomainError(f"barrier fails even at eps = {EPS_CAP}; domain too rough")
    lo, hi = 1e-6, EPS_CAP
    if passes(lo):
        return lo
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class SandwichReport:
    lower_ok: bool
    upper_ok: bool
    closeness_ok: bool
    worst_lower: float            # min of phi - (2r)^(-eps) d^(1+eps) - slack
    worst_upper: float            # min of (2r)^(eps) d^(1-eps) + slack - phi
    max_deviation: float          # ||phi - d||_inf on checked nodes
    deviation_bound: float        # K_hat * r * seminorm + slack
    n_nodes: int
    slack: float

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok and self.closeness_ok

    def to_dict(self):
        return {
            "pass": self.passed,
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
            "closeness_ok": self.closeness_ok,
            "worst_lower": self.worst_lower,
            "worst_upper": self.worst_upper,
            "max_deviation": self.max_deviation,
            "deviation_bound": self.deviation_bound,
            "n_nodes": self.n_nodes,
            "slack": self.slack,
        }


def check_special_solution_sandwich(phi, field: RegularizedDistanceField,
                                    eps: float, r: float,
                                    K_hat: float = 8.0, C_h: float = 5.0) -> SandwichReport:
    """Verify (2r)^(-eps) d^(1+eps) <= phi <= (2r)^eps d^(1-eps) on grid nodes.

    phi is a GridSolution with boundary data d on the cut boundary; nodes
    closer than 2h to the boundary are skipped (the Hessian of d^q
    degenerates there) and each inequality gets discretization slack C_h*h.
    """
    if phi.problem.graph is not field.graph:
        ga, gb = phi.problem.graph, field.graph
        if ga.family != gb.family or ga.params != gb.params or ga.dim != gb.dim:
            raise DomainError("solution and distance field use different charts")
    h = phi.h
    nodes = phi.nodes
    vals = phi.values
    gap = nodes[:, -1] - np.atleast_1d(field.graph.gamma(nodes[:, :-1]))
    inner = (gap >= 2 * h) & (np.linalg.norm(nodes, axis=-1) <= r - 2 * h) \
        & (np.linalg.norm(nodes[:, :-1], axis=-1) + 1.5 * gap < field.working_radius)
    if not inner.any():
        raise DomainError(f"no grid node lies 2h inside both the graph and B_r "
                          f"within the chart: r = {r:g}, h = {h:g}")
    nodes_in = nodes[inner]
    u = vals[inner]
    d = field.eval_d(nodes_in, certify=False)

    slack = C_h * h
    lower = u - (2 * r) ** (-eps) * d ** (1 + eps) + slack
    upper = (2 * r) ** eps * d ** (1 - eps) + slack - u
    dev = np.abs(u - d)
    seminorm = field.graph.local_lip_seminorm(min(2 * r, field.graph.chart_radius))
    bound = K_hat * r * seminorm + slack
    return SandwichReport(
        lower_ok=bool(np.all(lower >= 0)),
        upper_ok=bool(np.all(upper >= 0)),
        closeness_ok=bool(dev.max() <= bound),
        worst_lower=float(lower.min()),
        worst_upper=float(upper.min()),
        max_deviation=float(dev.max()),
        deviation_bound=float(bound),
        n_nodes=int(inner.sum()),
        slack=slack,
    )
