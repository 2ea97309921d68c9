"""Locally regularized distance for Lipschitz graph domains.

The map p(x', s) = (eta_s * Gamma)(x') + s is strictly increasing in s for
small Lipschitz constants; its vertical inverse d satisfies

    (1 - C S) (x_n - Gamma(x')) <= d <= (1 + C S) (x_n - Gamma(x')),
    |grad d| in [1 - C S, 1 + C S],      |D^2 d| <= C S / d,

where S is the Lipschitz seminorm of Gamma at scale d and C is a
dimensional constant (calibrated empirically, see calibrate.py).

Derivatives of d are computed from exact inverse-function identities with
the derivatives of p obtained by differentiated quadrature; kernels with
one derivative on the mollifier avoid second derivatives of Gamma, so
merely Lipschitz graphs (cone) are handled.

One node rule holds all that depends on the dimension: two Gauss-Legendre
panels split at the kink preimage for n = 2, a polar rule on the unit disk
centred there for n = 3.  One moment kernel serves both, and each moment is
a batched weighted-kernel matrix product over a block of at most
_QUAD_NODES nodes (one 3-D point or 64 2-D points at order QUAD_ORDER).
The rule and its weighted kernels depend only on the centre and the order.
One centre rule holds in both dimensions: a kink preimage outside the open
unit ball, or a graph without a radial kink, centres the rule at 0, and
that rule is built once per order and shared, read-only.  The points of a
batch are blocked by group, the shared-rule points apart from the kinked
ones, so only kinked blocks build rules.  The graph is sampled once per
node, for Gamma and grad Gamma together.
The vertical inversion p(y', d) = y_n is a safeguarded Halley iteration
per point, bracketed by the Lipschitz bound |p - s - Gamma| <= L s with no
quadrature pass (one at the chart cap, for points whose bound reaches it).
It starts from a predicted root, PREDICT_STEPS Halley steps on rules of
order PREDICT_ORDER with p over unit-mass kernels, so the working order
converges in about two passes per point, and in one where Gamma is affine
on the support.  It hands back the derivatives of p at d, so grad d and
D^2 d cost no further quadrature.
eval_p and eval_d certify by order doubling: the p held at order 2 QUAD_ORDER
(for eval_d, the last Halley pass's, at d) must match one pass at QUAD_ORDER.
eval_all, the path of the distance and barrier checks, is not certified.
eval_all keeps the (d, grad d, D^2 d) of its last batch, so the sub and the
super barrier of one sample cost one inversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, MonotonicityError, QuadratureError
from .geometry import BoundaryGraph, _radius
from .pucci import sym_eigvals
from .report import Report

__all__ = ["Mollifier", "RegularizedDistanceField", "DistanceBoundsReport",
           "check_distance_bounds"]

# chart guard; graphs steeper than this break the p-inversion margin
MAX_LIPSCHITZ = 0.25
# Gauss-Legendre order of the rules: p is evaluated at twice this order,
# and the order-doubling certificate compares it with this order
QUAD_ORDER = 32
# the inversion's predictor: PREDICT_STEPS Halley steps on rules of order
# PREDICT_ORDER start the working-order loop (the measured table of
# scripts/regdist_predictor_table.py picks them)
PREDICT_ORDER = 8
PREDICT_STEPS = 1
# quadrature nodes per block of points: one 3-D point at QUAD_ORDER
# (2 * 64^2 on the doubled rule), 64 points in 2-D
_QUAD_NODES = 8192
# distance-bound checks: seminorms below S_FLOOR count as flat, and flat
# points must meet the bounds to FLAT_TOL absolute
S_FLOOR = 1e-12
FLAT_TOL = 1e-10


@lru_cache(maxsize=32)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=8)
def _polar_rule(order: int):
    """Gauss-Legendre radial rule and 2*order midpoint directions (M, 2)."""
    t, w = _leggauss(order)
    n_theta = 2 * order
    theta = 2.0 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    u.flags.writeable = False
    return t, w, u


def _bump(rho):
    """exp(-1/(1 - rho^2)) on [0, 1), zero outside; returns (phi, phi').

    When every rho < 1 (every rule node) the masks are dropped and the
    arrays are formed in place, bitwise equal to the masked formula.
    """
    r = np.asarray(rho, dtype=float)
    if r.ndim and np.all(r < 1.0):
        ig = np.multiply(r, r)
        np.subtract(1.0, ig, out=ig)
        np.divide(1.0, ig, out=ig)
        f = np.negative(ig)
        np.exp(f, out=f)
        df = np.multiply(r, -2.0)
        df *= np.multiply(ig, ig, out=ig)
        df *= f
        return f, df
    inside = r < 1.0
    ig = 1.0 / np.where(inside, 1.0 - r * r, 1.0)       # 1/g, g = 1 - rho^2
    f = np.where(inside, np.exp(-ig), 0.0)
    return f, f * (-2.0 * r * (ig * ig))


class Mollifier:
    """Radial C^infty bump on the unit ball of R^(n-1), normalized to mass 1.

    The normalization integral is computed once by quadrature at orders 200
    and 400; the stored certificate is the disagreement between the two.
    """

    def __init__(self, dim_surface: int):
        if dim_surface not in (1, 2):
            raise DomainError(f"mollifier supports surface dimension 1 or 2, got {dim_surface}")
        self.dim_surface = dim_surface
        coarse = self._mass(200)
        fine = self._mass(400)
        self.normalization = fine
        self.norm_certificate = abs(fine - coarse)
        if self.norm_certificate > 1e-10:
            raise QuadratureError(
                f"mollifier normalization uncertain: certificate {self.norm_certificate:g}"
            )

    def _mass(self, order: int) -> float:
        x, w = _leggauss(order)
        if self.dim_surface == 1:
            return float(w @ _bump(np.abs(x))[0])
        # radial: 2*pi * int_0^1 rho * phi(rho) d rho
        rho = 0.5 * (x + 1.0)
        return float(2.0 * np.pi * 0.5 * (w @ (rho * _bump(rho)[0])))

    def eta(self, rho):
        return _bump(rho)[0] / self.normalization

    def eta_derivs(self, rho):
        phi, dphi = _bump(rho)
        phi /= self.normalization
        dphi /= self.normalization
        return phi, dphi


@lru_cache(maxsize=2)
def _mollifier(dim_surface: int) -> Mollifier:
    """The mollifier of each surface dimension, shared by every field."""
    return Mollifier(dim_surface)


def _nodes(dim, c, order):
    """Nodes T (k, Q, n-1) and weights W (k, Q) on the unit ball, centred at c.

    The only step that depends on the dimension.  For n = 2: two
    Gauss-Legendre panels on [-1, 1], split at c with |c| < 1.  For n = 3:
    the polar rule on the unit disk, centred at c with |c| < 1.  With c at
    the kink preimage, or c = 0 when the kink lies outside the ball, Gamma
    is smooth along each panel or ray.  The rule at c = 0 is built once per
    dimension and order, through _centred_rule.
    """
    k = len(c)
    if dim == 2:
        t, w = _leggauss(order)
        ends = np.stack([np.full(k, -1.0), c[:, 0], np.ones(k)], axis=1)
        half = 0.5 * np.diff(ends, axis=1)[..., None]                    # (k, 2, 1)
        T = ends[:, :-1, None] + half * (t + 1.0)
        return T.reshape(k, 2 * order, 1), (half * w).reshape(k, 2 * order)
    t, w, u = _polar_rule(order)
    cu = c @ u.T                                                         # (k, M)
    R = -cu + np.sqrt(np.maximum(1.0 - (c * c).sum(axis=1)[:, None] + cu**2, 0.0))
    rho = 0.5 * R[..., None] * (t + 1.0)                                 # (k, M, Q)
    W = 0.5 * R[..., None] * w * rho * (2.0 * np.pi / len(u))
    T = np.empty(rho.shape + (2,))
    for i in range(2):                                                   # c + rho u
        np.multiply(rho, u[:, None, i], out=T[..., i])
        T[..., i] += c[:, None, None, i]
    return T.reshape(k, len(u) * order, 2), W.reshape(k, len(u) * order)


def _rule(dim, c, order):
    """The rule of _nodes at c with the weighted kernels that _moments reads.

    Returns (T, W eta, Wgrad, W k1, W k2): the nodes T (k, Q, n-1), the row
    kernels W eta, W k1 and W k2 (k, 1, Q), and Wgrad = W eta' t/rho
    (k, Q, n-1), the weighted gradient of eta, zero at the centre.  The
    kernels are formed in place from one rho eta'.
    """
    T, W = _nodes(dim, c, order)
    rho = _radius(T)
    eta, deta = _mollifier(dim - 1).eta_derivs(rho)
    if rho.all():
        q = np.multiply(W, deta)
        q /= rho
    else:
        q = np.divide(W * deta, rho, out=np.zeros_like(rho), where=rho > 0)
    Wgrad = np.empty_like(T)
    for i in range(dim - 1):
        np.multiply(q, T[..., i], out=Wgrad[..., i])
    # W k1 = -W ((n-1) eta + rho eta') and W k2 = -W (n eta + rho eta')
    rdeta = np.multiply(rho, deta, out=deta)
    Wk1 = np.multiply(dim - 1, eta)
    Wk2 = np.multiply(dim, eta)
    minus_W = np.negative(W)
    for k in (Wk1, Wk2):
        k += rdeta
        k *= minus_W
    eta *= W
    return T, eta[:, None, :], Wgrad, Wk1[:, None, :], Wk2[:, None, :]


@lru_cache(maxsize=8)
def _centred_rule(dim: int, order: int):
    """_rule at c = 0 for one point, read-only; a block of points broadcasts it."""
    rule = _rule(dim, np.zeros((1, dim - 1)), order)
    for a in rule:
        a.flags.writeable = False
    return rule


class RegularizedDistanceField:
    """Evaluable regularized distance d with gradient and Hessian.

    Works on the graph's working radius, min(1/2, chart radius), with rules
    of order QUAD_ORDER, on graphs with L_global <= MAX_LIPSCHITZ.
    The graph and the rules are fixed at construction.  The one state is
    eval_all's memo of its last batch, private copies keyed on the batch's
    bytes, so every evaluation returns what a fresh field would.
    """

    def __init__(self, graph: BoundaryGraph):
        if graph.L_global > MAX_LIPSCHITZ:
            raise DomainError(
                f"graph Lipschitz constant {graph.L_global:.4g} exceeds the chart "
                f"guard {MAX_LIPSCHITZ}; the vertical inversion is not certified"
            )
        self.graph = graph
        self.mollifier = _mollifier(graph.dim - 1)
        self.working_radius = graph.working_radius
        self._last = None           # (key, (d, grad d, hess d)) of eval_all's last batch

    # -- p and its derivatives ---------------------------------------------

    def _check_chart(self, xp, s):
        xp = np.atleast_2d(np.asarray(xp, dtype=float))
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s <= 0):
            raise DomainError("p(x', s) requires s > 0")
        if np.any(np.linalg.norm(xp, axis=-1) + s > self.working_radius * (1 + 1e-9)):
            raise DomainError("point outside the chart: |x'| + s must not exceed the working radius")
        return xp, s

    def _centre(self, xp, s):
        """Centre c (k, n-1) of each point's rule: the kink preimage -x'/s.

        One rule for both dimensions: a preimage outside the open unit ball,
        or a graph without a radial kink, gives c = 0, the shared rule.
        Then Gamma is smooth on the whole support, and the mollifier alone
        sets the rule.
        """
        if not self.graph.radial_kink:
            return np.zeros_like(xp)
        c = -xp / s[:, None]
        c[_radius(c) >= 1.0] = 0.0
        return c

    def _moments(self, xp, s, c, order):
        """All needed derivatives of p for a block of points, any n.

        With rho = |t|, moving the derivatives onto the radial mollifier gives
        the kernels k1 = -((n-1) eta + rho eta') for d_x d_s p and
        k2 = -(n eta + rho eta') for d_s^2 p; the latter comes from
        d_s p - 1 = int eta(t) t.grad Gamma(x' + s t) dt, differentiated in s
        after the change of variables z = x' + s t, so d_s^2 p reads the same
        t.grad Gamma samples as d_s p.  Each moment is one batched product of
        a weighted kernel with the sampled graph: (W eta) @ Gamma,
        (W eta) @ grad Gamma, and so on; the graph is sampled once, for Gamma
        and grad Gamma together (BoundaryGraph.jet).  c holds the centres
        that _p_derivs chose; a block whose c is all 0 reads the weighted
        kernels from the per-order cache (_centred_rule), any other builds them.
        At PREDICT_ORDER "mass" is the sum of W eta, the mollifier's mass
        on the rule, which the inversion's predictor divides out.
        """
        n = self.graph.dim
        T, We, Wgrad, Wk1, Wk2 = _centred_rule(n, order) if not c.any() else _rule(n, c, order)
        # x' + s t and t . grad Gamma, one component at a time: a broadcast
        # over the short last axis is several times slower
        pts = s[:, None, None] * T
        for i in range(n - 1):
            pts[..., i] += xp[:, None, i]
        g, dg = self.graph.jet(pts)
        tdg = T[..., :1] * dg[..., :1]
        for i in range(1, n - 1):
            tdg += T[..., i:i + 1] * dg[..., i:i + 1]

        pxx = -(Wgrad.transpose(0, 2, 1) @ dg) / s[:, None, None]
        out = {
            "p": (We @ g[..., None])[:, 0, 0] + s,
            "px": (We @ dg)[:, 0],
            "ps": 1.0 + (We @ tdg)[:, 0, 0],
            "pxx": 0.5 * (pxx + pxx.transpose(0, 2, 1)),
            "pxs": (Wk1 @ dg)[:, 0] / s[:, None],
            "pss": (Wk2 @ tdg)[:, 0, 0] / s,
        }
        if order == PREDICT_ORDER:
            out["mass"] = np.broadcast_to(We.sum(axis=(1, 2)), s.shape)
        return out

    def _p_derivs(self, xp, s, order):
        """The derivatives of p with rules of one order.

        Each point's centre is decided once, here.  The points are blocked
        by rule group: the shared-rule points first, then the kinked ones,
        so no block mixes the two and no shared-rule point pays for a
        per-point rule.  The results come back in input order.
        """
        c = self._centre(xp, s)
        kinked = c.any(axis=1)
        perm = np.argsort(kinked, kind="stable")
        undo = np.argsort(perm)
        xp, s, c = xp[perm], s[perm], c[perm]
        split = len(s) - np.count_nonzero(kinked)
        # the rules hold 2 order^(n-1) nodes per point; a block never spans
        # both groups, and an empty batch still runs one (empty) block, so
        # every key comes back
        step = max(1, _QUAD_NODES // (2 * order ** (self.graph.dim - 1)))
        starts = [*range(0, split, step), *range(split, len(s), step)] or [0]
        ends = starts[1:] + [len(s)]
        parts = [self._moments(xp[a:b], s[a:b], c[a:b], order) for a, b in zip(starts, ends)]
        return {key: np.concatenate([b[key] for b in parts])[undo] for key in parts[0]}

    def _certify(self, xp, s, p):
        """Order doubling: p, held at order 2 QUAD_ORDER, against one pass at QUAD_ORDER."""
        coarse = self._p_derivs(xp, s, QUAD_ORDER)["p"]
        if np.any(np.abs(p - coarse) > 1e-6 * np.maximum(np.abs(p), 1e-12)):
            raise QuadratureError(
                "order-doubling changed p by more than 1e-6 relative; "
                "QUAD_ORDER is too low for this boundary family"
            )

    # -- public evaluation --------------------------------------------------

    def eval_p(self, x):
        """p(x', x_n) for x_n > 0 inside the chart, order-doubling certified."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = np.atleast_2d(x)
        xp, s = self._check_chart(pts[:, :-1], pts[:, -1])
        p = self._p_derivs(xp, s, 2 * QUAD_ORDER)["p"]
        self._certify(xp, s, p)
        return float(p[0]) if scalar else p

    def _solve_d(self, xp, yn):
        """Vertical inversion: the t > 0 with p(y', t) = y_n, per point.

        The mollifier has unit mass on the unit ball, so
        |p(y', t) - t - Gamma(y')| <= L t, and the root lies in
        [gap/(1+L), gap/(1-L)], finite as L <= MAX_LIPSCHITZ, with
        gap = y_n - Gamma(y'): the bracket costs no quadrature, except one
        pass at the chart cap for the points whose upper bound reaches it.
        A predictor starts each point near its root: PREDICT_STEPS Halley
        steps from t = gap on rules of order PREDICT_ORDER, whose p reads
        unit-mass kernels, (p - s) / mass + s.  That p is exact wherever
        Gamma is affine on the mollifier support, so there the residual is
        below the stop and t stays gap, bit for bit.  The cheap p only
        predicts: it never narrows [lo, hi], and a step that leaves the
        bracket is dropped.  Safeguarded Halley steps at the working order
        2 QUAD_ORDER follow, from the predicted t: about two passes per
        point, where t = gap took 2.6 on the 3-D cone.  For families whose
        L_global is a sampled seminorm the bracket is not a proof; the
        certificate is each point's residual |p - y_n| <= 1e-13, and a root
        outside the bracket ends in a ConvergenceError.

        Returns t and the uncertified derivatives of p at t (eval_d certifies
        p).  Each point leaves the loop on its own residual, so its t does
        not depend on the other points of the batch.
        """
        g = np.atleast_1d(self.graph.gamma(xp))
        gap = yn - g
        if np.any(gap <= 0):
            raise DomainError("eval_d requires points strictly inside the domain")
        if np.any(gap >= self.working_radius):
            raise DomainError("x_n - Gamma(x') must stay below the working radius")
        r_xp = _radius(xp)
        if np.any(r_xp >= self.working_radius):
            raise DomainError("|x'| must stay below the working radius")
        # p(y', t) is defined up to |y'| + t = working radius
        cap = self.working_radius * (1 + 1e-9) - r_xp
        L = self.graph.L_global
        hi = gap / (1.0 - L)
        clipped = np.nonzero(hi >= cap)[0]
        if clipped.size:
            if np.any(self._p_derivs(xp[clipped], cap[clipped], 2 * QUAD_ORDER)["p"]
                      < yn[clipped]):
                raise DomainError(
                    "the vertical inverse leaves the chart: p(y', t) < y_n at "
                    "|y'| + t = working radius"
                )
            hi[clipped] = cap[clipped]
        lo = np.minimum(gap / (1.0 + L), hi)

        # the predictor; a point whose step leaves (lo, hi), or whose
        # residual is already below the stop, keeps its t and predicts no further
        t = np.clip(gap, lo, hi)
        act = np.arange(gap.size)
        for _ in range(PREDICT_STEPS):
            part = self._p_derivs(xp[act], t[act], PREDICT_ORDER)
            s = t[act]
            res = (part["p"] - s) / part["mass"] + s - yn[act]
            ps, pss = part["ps"], part["pss"]
            t_new = s - 2.0 * res * ps / (2.0 * ps * ps - res * pss)
            move = (np.abs(res) > 1e-13) & (t_new > lo[act]) & (t_new < hi[act])
            act = act[move]
            t[act] = t_new[move]
            if act.size == 0:
                break

        # Halley with bisection safeguard; only unconverged points are
        # re-evaluated, and der keeps each point's derivatives at its last t
        der = {}
        act = np.arange(gap.size)
        for _ in range(100):
            part = self._p_derivs(xp[act], t[act], 2 * QUAD_ORDER)
            if np.any(part["ps"] <= 0.5):
                raise MonotonicityError(
                    "d_s p <= 1/2 encountered; the Lipschitz constant is too "
                    "large for a certified inversion on this chart"
                )
            for k, v in part.items():
                der.setdefault(k, np.empty((gap.size,) + v.shape[1:]))[act] = v
            res = part["p"] - yn[act]
            left = np.abs(res) > 1e-13
            act, res = act[left], res[left]
            if act.size == 0:
                break
            ps, pss = part["ps"][left], part["pss"][left]
            lo[act] = np.where(res < 0, t[act], lo[act])
            hi[act] = np.where(res > 0, t[act], hi[act])
            if np.any(np.nextafter(lo[act], np.inf) >= hi[act]):
                raise ConvergenceError(
                    "the vertical inverse left its bracket [gap/(1+L), gap/(1-L)]: "
                    "L_global understates the Lipschitz constant of the graph"
                )
            t_new = t[act] - 2.0 * res * ps / (2.0 * ps * ps - res * pss)
            # a NaN or infinite step fails both comparisons and is bisected
            bad = ~((t_new > lo[act]) & (t_new < hi[act]))
            t_new[bad] = 0.5 * (lo[act] + hi[act])[bad]
            t[act] = t_new
        else:
            raise ConvergenceError("vertical inversion did not reach 1e-13 residual")
        return t, der

    def eval_d(self, y):
        """The regularized distance d(y) in the domain chart, order-doubling certified at d."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 1
        pts = np.atleast_2d(y)
        xp = pts[:, :-1]
        d, der = self._solve_d(xp, pts[:, -1])
        self._certify(xp, d, der["p"])
        return float(d[0]) if scalar else d

    def eval_all(self, y):
        """(d, grad d, hess d) for a batch of points, ordered by input index.

        A single point is a batch of one.  The field keeps private copies of
        the results of its last batch, keyed on the batch's shape and bytes:
        the same batch again (the sub and the super barrier check of one
        sample) is inverted once.  Every call returns arrays the caller owns,
        and a call that raises keeps nothing.
        """
        pts = np.atleast_2d(np.asarray(y, dtype=float))
        key = (pts.shape, pts.tobytes())
        last = self._last
        if last is not None and last[0] == key:
            return tuple(a.copy() for a in last[1])
        xp, yn = pts[:, :-1], pts[:, -1]
        d, der = self._solve_d(xp, yn)
        q = der["ps"]
        nm1 = self.graph.dim - 1
        grad = np.empty((pts.shape[0], self.graph.dim))
        grad[:, :nm1] = -der["px"] / q[:, None]
        grad[:, nm1] = 1.0 / q

        hess = np.empty((pts.shape[0], self.graph.dim, self.graph.dim))
        di = grad[:, :nm1]                       # tangential derivatives of d
        pxx, pxs, pss = der["pxx"], der["pxs"], der["pss"]
        hij = -(pxx
                + pxs[:, :, None] * di[:, None, :]
                + pxs[:, None, :] * di[:, :, None]
                + pss[:, None, None] * di[:, :, None] * di[:, None, :]) / q[:, None, None]
        hin = -(pxs + pss[:, None] * di) / q[:, None] ** 2
        hnn = -pss / q**3
        hess[:, :nm1, :nm1] = hij
        hess[:, :nm1, nm1] = hin
        hess[:, nm1, :nm1] = hin
        hess[:, nm1, nm1] = hnn
        self._last = (key, (d.copy(), grad.copy(), hess.copy()))
        return d, grad, hess

@dataclass(frozen=True)
class DistanceBoundsReport(Report):
    """Worst-case margins of the three pointwise distance bounds on samples.

    ratio_dev   = max |d/(y_n - Gamma) - 1| / S        (want <= C_hat)
    grad_dev    = max ||grad d| - 1| / S               (want <= C_hat)
    hess_scale  = max d |D^2 d| / S                    (want <= C_hat)

    S is the local Lipschitz seminorm of Gamma over B'_scale(y') at scale
    max(d, gap), sampled by seminorm_at to SEMINORM_TOL agreement; points
    with S below S_FLOOR are excluded from the normalized maxima (0/0 on
    exactly flat regions) but still checked for exactness (deviation <=
    FLAT_TOL).  columns holds one row (y_1..y_n, d, |grad d|, |D^2 d|,
    d/(y_n - Gamma)) per sample.
    """

    ratio_dev: float
    grad_dev: float
    hess_scale: float
    flat_exact: bool
    C_hat: float
    n_samples: int
    columns: np.ndarray = field(metadata={"json": None})

    @property
    def passed(self) -> bool:
        worst = max(self.ratio_dev, self.grad_dev, self.hess_scale)
        return self.flat_exact and worst <= self.C_hat


def check_distance_bounds(field: RegularizedDistanceField, pts, C_hat: float) -> DistanceBoundsReport:
    """Verify the three displayed distance bounds with the calibrated constant."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d, grad, hess = field.eval_all(pts)
    gap = pts[:, -1] - np.atleast_1d(field.graph.gamma(pts[:, :-1]))
    S = field.graph.seminorm_at(pts[:, :-1], np.maximum(d, gap))
    gnorm = np.linalg.norm(grad, axis=-1)
    hnorm = np.abs(sym_eigvals(hess)).max(axis=-1)
    # rows: ratio, gradient and scaled-Hessian deviations per sample
    devs = np.stack([np.abs(d / gap - 1.0), np.abs(gnorm - 1.0), d * hnorm])
    rough = S > S_FLOOR
    worst = (devs[:, rough] / S[rough]).max(axis=1) if rough.any() else np.zeros(3)
    return DistanceBoundsReport(
        *map(float, worst),
        flat_exact=bool(np.all(devs[:, ~rough] <= FLAT_TOL)),
        C_hat=C_hat,
        n_samples=len(pts),
        columns=np.column_stack([pts, d, gnorm, hnorm, d / gap]),
    )
