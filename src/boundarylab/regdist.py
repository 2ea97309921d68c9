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

The mollifier is the polynomial bump (1 - rho^2)^BUMP_POWER, normalized in
closed form, so a Gauss rule whose panels or rays end on the unit sphere
sees a polynomial there, and the order a point needs is set by the graph.
One node rule holds all that depends on the dimension.  On the radial
families it is centred on the kink preimage c = -x'/s while |c| < FAR: for
n = 2, Gauss-Legendre panels graded toward c, t = c + (end - c) u^GRADE,
from c to -1 and to 1 when |c| < 1, else the two halves of one panel from
c across [-1, 1]; for n = 3, 2 order midpoint directions, a polar rule
centred at c when |c| < 1, else rays cast from c over the chords of the
disk.  Along a panel or ray from c a radial Gamma depends only on the
distance to c, so no rule sees the kink.  On a graph affine on each ray
from its kink (the cone) every moment is a polynomial along a 3-D ray, so
there BUMP_POWER + 2 radial Gauss nodes are exact at every order; every
other rule takes order radial nodes.  A preimage at |c| >= FAR, and every
point of a graph without a radial kink, uses the rule centred at 0, built
once per order and shared, read-only.  One moment kernel serves every
rule, and each moment is a batched weighted-kernel matrix product over a
block of at most _QUAD_NODES nodes, the points blocked by rule so that
only kinked blocks build rules.  The graph is sampled once per node, for
Gamma and grad Gamma together.

Every value is certified by order doubling on a ladder of orders: a point
is evaluated at the working order 2q and checked with one pass at q, from
q = BASE_ORDER up to TOP_ORDER.  Only the points where |p_2q - p_q| exceeds
CERT_TOL s climb to the next rung, and a point still unresolved at the top
raises QuadratureError.  The vertical inversion p(y', d) = y_n is a
safeguarded Halley iteration per point on each rung, bracketed by the
Lipschitz bound |p - s - Gamma| <= L s with no quadrature pass (one at the
chart cap, for points whose bound reaches it); the first rung starts at
t = gap and each later rung from the root of the one below.  It hands back
the derivatives of p at d, so grad d and D^2 d cost no further quadrature.
eval_p, eval_d and eval_all all climb the same ladder, so eval_d is
eval_all's d bit for bit.  eval_all keeps the (d, grad d, D^2 d) of its
last batch, so the sub and the super barrier of one sample cost one
inversion.
"""

from __future__ import annotations

import math
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
# the mollifier (1 - rho^2)^BUMP_POWER; the 2-D panels' grading exponent;
# the order ladder, whose rungs check q = BASE_ORDER, 2 BASE_ORDER, ...,
# TOP_ORDER against 2q, a point climbing where |p_2q - p_q| > CERT_TOL s;
# and the radius FAR of kink preimages past which the shared rule serves
# (the measured tables of scripts/regdist_rule_table.py pick them)
BUMP_POWER = 2
GRADE = 2
BASE_ORDER = 8
TOP_ORDER = 32
CERT_TOL = 1e-8
FAR = 2.0
# the inversion's stop: |p - y_n| <= RESIDUAL, 20 times the rounding of p at
# the roots of the benchmark batches (5.6e-17), so d is the working-order root
RESIDUAL = 1e-15
# quadrature nodes per block of points: one 3-D point at the top working
# order (2 * 64^2 on its polar rule), 64 points in 2-D
_QUAD_NODES = 8192
# distance-bound checks: seminorms below S_FLOOR count as flat, and flat
# points must meet the bounds to FLAT_TOL absolute
S_FLOOR = 1e-12
FLAT_TOL = 1e-10


@lru_cache(maxsize=32)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


class Mollifier:
    """The radial bump (1 - rho^2)^m / Z on the unit ball of R^(n-1), m = BUMP_POWER.

    eta is C^(m-1) across the unit sphere and a polynomial in rho^2 inside
    it.  Z gives unit mass in closed form: sqrt(pi) Gamma(m+1)/Gamma(m+3/2)
    on the interval, pi/(m+1) on the disk.
    """

    def __init__(self, dim_surface: int):
        if dim_surface not in (1, 2):
            raise DomainError(f"mollifier supports surface dimension 1 or 2, got {dim_surface}")
        self.power = m = BUMP_POWER
        self.normalization = (math.sqrt(math.pi) * math.gamma(m + 1) / math.gamma(m + 1.5)
                              if dim_surface == 1 else math.pi / (m + 1))

    def eta_derivs(self, rho2):
        """(eta, eta'/rho) at rho^2 = |t|^2, both zero outside the unit ball."""
        g = np.maximum(1.0 - np.asarray(rho2, dtype=float), 0.0)
        low = g ** (self.power - 1) / self.normalization
        return low * g, -2.0 * self.power * low


@lru_cache(maxsize=2)
def _mollifier(dim_surface: int) -> Mollifier:
    """The mollifier of each surface dimension, shared by every field."""
    return Mollifier(dim_surface)


def _nodes(dim, c, order, radial):
    """Nodes T (k, Q, n-1) and weights W (k, Q) on the unit ball, around c.

    The only step that depends on the dimension.  Each rule runs radial
    Gauss-Legendre nodes along each of its panels or rays.  For n = 2: two
    panels graded toward c, t = c + (end - c) u^GRADE: from c to -1 and to
    1 when |c| < 1, else the two halves, in u, of one panel from c across
    the interval.  For n = 3, 2 order directions, each a midpoint angle:
    with |c| < 1 the polar rule centred at c, each ray from c to the unit
    circle; with |c| >= 1 rays from c at the angles theta within
    arcsin(1/|c|) of -c, each over its chord of the disk.  With
    |c| sin(theta) = sin(psi) the chord's half length is cos(psi) and the
    integrand is periodic in psi, so the rays take the midpoint rule in
    psi, which converges geometrically.  In 3-D the rows of c must all lie
    inside the unit disk or all outside it.
    """
    u, w = _leggauss(radial)
    k = len(c)
    if dim == 2:
        # each row's two panels run over u in (ua, ub) toward a far end:
        # [c, -1] and [c, 1] when |c| < 1, else the two halves of the panel
        # from c to the far end -sign(c), which enters the interval at u0
        cc = c[:, :1]
        inner = np.abs(cc) < 1.0
        far = np.where(inner, [-1.0, 1.0], -np.sign(cc))                 # (k, 2)
        u0 = (np.maximum(np.abs(cc) - 1.0, 0.0) / (np.abs(cc) + 1.0)) ** (1.0 / GRADE)
        half = 0.5 * (u0 + 1.0)
        ua = np.where(inner, 0.0, np.hstack([u0, half]))
        ub = np.where(inner, 1.0, np.hstack([half, np.ones_like(u0)]))
        U = ua[..., None] + (ub - ua)[..., None] * u                     # (k, 2, Q)
        span = far - cc
        T = cc[..., None] + span[..., None] * U ** GRADE
        W = (np.abs(span) * (ub - ua))[..., None] * (GRADE * w * U ** (GRADE - 1))
        return T.reshape(k, -1, 1), W.reshape(k, -1)
    rc = _radius(c)[:, None]                                             # (k, 1)
    n_dir = 2 * order
    if np.all(rc < 1.0):
        theta = 2.0 * np.pi * (np.arange(n_dir) + 0.5) / n_dir
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        cu = c @ dirs.T                                                  # (k, M)
        R = -cu + np.sqrt(np.maximum(1.0 - rc ** 2 + cu ** 2, 0.0))
        r = R[..., None] * u                                             # (k, M, Q)
        W = R[..., None] * w * r * (2.0 * np.pi / n_dir)
        dirs = np.broadcast_to(dirs, (k, n_dir, 2))
    else:
        psi = np.pi * ((np.arange(n_dir) + 0.5) / n_dir - 0.5)            # midpoint in psi
        sin_psi, half = np.sin(psi), np.cos(psi)                         # half: chord half length
        mid = np.sqrt(rc ** 2 - sin_psi ** 2)                            # (k, M): |c| cos(theta)
        e0 = -c / rc                                                     # towards the disk
        cos_t, sin_t = mid / rc, sin_psi / rc
        dirs = np.stack([cos_t * e0[:, :1] - sin_t * e0[:, 1:],
                         cos_t * e0[:, 1:] + sin_t * e0[:, :1]], axis=-1)   # (k, M, 2)
        r = mid[..., None] + half[:, None] * (2.0 * u - 1.0)             # (k, M, Q)
        # d theta = (half / mid) d psi, and d r = 2 half d u along the chord
        W = (np.pi / n_dir * half * half / mid)[..., None] * (2.0 * w) * r
    T = np.empty(r.shape + (2,))
    for i in range(2):                                                   # c + r u
        np.multiply(r, dirs[..., None, i], out=T[..., i])
        T[..., i] += c[:, None, None, i]
    return T.reshape(k, -1, 2), W.reshape(k, -1)


def _rule(dim, c, order, radial):
    """The rule of _nodes at c with the weighted kernels that _moments reads.

    Returns (T, W eta, Wgrad, W k1, W k2): the nodes T (k, Q, n-1), the row
    kernels W eta, W k1 and W k2 (k, 1, Q), and Wgrad = W eta'/rho t
    (k, Q, n-1), the weighted gradient of eta.  The kernels read rho^2
    only: k1 = -((n-1) eta + rho^2 eta'/rho), k2 = -(n eta + rho^2 eta'/rho).
    """
    T, W = _nodes(dim, c, order, radial)
    rho2 = np.square(T).sum(axis=-1)
    eta, slope = _mollifier(dim - 1).eta_derivs(rho2)
    eta *= W
    slope *= W
    Wgrad = slope[..., None] * T
    slope *= rho2
    Wk1 = -((dim - 1) * eta + slope)
    Wk2 = -(dim * eta + slope)
    return T, eta[:, None, :], Wgrad, Wk1[:, None, :], Wk2[:, None, :]


@lru_cache(maxsize=8)
def _centred_rule(dim: int, order: int):
    """_rule at c = 0 for one point, read-only; a block of points broadcasts it."""
    rule = _rule(dim, np.zeros((1, dim - 1)), order, order)
    for a in rule:
        a.flags.writeable = False
    return rule


class RegularizedDistanceField:
    """Evaluable regularized distance d with gradient and Hessian.

    Works on the graph's working radius, min(1/2, chart radius), on the
    order ladder BASE_ORDER .. TOP_ORDER, on graphs with L_global <= MAX_LIPSCHITZ.
    The graph and the rules are fixed at construction.  The one state is
    eval_all's memo of its last batch, private copies keyed on the batch's
    bytes, so every evaluation returns what a fresh field would.
    """

    def __init__(self, graph: BoundaryGraph):
        # written so that a NaN L_global fails it
        if not graph.L_global <= MAX_LIPSCHITZ:
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
        # each check is written so that a NaN coordinate fails it
        if not np.all(s > 0):
            raise DomainError("p(x', s) requires s > 0")
        if not np.all(np.linalg.norm(xp, axis=-1) + s <= self.working_radius * (1 + 1e-9)):
            raise DomainError("point outside the chart: |x'| + s must not exceed the working radius")
        return xp, s

    def _centre(self, xp, s):
        """Centre c (k, n-1) of each point's rule: the kink preimage -x'/s.

        A graph without a radial kink, or a preimage at |c| >= FAR, gives
        c = 0, the shared rule: there Gamma is smooth on the support and
        its nearest singularity lies a support radius or more beyond it.
        """
        if not self.graph.radial_kink:
            return np.zeros_like(xp)
        c = -xp / s[:, None]
        c[_radius(c) >= FAR] = 0.0
        return c

    def _radial(self, c, order):
        """Gauss nodes along each panel or ray of the rules at the centres c.

        Along a ray t = c + r u from the kink a graph that is affine there
        (ray_affine: the cone) gives Gamma(x' + s t) = L s r, so each moment's
        integrand, with the Jacobian r, is a polynomial in r of degree at
        most 2 BUMP_POWER + 2, which BUMP_POWER + 2 Gauss nodes integrate
        exactly at every order; the order-doubling check then sees the
        angular error alone.  A 3-D block whose rows are all kinked takes
        that count.  Every other block takes order: the 2-D panels are
        graded, so Gamma is not a low-degree polynomial in u there, and the
        shared rule at c = 0 also serves the preimages at |c| >= FAR, off
        the kink.
        """
        if self.graph.dim == 3 and self.graph.ray_affine and c.any(axis=1).all():
            return BUMP_POWER + 2
        return order

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
        that _p_derivs chose; a shared block reads the weighted kernels from
        the per-order cache (_centred_rule), any other builds them.
        """
        n = self.graph.dim
        T, We, Wgrad, Wk1, Wk2 = (_centred_rule(n, order) if not c.any()
                                  else _rule(n, c, order, self._radial(c, order)))
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
        return {
            "p": (We @ g[..., None])[:, 0, 0] + s,
            "px": (We @ dg)[:, 0],
            "ps": 1.0 + (We @ tdg)[:, 0, 0],
            "pxx": 0.5 * (pxx + pxx.transpose(0, 2, 1)),
            "pxs": (Wk1 @ dg)[:, 0] / s[:, None],
            "pss": (Wk2 @ tdg)[:, 0, 0] / s,
        }

    def _p_derivs(self, xp, s, order):
        """The derivatives of p with rules of one order.

        Each point's centre and rule group are decided once, here.  The
        points are blocked by group, so no block mixes two rules and no
        shared-rule point pays for a per-point rule, and each block is
        sized by the nodes its own rule holds per point.  The results come
        back in input order.
        """
        c = self._centre(xp, s)
        # 0: the shared rule; 1: a rule around c; 2: rays from c (n = 3, |c| >= 1)
        group = c.any(axis=1).astype(np.int8)
        if self.graph.dim == 3:
            group[_radius(c) >= 1.0] = 2
        perm = np.argsort(group, kind="stable")
        undo = np.argsort(perm)
        xp, s, c, group = xp[perm], s[perm], c[perm], group[perm]
        # a block holds at most _QUAD_NODES nodes of its group's rule, 2 panels
        # (n = 2) or 2 order directions (n = 3) times the radial nodes; it never
        # spans two groups, and an empty batch still runs one (empty) block, so
        # every key comes back
        n_dir = 2 * order if self.graph.dim == 3 else 2
        bounds = [0, *np.searchsorted(group, [1, 2]), len(s)]
        starts = []
        for lo, hi in zip(bounds, bounds[1:]):
            per_point = n_dir * self._radial(c[lo:hi], order)
            starts += range(lo, hi, max(1, _QUAD_NODES // per_point))
        starts = starts or [0]
        ends = starts[1:] + [len(s)]
        parts = [self._moments(xp[a:b], s[a:b], c[a:b], order) for a, b in zip(starts, ends)]
        return {key: np.concatenate([b[key] for b in parts])[undo] for key in parts[0]}

    def _ladder(self, xp, work):
        """Climb the order ladder: work(act, order) evaluates the points act at
        the working order 2 order and returns (s, p) there; one pass at order
        checks p, and only the points where they differ by more than
        CERT_TOL s go on to the next rung.  Past TOP_ORDER it raises.
        """
        act = np.arange(len(xp))
        order = BASE_ORDER
        while True:
            s, p = work(act, order)
            coarse = self._p_derivs(xp[act], s, order)["p"]
            # a NaN difference climbs, up to the QuadratureError at the top
            act = act[~(np.abs(p - coarse) <= CERT_TOL * s)]
            if act.size == 0:
                return
            if order >= TOP_ORDER:
                raise QuadratureError(
                    f"order-doubling changed p by more than {CERT_TOL:g} d at the top "
                    f"rung ({2 * order} against {order}); the rules cannot resolve "
                    "this boundary family"
                )
            order *= 2

    # -- public evaluation --------------------------------------------------

    def eval_p(self, x):
        """p(x', x_n) for x_n > 0 inside the chart, order-doubling certified."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = np.atleast_2d(x)
        xp, s = self._check_chart(pts[:, :-1], pts[:, -1])
        p = np.empty(len(s))

        def work(act, order):
            p[act] = self._p_derivs(xp[act], s[act], 2 * order)["p"]
            return s[act], p[act]

        self._ladder(xp, work)
        return float(p[0]) if scalar else p

    def _halley(self, xp, yn, t, lo, hi, order):
        """Safeguarded Halley steps at one order, from t, until |p - y_n| <= RESIDUAL.

        Only unconverged points are re-evaluated; returns t and the
        derivatives of p at each point's last t.  Each point leaves the loop
        on its own residual, so its t does not depend on the other points.
        """
        der = {}
        act = np.arange(len(t))
        for _ in range(100):
            part = self._p_derivs(xp[act], t[act], order)
            if np.any(part["ps"] <= 0.5):
                raise MonotonicityError(
                    "d_s p <= 1/2 encountered; the Lipschitz constant is too "
                    "large for a certified inversion on this chart"
                )
            for k, v in part.items():
                der.setdefault(k, np.empty((len(t),) + v.shape[1:]))[act] = v
            res = part["p"] - yn[act]
            left = np.abs(res) > RESIDUAL
            act, res = act[left], res[left]
            if act.size == 0:
                return t, der
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
        raise ConvergenceError(f"vertical inversion did not reach {RESIDUAL:g} residual")

    def _solve_d(self, xp, yn):
        """Vertical inversion: the t > 0 with p(y', t) = y_n, per point, certified.

        The mollifier has unit mass on the unit ball, so
        |p(y', t) - t - Gamma(y')| <= L t, and the root lies in
        [gap/(1+L), gap/(1-L)], finite as L <= MAX_LIPSCHITZ, with
        gap = y_n - Gamma(y'): the bracket costs no quadrature, except one
        pass at the chart cap for the points whose upper bound reaches it.
        Each rung of the order ladder runs safeguarded Halley steps at its
        working order inside that bracket, the first rung from t = gap and
        each later one from the root of the rung below, and checks p at d
        with one pass at half the order.  Where Gamma is affine on the
        mollifier support p(y', t) = t + Gamma(y') on every rule, so there
        t stays gap, bit for bit.  L_global is the exact seminorm over the
        chart (a bound on the composite modulus), so the bracket is a proof;
        a root outside it still ends in a ConvergenceError.

        Returns d and the derivatives of p at d, from the last Halley pass
        of each point's last rung.
        """
        g = np.atleast_1d(self.graph.gamma(xp))
        gap = yn - g
        # each check is written so that a NaN coordinate fails it
        if not np.all(gap > 0):
            raise DomainError("eval_d requires points strictly inside the domain")
        if not np.all(gap < self.working_radius):
            raise DomainError("x_n - Gamma(x') must stay below the working radius")
        r_xp = _radius(xp)
        if not np.all(r_xp < self.working_radius):
            raise DomainError("|x'| must stay below the working radius")
        # p(y', t) is defined up to |y'| + t = working radius
        cap = self.working_radius * (1 + 1e-9) - r_xp
        L = self.graph.L_global
        hi = gap / (1.0 - L)
        clipped = np.nonzero(hi >= cap)[0]
        if clipped.size:
            if np.any(self._p_derivs(xp[clipped], cap[clipped], 2 * BASE_ORDER)["p"]
                      < yn[clipped]):
                raise DomainError(
                    "the vertical inverse leaves the chart: p(y', t) < y_n at "
                    "|y'| + t = working radius"
                )
            hi[clipped] = cap[clipped]
        lo = np.minimum(gap / (1.0 + L), hi)

        t = np.clip(gap, lo, hi)
        der = {}

        def work(act, order):
            t[act], part = self._halley(xp[act], yn[act], t[act], lo[act], hi[act], 2 * order)
            for k, v in part.items():
                der.setdefault(k, np.empty((len(t),) + v.shape[1:]))[act] = v
            return t[act], part["p"]

        self._ladder(xp, work)
        return t, der

    def eval_d(self, y):
        """The regularized distance d(y) in the domain chart, order-doubling certified."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 1
        pts = np.atleast_2d(y)
        d = self._solve_d(pts[:, :-1], pts[:, -1])[0]
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

    S is seminorm_at's Lipschitz seminorm of Gamma over B'_scale(y') at scale
    max(d, gap); points with S below S_FLOOR are excluded from the normalized
    maxima (0/0 on exactly flat regions) but still checked for exactness
    (deviation <= FLAT_TOL).  columns holds one row (y_1..y_n, d, |grad d|,
    |D^2 d|, d/(y_n - Gamma)) per sample.
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
