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
The rule and its weighted kernels depend only on the centre and the order;
the rule centred at 0 (graphs without a radial kink, and 3-D points whose
kink preimage lies outside the disk) is built once per order and shared,
read-only, by every block whose points all use it.
The vertical inversion p(y', d) = y_n is a safeguarded Halley iteration
per point, bracketed by the Lipschitz bound |p - s - Gamma| <= L s with no
quadrature pass (one at the chart cap, for points whose bound reaches it);
it hands back the derivatives of p at d, so grad d and D^2 d cost no
further quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, MonotonicityError, QuadratureError
from .geometry import BoundaryGraph, _radius
from .pucci import sym_eigvals

__all__ = ["Mollifier", "RegularizedDistanceField", "DistanceBoundsReport",
           "check_distance_bounds"]

# chart guard; graphs steeper than this break the p-inversion margin
MAX_LIPSCHITZ = 0.25
# Gauss-Legendre order of the rules: p is evaluated at twice this order,
# and the order-doubling certificate compares it with this order
QUAD_ORDER = 32
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
    """exp(-1/(1 - rho^2)) on [0, 1), zero outside; returns (phi, phi')."""
    r = np.asarray(rho, dtype=float)
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
        c = self.normalization
        return phi / c, dphi / c


@lru_cache(maxsize=2)
def _mollifier(dim_surface: int) -> Mollifier:
    """The mollifier of each surface dimension, shared by every field."""
    return Mollifier(dim_surface)


def _nodes(dim, c, order):
    """Nodes T (k, Q, n-1) and weights W (k, Q) on the unit ball, centred at c.

    The only step that depends on the dimension.  For n = 2: two
    Gauss-Legendre panels on [-1, 1], split at c in [-1, 1].  For n = 3:
    the polar rule on the unit disk, centred at c with |c| < 1.  With c at
    the kink preimage, Gamma is smooth along each panel or ray.  The rule
    at c = 0 is built once per dimension and order, through _centred_rule.
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
    (k, Q, n-1), the weighted gradient of eta, zero at the centre.
    """
    T, W = _nodes(dim, c, order)
    rho = _radius(T)
    eta, deta = _mollifier(dim - 1).eta_derivs(rho)
    q = np.divide(W * deta, rho, out=np.zeros_like(rho), where=rho > 0)
    Wgrad = np.empty_like(T)
    for i in range(dim - 1):
        np.multiply(q, T[..., i], out=Wgrad[..., i])
    k1 = -((dim - 1) * eta + rho * deta)
    k2 = -(dim * eta + rho * deta)
    return T, (W * eta)[:, None, :], Wgrad, (W * k1)[:, None, :], (W * k2)[:, None, :]


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
    Immutable after construction; evaluations are pure and reentrant.
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

        In 2-D it is clipped to [-1, 1]; in 3-D a preimage outside the unit
        disk, or a graph without a radial kink, gives c = 0.
        """
        if not self.graph.radial_kink:
            return np.zeros_like(xp)
        c = -xp / s[:, None]
        if self.graph.dim == 2:
            return np.clip(c, -1.0, 1.0)
        c[_radius(c) >= 1.0] = 0.0
        return c

    def _moments(self, xp, s, order):
        """All needed derivatives of p for a block of points, any n.

        With rho = |t|, moving the derivatives onto the radial mollifier gives
        the kernels k1 = -((n-1) eta + rho eta') for d_x d_s p and
        k2 = -(n eta + rho eta') for d_s^2 p; the latter comes from
        d_s p - 1 = int eta(t) t.grad Gamma(x' + s t) dt, differentiated in s
        after the change of variables z = x' + s t, so d_s^2 p reads the same
        t.grad Gamma samples as d_s p.  Each moment is one batched product of
        a weighted kernel with the sampled graph: (W eta) @ Gamma,
        (W eta) @ grad Gamma, and so on.  A block whose rules are all centred
        at 0 reads the weighted kernels from the per-order cache
        (_centred_rule); any other block builds them per point.
        """
        n = self.graph.dim
        c = self._centre(xp, s)
        T, We, Wgrad, Wk1, Wk2 = _centred_rule(n, order) if not c.any() else _rule(n, c, order)
        # x' + s t and t . grad Gamma, one component at a time: a broadcast
        # over the short last axis is several times slower
        pts = s[:, None, None] * T
        for i in range(n - 1):
            pts[..., i] += xp[:, None, i]
        g = self.graph.gamma(pts)
        dg = self.graph.grad_gamma(pts)
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

    def _p_derivs(self, xp, s, certify=True):
        """The derivatives of p at order 2 QUAD_ORDER; certify checks p at QUAD_ORDER."""

        def blocked(q):
            # the rules hold 2 q^(n-1) nodes per point; an empty batch
            # still runs one (empty) block, so every key comes back
            step = max(1, _QUAD_NODES // (2 * q ** (self.graph.dim - 1)))
            parts = [self._moments(xp[a:a + step], s[a:a + step], q)
                     for a in range(0, max(len(s), 1), step)]
            return {key: np.concatenate([b[key] for b in parts]) for key in parts[0]}

        fine = blocked(2 * QUAD_ORDER)
        if certify:
            coarse = blocked(QUAD_ORDER)
            scale = np.maximum(np.abs(fine["p"]), 1e-12)
            if np.any(np.abs(fine["p"] - coarse["p"]) > 1e-6 * scale):
                raise QuadratureError(
                    "order-doubling changed p by more than 1e-6 relative; "
                    "QUAD_ORDER is too low for this boundary family"
                )
        return fine

    # -- public evaluation --------------------------------------------------

    def eval_p(self, x):
        """p(x', x_n) for x_n > 0 inside the chart, order-doubling certified."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = np.atleast_2d(x)
        xp, s = self._check_chart(pts[:, :-1], pts[:, -1])
        p = self._p_derivs(xp, s)["p"]
        return float(p[0]) if scalar else p

    def _solve_d(self, xp, yn, certify=True):
        """Vertical inversion: the t > 0 with p(y', t) = y_n, per point.

        The mollifier has unit mass on the unit ball, so
        |p(y', t) - t - Gamma(y')| <= L t, and the root lies in
        [gap/(1+L), gap/(1-L)] with gap = y_n - Gamma(y'): the bracket
        costs no quadrature, except one pass at the chart cap for the points
        whose upper bound reaches it.  Safeguarded Halley steps follow.  For
        families whose L_global is a sampled seminorm the bracket is not a
        proof; the certificate is each point's residual |p - y_n| <= 1e-13,
        and a root outside the bracket ends in a ConvergenceError.

        Returns t and the derivatives of p at t.  Each point leaves the
        loop on its own residual, so its t does not depend on the other
        points of the batch.
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
        hi = gap / (1.0 - L) if L < 1 else np.full_like(gap, np.inf)
        clipped = np.nonzero(hi >= cap)[0]
        if clipped.size:
            if np.any(self._p_derivs(xp[clipped], cap[clipped], certify=False)["p"]
                      < yn[clipped]):
                raise DomainError(
                    "the vertical inverse leaves the chart: p(y', t) < y_n at "
                    "|y'| + t = working radius"
                )
            hi[clipped] = cap[clipped]
        lo = np.minimum(gap / (1.0 + L), hi)

        # Halley with bisection safeguard; only unconverged points are
        # re-evaluated, and der keeps each point's derivatives at its last t
        t = np.clip(gap, lo, hi)
        der = {}
        act = np.arange(gap.size)
        for _ in range(100):
            part = self._p_derivs(xp[act], t[act], certify=False)
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
        if certify:
            res = self._p_derivs(xp, t)["p"] - yn
            if np.any(np.abs(res) > 1e-12):
                raise ConvergenceError("certified residual of the inversion exceeds 1e-12")
        return t, der

    def eval_d(self, y, certify=True):
        """The regularized distance d(y) for y in the domain chart."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 1
        pts = np.atleast_2d(y)
        d, _ = self._solve_d(pts[:, :-1], pts[:, -1], certify=certify)
        return float(d[0]) if scalar else d

    def eval_all(self, y, check=False):
        """(d, grad d, hess d) for a batch of points, ordered by input index.

        A single point is a batch of one.  check cross-checks grad d and
        D^2 d against central differences of d (_fd_check).
        """
        pts = np.atleast_2d(np.asarray(y, dtype=float))
        xp, yn = pts[:, :-1], pts[:, -1]
        d, der = self._solve_d(xp, yn, certify=False)
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

        if check:
            self._fd_check(pts, d, grad, hess)
        return d, grad, hess

    def _fd_check(self, pts, d, grad, hess):
        """Cross-check grad/Hessian against central differences of eval_d.

        Every offset of every point, +-h e_a and +-h e_a +-h e_b (a < b) with
        h = 1e-5 d, is evaluated in one batched inversion.
        """
        k, n = pts.shape
        eye = np.eye(n)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
        units = np.array([s * eye[a] for a in range(n) for s in (1, -1)]
                         + [sa * eye[a] + sb * eye[b] for a, b in pairs for sa, sb in signs])
        h = 1e-5 * d
        z = (pts[:, None, :] + h[:, None, None] * units).reshape(-1, n)
        dv = self._solve_d(z[:, :-1], z[:, -1], certify=False)[0].reshape(k, -1)
        fp, fm = dv[:, 0:2 * n:2], dv[:, 1:2 * n:2]
        cross = dv[:, 2 * n:].reshape(k, len(pairs), 4)
        fd_grad = (fp - fm) / (2 * h[:, None])
        fd_hess = np.empty((k, n, n))
        fd_hess[:, range(n), range(n)] = (fp - 2 * d[:, None] + fm) / h[:, None] ** 2
        for j, (a, b) in enumerate(pairs):
            pp, pm, mp, mm = cross[:, j].T
            fd_hess[:, a, b] = fd_hess[:, b, a] = (pp - pm - mp + mm) / (4 * h**2)
        grad_bad = ~np.isclose(fd_grad, grad, rtol=1e-3, atol=1e-9).all(axis=1)
        # second differences carry cancellation noise ~ eps * d / h^2
        noise = 100 * np.finfo(float).eps * d / h**2
        scale = np.maximum(np.maximum(np.abs(fd_hess).max(axis=(1, 2)),
                                      np.abs(hess).max(axis=(1, 2))), noise / 1e-3)
        diff = np.abs(fd_hess - hess).max(axis=(1, 2))
        bad = np.nonzero(grad_bad | (diff > 1e-3 * scale))[0]
        if bad.size:
            i = bad[0]
            if grad_bad[i]:
                raise QuadratureError(
                    f"gradient cross-check failed at {pts[i]}: {grad[i]} vs FD {fd_grad[i]}"
                )
            raise QuadratureError(
                f"Hessian cross-check failed at {pts[i]}: |diff| = "
                f"{diff[i]:g} vs scale {scale[i]:g}"
            )


@dataclass(frozen=True)
class DistanceBoundsReport:
    """Worst-case margins of the three pointwise distance bounds on samples.

    ratio_dev   = max |d/(y_n - Gamma) - 1| / S        (want <= C_hat)
    grad_dev    = max ||grad d| - 1| / S               (want <= C_hat)
    hess_scale  = max d |D^2 d| / S                    (want <= C_hat)

    S is the local Lipschitz seminorm of Gamma over B'_scale(y') at
    scale max(d, gap); points with S below S_FLOOR are excluded from the
    normalized maxima (0/0 on exactly flat regions) but still checked for
    exactness (deviation <= FLAT_TOL).  columns holds one row
    (y_1..y_n, d, |grad d|, |D^2 d|, d/(y_n - Gamma)) per sample.
    """

    ratio_dev: float
    grad_dev: float
    hess_scale: float
    flat_exact: bool
    C_hat: float
    n_samples: int
    columns: np.ndarray

    @property
    def passed(self) -> bool:
        worst = max(self.ratio_dev, self.grad_dev, self.hess_scale)
        return self.flat_exact and worst <= self.C_hat

    def to_dict(self):
        return {
            "pass": self.passed,
            "ratio_dev": self.ratio_dev,
            "grad_dev": self.grad_dev,
            "hess_scale": self.hess_scale,
            "flat_exact": self.flat_exact,
            "C_hat": self.C_hat,
            "n_samples": self.n_samples,
        }


def check_distance_bounds(field: RegularizedDistanceField, pts, C_hat: float) -> DistanceBoundsReport:
    """Verify the three displayed distance bounds with the calibrated constant."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d, grad, hess = field.eval_all(pts, check=False)
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
