"""Lipschitz graph domains Omega = {x_n > Gamma(x')} near the origin.

Supported boundary families (all with Gamma(0) = 0):

    zero        Gamma == 0, the halfspace
    linear      Gamma(x') = a . x'
    cone        Gamma(x') = L |x'|
    c1model     Gamma(x') = |x'| omega(|x'|) for a modulus omega
    sinusoid    Gamma(x') = A sin(k x'_1)
    table       monotone-cubic interpolation of samples (n = 2 only)

Dimensions n = 2 and n = 3 are supported here and in regdist; the PDE
solver is restricted to n = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError
from .modulus import Modulus

__all__ = ["BoundaryGraph", "C1Report", "check_c1_conditions"]

# seminorm_at samples a batch of balls in blocks of at most this many nodes
# (one ball at a time when a single ball is larger)
_SEMINORM_NODES = 1 << 16


def _radius(arr) -> np.ndarray:
    """|x| over the last axis, bitwise np.linalg.norm for one or two components.

    The squares are summed component by component into one array, with no
    reduction over the short last axis, and the root is taken in place.
    """
    out = np.square(arr[..., 0], out=np.empty(arr.shape[:-1]))
    for i in range(1, arr.shape[-1]):
        out += np.square(arr[..., i])
    return np.sqrt(out, out=out)


def _over_radius(num, rho) -> np.ndarray:
    """num / rho per row, zero where rho is not positive; in place in num.

    Bitwise np.divide(num, rho[..., None], where=rho[..., None] > 0) into
    zeros, with one unmasked divide per component.
    """
    pos = rho > 0
    whole = pos.all()
    safe = rho if whole else np.where(pos, rho, 1.0)
    for i in range(num.shape[-1]):
        col = num[..., i]
        np.divide(col, safe, out=col)
    if not whole:
        num[~pos] = 0.0
    return num


def _sample_ball(dim_surface: int, r: float, m: int) -> np.ndarray:
    """Quasi-uniform sample of B'_r in R^dim_surface, shape (M, dim_surface)."""
    if dim_surface == 1:
        return np.linspace(-r, r, m)[:, None]
    rho = np.linspace(0.0, r, m)
    th = np.linspace(0.0, 2 * np.pi, 2 * m, endpoint=False)
    R, T = np.meshgrid(rho, th, indexing="ij")
    return np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=-1)


@lru_cache(maxsize=8)
def _unit_ball(dim_surface: int, m: int) -> np.ndarray:
    """The read-only sample of the unit ball that seminorm_at scales."""
    out = _sample_ball(dim_surface, 1.0, m)
    out.flags.writeable = False
    return out


class BoundaryGraph:
    """Graph function Gamma of a Lipschitz domain plus local seminorm queries.

    Immutable after construction; all evaluation methods are pure.
    """

    def __init__(self, family: str, dim: int = 2, chart_radius: float = 0.5, **params):
        if dim not in (2, 3):
            raise DomainError(f"dim must be 2 or 3, got {dim}")
        if not float(chart_radius) > 0:
            raise DomainError(f"chart radius must be positive, got {chart_radius}")
        self.family = family
        self.dim = dim
        self.chart_radius = float(chart_radius)
        self.params = params
        self._interp = None
        self._dinterp = None

        if family == "zero":
            pass
        elif family == "linear":
            a = np.atleast_1d(np.asarray(params["a"], dtype=float))
            if a.size != dim - 1:
                raise DomainError(f"linear slope must have {dim - 1} components")
            self._a = a
        elif family == "cone":
            if params["L"] < 0:
                raise DomainError("cone slope L must be nonnegative")
            self._L = float(params["L"])
        elif family == "c1model":
            omega = params["omega"]
            if not isinstance(omega, Modulus):
                raise DomainError("c1model requires a Modulus instance")
            if not omega.vanishes_at_zero:
                raise DomainError("c1model requires a modulus vanishing at zero")
            self._omega = omega
            # sign -1 flips to the wide-side domain Gamma = -|x'| omega(|x'|)
            self._sign = float(params.get("sign", 1.0))
            if self._sign not in (-1.0, 1.0):
                raise DomainError(f"c1model sign must be +-1, got {self._sign}")
            if chart_radius >= omega.t0:
                self.chart_radius = 0.5 * omega.t0
        elif family == "sinusoid":
            self._A = float(params["A"])
            self._k = float(params["k"])
        elif family == "table":
            if dim != 2:
                raise DomainError("table family is 2-d only")
            ts = np.asarray(params["ts"], dtype=float)
            vals = np.asarray(params["values"], dtype=float)
            if np.any(np.diff(ts) <= 0):
                raise DomainError("table abscissae must be strictly increasing")
            if not (ts[0] <= 0.0 <= ts[-1]):
                raise DomainError("table must cover the origin")
            # pin Gamma(0) = 0 by subtracting the interpolated value at 0
            interp = PchipInterpolator(ts, vals)
            off = float(interp(0.0))
            self._interp = PchipInterpolator(ts, vals - off)
            self._dinterp = self._interp.derivative()
            self._t_range = (float(ts[0]), float(ts[-1]))
        else:
            raise DomainError(f"unknown boundary family {family!r}")

        self.L_global = self._compute_global_lipschitz()

    # -- evaluation ---------------------------------------------------------

    def _as_xp(self, xp):
        arr = np.asarray(xp, dtype=float)
        if self.dim == 2 and arr.ndim == 0:
            arr = arr[None]
        if arr.shape[-1] != self.dim - 1:
            raise DomainError(f"expected points in R^{self.dim - 1}, got shape {arr.shape}")
        return arr

    def gamma(self, xp):
        """Gamma(x'). Accepts arrays of shape (..., n-1); scalars when n = 2."""
        arr = self._as_xp(xp)
        if self.family == "zero":
            out = np.zeros(arr.shape[:-1])
        elif self.family == "linear":
            out = arr @ self._a
        elif self.family == "cone":
            out = _radius(arr)
            out *= self._L
        elif self.family == "c1model":
            rho = _radius(arr)
            out = self._sign * rho * self._omega(rho)
        elif self.family == "sinusoid":
            out = self._A * np.sin(self._k * arr[..., 0])
        else:  # table
            out = self._interp(arr[..., 0])
        return out if out.ndim else float(out)

    def grad_gamma(self, xp):
        """Analytic gradient of Gamma; zero at points where it is undefined."""
        arr = self._as_xp(xp)
        if self.family == "cone":
            return _over_radius(np.multiply(self._L, arr), _radius(arr))
        if self.family == "c1model":
            rho = _radius(arr)
            # omega'(0) may be infinite; the rho = 0 rows are zeroed
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = self._omega(rho) + rho * self._omega.derivative(rho)
                num = self._sign * slope[..., None] * arr
            return _over_radius(num, rho)
        out = np.zeros_like(arr)
        if self.family == "linear":
            out[...] = self._a
        elif self.family == "sinusoid":
            out[..., 0] = self._A * self._k * np.cos(self._k * arr[..., 0])
        elif self.family == "table":
            out[..., 0] = self._dinterp(arr[..., 0])
        return out

    @property
    def working_radius(self) -> float:
        """min(1/2, chart radius): the chart of the regularized distance."""
        return min(0.5, self.chart_radius)

    @property
    def radial_kink(self) -> bool:
        """Whether Gamma has a derivative singularity at the origin."""
        return self.family in ("cone", "c1model")

    @property
    def dilation_invariant(self) -> bool:
        """Whether Gamma(2^j x') = 2^j Gamma(x') holds bit for bit."""
        return self.family in ("zero", "linear", "cone")

    def contains(self, x) -> bool:
        """True iff x_n > Gamma(x') (boundary excluded)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DomainError(f"expected points in R^{self.dim}, got shape {x.shape}")
        res = x[..., -1] > self.gamma(x[..., :-1])
        return bool(res) if np.ndim(res) == 0 else res

    # -- seminorms and pointwise conditions ---------------------------------

    def local_lip_seminorm(self, r: float) -> float:
        """sup of |grad Gamma| over B'_r, refined until 1% sample agreement."""
        if r <= 0 or r > self.chart_radius * (1 + 1e-12):
            raise DomainError(f"radius {r} outside (0, {self.chart_radius}]")
        prev = None
        m = 65
        for _ in range(12):
            pts = _sample_ball(self.dim - 1, r, m)
            val = float(np.max(_radius(self.grad_gamma(pts))))
            if prev is not None and abs(val - prev) <= 0.01 * max(val, 1e-300):
                return val
            prev = val
            m = 2 * m - 1
        return prev

    def seminorm_at(self, xp, scale):
        """sup of |grad Gamma| over B'_scale(x'), sampled; clipped to the chart.

        Each ball takes the m = 129 sample of _sample_ball.  One point x'
        with a scalar scale gives a float; a (k, n-1) batch with k scales
        (or one) gives k values, sampled in blocks of about _SEMINORM_NODES
        nodes.
        """
        xp = self._as_xp(xp)
        single = xp.ndim == 1
        xp = np.atleast_2d(xp)
        scale = np.broadcast_to(np.asarray(scale, dtype=float), xp.shape[:1])
        if np.any(scale <= 0):
            raise DomainError(f"scale must be positive, got {scale.min()}")
        unit = _unit_ball(self.dim - 1, 129)
        step = max(1, _SEMINORM_NODES // len(unit))
        out = np.empty(len(xp))
        for a in range(0, len(xp), step):
            # x' + scale u one component at a time, clipped in place
            pts = scale[a:a + step, None, None] * unit
            for i in range(self.dim - 1):
                pts[..., i] += xp[a:a + step, None, i]
            np.clip(pts, -self.chart_radius, self.chart_radius, out=pts)
            out[a:a + step] = _radius(self.grad_gamma(pts)).max(axis=-1)
        return float(out[0]) if single else out

    def _compute_global_lipschitz(self) -> float:
        if self.family == "zero":
            return 0.0
        if self.family == "linear":
            return float(np.linalg.norm(self._a))
        if self.family == "cone":
            return self._L
        if self.family == "sinusoid":
            return abs(self._A * self._k)
        return self.local_lip_seminorm(self.chart_radius)

    def __repr__(self):
        ps = {k: v for k, v in self.params.items() if k not in ("ts", "values")}
        return f"BoundaryGraph({self.family}, dim={self.dim}, {ps})"


@dataclass(frozen=True)
class C1Report:
    """Worst sampled violation margin of a pointwise C1 cone condition."""

    side: str
    margin: float
    argmin: np.ndarray
    radii: np.ndarray
    margins_per_radius: np.ndarray

    @property
    def holds(self) -> bool:
        return self.margin >= 0.0


def check_c1_conditions(graph: BoundaryGraph, omega: Modulus, side: str,
                        r: float) -> C1Report:
    """Sample the cone x_n = +-|x'| omega(|x'|) at 10 dyadic radii r 2^-j.

    Interior side: the cone must sit inside Omega-bar, i.e.
    |x'| omega(|x'|) >= Gamma(x').  Exterior side: Omega must avoid the
    reflected cone, i.e. Gamma(x') >= -|x'| omega(|x'|).  The margin is the
    worst sampled slack; margin >= 0 means the condition holds on samples.
    In 3-D each radius is sampled at 257 equispaced directions.
    """
    if side not in ("interior", "exterior"):
        raise DomainError(f"side must be 'interior' or 'exterior', got {side!r}")
    if r <= 0 or r >= omega.t0:
        raise DomainError(f"radius {r} must lie in (0, t0={omega.t0})")
    radii = r * 2.0 ** (-np.arange(10, dtype=float))
    worst = np.inf
    argmin = None
    per_radius = np.empty(len(radii))
    for j, rho in enumerate(radii):
        if graph.dim == 2:
            xp = np.array([[-rho], [rho]])
        else:
            th = np.linspace(0.0, 2 * np.pi, 257, endpoint=False)
            xp = rho * np.stack([np.cos(th), np.sin(th)], axis=-1)
        cone_height = rho * float(omega(rho))
        g = np.atleast_1d(graph.gamma(xp))
        if side == "interior":
            slack = cone_height - g
        else:
            slack = g + cone_height
        i = int(np.argmin(slack))
        per_radius[j] = slack[i]
        if slack[i] < worst:
            worst = float(slack[i])
            argmin = np.append(xp[i], cone_height if side == "interior" else -cone_height)
    return C1Report(side=side, margin=worst, argmin=argmin,
                    radii=radii, margins_per_radius=per_radius)
