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
Every family states S = sup |grad Gamma| over B'_s(x') cut to the chart disk
B'_R(0) exactly (seminorm_at), and L_global is S over the chart.
"""

from __future__ import annotations

import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .modulus import Modulus

__all__ = ["BoundaryGraph", "C1Report", "check_c1_conditions"]


# each family's required and optional parameters, whether Gamma has a derivative
# singularity at the origin (radial_kink), whether Gamma is affine on each ray
# from that kink (ray_affine), and whether Gamma(2^j x') = 2^j Gamma(x') holds
# bit for bit (dilation_invariant); BoundaryGraph and config.graph_from_config
# read the parameter names here and nowhere else
_Family = namedtuple("_Family", "required optional radial_kink ray_affine dilation_invariant")
_FAMILIES = {
    "zero": _Family(frozenset(), frozenset(), False, False, True),
    "linear": _Family(frozenset({"a"}), frozenset(), False, False, True),
    "cone": _Family(frozenset({"L"}), frozenset(), True, True, True),
    "c1model": _Family(frozenset({"omega"}), frozenset({"sign"}), True, False, False),
    "sinusoid": _Family(frozenset({"A", "k"}), frozenset(), False, False, False),
    "table": _Family(frozenset({"ts", "values"}), frozenset(), False, False, False),
}


def _finite(x) -> bool:
    """Whether x is a real number, not a boolean, and finite."""
    # written so that NaN fails it; an int beyond the float range fails it too
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


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


class BoundaryGraph:
    """Graph function Gamma of a Lipschitz domain plus local seminorm queries.

    Immutable after construction; all evaluation methods are pure.
    """

    def __init__(self, family: str, dim: int = 2, chart_radius: float = 0.5, **params):
        if dim not in (2, 3):
            raise DomainError(f"dim must be 2 or 3, got {dim}")
        if not float(chart_radius) > 0:
            raise DomainError(f"chart radius must be positive, got {chart_radius}")
        if family not in _FAMILIES:
            raise DomainError(f"unknown boundary family {family!r}; known: {sorted(_FAMILIES)}")
        need, may, self.radial_kink, self.ray_affine, self.dilation_invariant = _FAMILIES[family]
        if not need <= set(params) <= need | may:
            raise DomainError(f"family {family!r} takes parameters {sorted(need)}"
                              + (f", optionally {sorted(may)}" if may else "")
                              + f"; got {sorted(params)}")
        self.family = family
        self.dim = dim
        self.chart_radius = float(chart_radius)
        self.params = params
        self.L_global = 0.0                 # the zero family's; the others set theirs

        if family == "linear":
            self._a = self._numbers("a")
            if self._a.size != dim - 1:
                raise DomainError(f"linear slope must have {dim - 1} components")
            self.L_global = float(np.linalg.norm(self._a))
        elif family == "cone":
            self._L = self.L_global = self._number("L")
            if not self._L >= 0:
                raise DomainError("cone slope L must be nonnegative")
        elif family == "c1model":
            self._omega = omega = params["omega"]
            if not isinstance(omega, Modulus):
                raise DomainError("c1model requires a Modulus instance")
            if not omega.vanishes_at_zero:
                raise DomainError("c1model requires a modulus vanishing at zero")
            # sign -1 flips to the wide-side domain Gamma = -|x'| omega(|x'|)
            self._sign = self._number("sign") if "sign" in params else 1.0
            if self._sign not in (-1.0, 1.0):
                raise DomainError(f"c1model sign must be +-1, got {self._sign}")
            if self.chart_radius >= omega.t0:
                self.chart_radius = 0.5 * omega.t0
            self.L_global = self.local_lip_seminorm(self.chart_radius)
        elif family == "sinusoid":
            self._A, self._k = self._number("A"), self._number("k")
            self.L_global = abs(self._A * self._k)
        elif family == "table":
            if dim != 2:
                raise DomainError("table family is 2-d only")
            ts, vals = self._numbers("ts"), self._numbers("values")
            if not len(ts) == len(vals) >= 2:
                raise DomainError(f"table needs as many values as ts, at least 2; got "
                                  f"{len(ts)} ts and {len(vals)} values")
            if np.any(np.diff(ts) <= 0):
                raise DomainError("table abscissae must be strictly increasing")
            if not (ts[0] <= 0.0 <= ts[-1]):
                raise DomainError("table must cover the origin")
            # imported here, not at module level: scipy.interpolate takes about
            # 0.6 s to import, and only this family needs it
            from scipy.interpolate import PchipInterpolator
            # pin Gamma(0) = 0 by subtracting the interpolated value at 0
            interp = PchipInterpolator(ts, vals)
            off = float(interp(0.0))
            self._interp = PchipInterpolator(ts, vals - off)
            self._dinterp = self._interp.derivative()
            # |Gamma'| peaks at a knot or a root of Gamma'' (nan, in no interval, where it is 0)
            self._peaks = np.concatenate([ts, self._interp.derivative(2).roots()])
            self.L_global = self.local_lip_seminorm(self.chart_radius)

    def _number(self, key) -> float:
        """The scalar parameter key as a float; anything but a finite real
        number is a DomainError that names the family and the key."""
        v = self.params[key]
        if not _finite(v):
            raise DomainError(f"{self.family} {key} must be a number, got {v!r}")
        return float(v)

    def _numbers(self, key) -> np.ndarray:
        """The parameter key, a number or a flat sequence of numbers, as a 1-d
        float array, each entry checked as _number checks a scalar."""
        v = self.params[key]
        vals = list(v) if isinstance(v, (list, tuple, np.ndarray)) else [v]
        if not all(map(_finite, vals)):
            raise DomainError(f"{self.family} {key} must be numbers, got {v!r}")
        return np.array(vals, dtype=float)

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

    def jet(self, xp):
        """(Gamma, grad Gamma) at x'; the gradient is zero where it is undefined.

        Gamma is bitwise gamma(x').  The radial families (cone, c1model)
        compute |x'|, and c1model omega, once for both; the others read
        Gamma from gamma.
        """
        arr = self._as_xp(xp)
        if not self.radial_kink:
            dg = np.zeros_like(arr)
            if self.family == "linear":
                dg[...] = self._a
            elif self.family == "sinusoid":
                dg[..., 0] = self._A * self._k * np.cos(self._k * arr[..., 0])
            elif self.family == "table":
                dg[..., 0] = self._dinterp(arr[..., 0])
            return self.gamma(arr), dg
        rho = _radius(arr)
        if self.family == "cone":
            dg = _over_radius(np.multiply(self._L, arr), rho)
            g = np.multiply(rho, self._L, out=rho)
        else:
            g = self._omega(rho)
            # omega'(0) may be infinite; the rho = 0 rows are zeroed
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = rho * self._omega.derivative(rho)
                slope += g
                slope *= self._sign
                dg = _over_radius(slope[..., None] * arr, rho)
            # sign rho omega in place of omega; a factor of +-1 is exact
            g *= rho
            g *= self._sign
        return (g if g.ndim else float(g)), dg

    @property
    def working_radius(self) -> float:
        """min(1/2, chart radius): the chart of the regularized distance."""
        return min(0.5, self.chart_radius)

    # -- seminorms and pointwise conditions ---------------------------------

    def local_lip_seminorm(self, r: float) -> float:
        """sup of |grad Gamma| over B'_r(0) cut to the chart: seminorm_at's ball at 0."""
        return self.seminorm_at(np.zeros(self.dim - 1), r)

    def seminorm_at(self, xp, scale):
        """sup of |grad Gamma| over B'_scale(x') cut to the chart disk B'_R(0).

        zero, linear, cone: 0, |a|, L; |grad Gamma| is constant off one kink point.
        sinusoid: |A k cos(k x_1)| is |A k| at each multiple of pi/k and monotone
        between them, so on I = [x_1 - s, x_1 + s] cut to [-R, R] it is |A k| if
        I holds one, else the larger end value (in 3-D an upper bound: I holds
        the disk's projection).  table: Gamma' is piecewise quadratic, so |Gamma'|
        peaks at an end of I, a knot or a root of Gamma''.  c1model: |grad Gamma|
        is (t omega)'(|x'|), whose sup over the radii [max(0, |x'| - s),
        min(|x'| + s, R)] the modulus gives (omega.slope_sup).  One point x' with
        a scalar scale gives a float; a (k, n-1) batch with k scales (or one)
        gives k values.  A scale <= 0 or a centre outside the chart raises DomainError.
        """
        xp = self._as_xp(xp)
        single = xp.ndim == 1
        xp = np.atleast_2d(xp)
        scale = np.broadcast_to(np.asarray(scale, dtype=float), xp.shape[:1])
        if np.any(scale <= 0):
            raise DomainError(f"scale must be positive, got {scale.min()}")
        R, rho = self.chart_radius, _radius(xp)
        if np.any(rho > R):
            raise DomainError(f"ball centre at |x'| = {rho.max()} outside the chart radius {R}")
        ends = np.stack([np.maximum(xp[:, 0] - scale, -R), np.minimum(xp[:, 0] + scale, R)])
        if self.family == "c1model":
            out = self._omega.slope_sup(np.maximum(rho - scale, 0.0), np.minimum(rho + scale, R))
        elif self.family == "sinusoid":
            k = abs(self._k) / np.pi
            out = np.where(np.floor(ends[1] * k) >= np.ceil(ends[0] * k), abs(self._A * self._k),
                           np.abs(self._A * self._k * np.cos(self._k * ends)).max(0))
        elif self.family == "table":
            inside = (self._peaks >= ends[0, :, None]) & (self._peaks <= ends[1, :, None])
            out = np.maximum(np.abs(self._dinterp(ends)).max(0),
                             np.abs(np.where(inside, self._dinterp(self._peaks), 0.0)).max(-1))
        else:
            out = np.full(len(xp), self.L_global)
        return float(out[0]) if single else out

    def __repr__(self):
        return f"BoundaryGraph({self.family}, dim={self.dim}, {self.params})"


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
