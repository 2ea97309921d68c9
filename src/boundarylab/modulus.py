"""Moduli of continuity: evaluation, Dini integrals, and composite moduli.

A modulus is a nondecreasing function omega on [0, t0) with omega(0) = 0.
The constant kind models the Lipschitz limit omega == L; it does not vanish
at zero, and its vanishes_at_zero flag, read off omega(0), lets callers
that need a true modulus reject it.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, InfeasibleError

__all__ = [
    "Modulus",
    "constant",
    "power",
    "log_modulus",
    "table",
    "eval_modulus",
    "dini_integral",
    "make_composite",
]

# relative tolerance of the adaptive quadrature in dini_integral
DINI_RTOL = 1e-10


class Modulus:
    """A named, evaluable modulus of continuity on [0, t0).

    Instances are immutable; evaluation is a pure function of (self, t).
    """

    def __init__(
        self,
        kind: str,
        t0: float,
        func: Callable[[np.ndarray], np.ndarray],
        *,
        deriv: Callable[[np.ndarray], np.ndarray],
        slope_sup: Callable[[np.ndarray, np.ndarray], np.ndarray],
        dini_primitive: Optional[Callable[[float], float]] = None,
        params: dict,
    ):
        if not t0 > 0:
            raise DomainError(f"t0 must be positive, got {t0}")
        self.kind = kind
        self.t0 = float(t0)
        # eval_modulus and derivative hand func and deriv a float array
        self._func = func
        self._deriv = deriv
        # sup of (t omega)' over float arrays 0 <= lo <= hi < t0 (c1model's |grad Gamma|)
        self.slope_sup = slope_sup
        # antiderivative of omega(s)/s, where a closed form exists, defined
        # at s = 0 too: -inf there when the integral from 0 diverges
        self.dini_primitive = dini_primitive
        self.params = dict(params)
        self.vanishes_at_zero = bool(func(np.asarray(0.0)) == 0.0)

    def __call__(self, t):
        return eval_modulus(self, t)

    def derivative(self, t):
        """omega'(t), from the closed form deriv that each kind supplies."""
        return self._deriv(np.asarray(t, dtype=float))

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"Modulus({self.kind}, t0={self.t0}, {ps})"


def eval_modulus(omega: Modulus, t):
    """Evaluate omega(t) for 0 <= t < t0; anything else, NaN too, is a domain
    error that names the first such t."""
    arr = np.asarray(t, dtype=float)
    bad = ~((arr >= 0) & (arr < omega.t0))
    if bad.any():
        raise DomainError(
            f"modulus of kind {omega.kind!r} is defined on [0, {omega.t0}), "
            f"got t={float(arr[bad][0])}"
        )
    out = np.asarray(omega._func(arr), dtype=float)
    return float(out) if np.ndim(t) == 0 else out


def constant(L: float, t0: float = 1.0) -> Modulus:
    """The Lipschitz limit omega == L. Non-vanishing at zero unless L == 0."""
    if not L >= 0:
        raise DomainError(f"constant level must be nonnegative, got {L}")
    return Modulus(
        "constant",
        t0,
        lambda t: np.full_like(t, L),
        deriv=np.zeros_like,
        slope_sup=lambda lo, hi: np.full_like(hi, L),
        dini_primitive=(lambda s: L * math.log(s) if s > 0
                        else -math.inf if L > 0 else 0.0),
        params={"L": L},
    )


def power(alpha: float, scale: float = 1.0, t0: float = 1.0) -> Modulus:
    """omega(t) = scale * t**alpha with alpha > 0."""
    if not (alpha > 0 and scale > 0):
        raise DomainError(f"power modulus needs alpha, scale > 0, got {alpha}, {scale}")
    return Modulus(
        "power",
        t0,
        lambda t: scale * t ** alpha,
        deriv=lambda t: scale * alpha * t ** (alpha - 1.0),
        slope_sup=lambda lo, hi: (1.0 + alpha) * scale * hi ** alpha,  # (t omega)', rising
        dini_primitive=(lambda s: scale * s**alpha / alpha),
        params={"alpha": alpha, "scale": scale},
    )


def log_modulus(c: float = 1.0, t0: float = 0.5) -> Modulus:
    """omega(t) = c / log(1/t), the non-Dini threshold example. Needs t0 < 1."""
    if not c > 0:
        raise DomainError(f"log modulus needs c > 0, got {c}")
    if not t0 < 1.0:
        raise DomainError(f"log modulus needs t0 < 1, got {t0}")

    def f(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = c / np.log(1.0 / t[pos])
        return out

    def df(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = c / (t[pos] * np.log(1.0 / t[pos]) ** 2)
        return out

    # primitive of omega(s)/s = c/(s log(1/s)):  -c * log(log(1/s))
    return Modulus(
        "log",
        t0,
        f,
        deriv=df,
        slope_sup=lambda lo, hi: f(hi) + hi * df(hi),  # c/l + c/l^2 rises, l = log(1/t)
        dini_primitive=(lambda s: -c * math.log(math.log(1.0 / s)) if s > 0 else -math.inf),
        params={"c": c},
    )


def table(ts: Sequence[float], values: Sequence[float], t0: Optional[float] = None) -> Modulus:
    """Piecewise interpolation of sampled (t, omega(t)) pairs.

    Samples must start at (0, 0) and be strictly increasing in both
    coordinates; interpolation is piecewise linear.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.ndim != 1 or ts.shape != values.shape or ts.size < 2:
        raise DomainError("table modulus needs matching 1-d sample arrays, length >= 2")
    if ts[0] != 0.0 or values[0] != 0.0:
        raise DomainError("table modulus samples must start at (0, 0)")
    if not (np.all(np.diff(ts) > 0) and np.all(np.diff(values) > 0)):
        raise DomainError("table modulus samples must be strictly increasing")
    slopes = np.diff(values) / np.diff(ts)
    if t0 is None:
        t0 = float(ts[-1])
    if t0 > ts[-1]:
        raise DomainError("t0 beyond the last sample would extrapolate")

    def dval(t):
        idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(slopes) - 1)
        return slopes[idx]

    # (t omega)' = omega + t slope rises on each piece and jumps at the knots,
    # so its sup over [lo, hi] is hi's value or a left limit at a knot in (lo, hi]
    def slope_sup(lo, hi):
        knots = (ts[1:] > lo[..., None]) & (ts[1:] <= hi[..., None])
        left = np.where(knots, values[1:] + ts[1:] * slopes, 0.0).max(axis=-1)
        return np.maximum(np.interp(hi, ts, values) + hi * dval(hi), left)

    return Modulus(
        "table",
        t0,
        lambda t: np.interp(t, ts, values),
        deriv=dval,
        slope_sup=slope_sup,
        params={"n_samples": int(ts.size)},
    )


def dini_integral(omega: Modulus, a: float, b: float) -> float:
    """Integral of omega(s)/s over [a, b], 0 < a <= b < t0.

    a = 0 is allowed when the integral converges (the Dini condition);
    divergence raises ConvergenceError.  A closed-form primitive decides it
    by its value at 0 (-inf when the integral diverges); a modulus without
    one diverges when it does not vanish at zero.
    Uses the closed-form antiderivative when the modulus carries one,
    otherwise adaptive (Gauss-Kronrod) quadrature to relative tolerance DINI_RTOL.
    """
    if not (0 <= a <= b):
        raise DomainError(f"need 0 <= a <= b, got a={a}, b={b}")
    if b >= omega.t0:
        raise DomainError(f"upper endpoint {b} outside (0, {omega.t0})")
    if a == b:
        return 0.0
    if omega.dini_primitive is not None:
        lo = omega.dini_primitive(a)
        if lo == -math.inf:
            raise ConvergenceError(f"dini integral from 0 diverges for {omega}")
        return omega.dini_primitive(b) - lo
    if a == 0.0 and not omega.vanishes_at_zero:
        raise ConvergenceError(
            f"dini integral from 0 diverges for non-vanishing modulus {omega}"
        )
    # imported here, not at module level: scipy.integrate takes about 0.5 s to
    # import, and only this fallback needs it
    from scipy import integrate
    # integrate in u = log s: smooths the 1/s factor near the left endpoint
    val, err = integrate.quad(
        lambda u: float(omega(math.exp(u))),
        math.log(a) if a > 0 else -np.inf,
        math.log(b),
        epsabs=1e-15,
        epsrel=DINI_RTOL,
        limit=200,
    )
    # written so that a NaN error estimate fails it
    if not (err <= 10 * DINI_RTOL * max(abs(val), 1e-300) or err <= 1e-14):
        raise ConvergenceError(
            f"dini_integral quadrature error estimate {err:g} exceeds tolerance for {omega}"
        )
    return val


def make_composite(a: float, b: float, c: float, omega1: Modulus,
                   omega2: Modulus) -> Modulus:
    """The paper's explicit modulus, as a Modulus of kind "composite":

        w(t) = t * (a + I1(t)) * exp(c * I2(t)),

    with I_i(t) the Dini integral of omega_i over [t, b], and w(0) = 0.  Its
    closed-form derivative is

        w'(t) = exp(c * I2(t)) * ((a + I1(t)) * (1 - c*omega2(t)) - omega1(t)),

    and w'(0) is its limit, +inf when omega1 or omega2 is not Dini.  w is
    certified strictly increasing on (0, t0): its t0 (the paper's tilde t0)
    is the largest t in (0, b) with omega1(t)/a + c*omega2(t) <= 1/2,
    located by bisection to relative precision 1e-6.  Dini integrals of w
    go through quadrature.
    """
    if not (a > 0 and c > 0):
        raise DomainError(f"need a, c > 0, got a={a}, c={c}")
    if not (0 < b < min(omega1.t0, omega2.t0)):
        raise DomainError(
            f"need 0 < b < min(t0) = {min(omega1.t0, omega2.t0)}, got b={b}"
        )

    def cond(t):
        return float(omega1(t)) / a + c * float(omega2(t)) - 0.5

    t_lo = b * 1e-12
    if cond(t_lo) > 0:
        raise InfeasibleError(
            "no t in (0, b) satisfies omega1(t)/a + c*omega2(t) <= 1/2 "
            "(moduli do not vanish fast enough at zero)"
        )
    b_in = b * (1 - 1e-12)
    if cond(b_in) <= 0:
        tilde_t0 = b_in
    else:
        lo, hi = t_lo, b_in
        while (hi - lo) > 1e-6 * hi:
            mid = 0.5 * (lo + hi)
            if cond(mid) <= 0:
                lo = mid
            else:
                hi = mid
        tilde_t0 = lo

    def dini(omega, t):
        # from t = 0 dini_integral raises when omega is not Dini: I(t) -> +inf
        try:
            return dini_integral(omega, t, b)
        except ConvergenceError:
            if t > 0:
                raise
            return math.inf

    def w(t):
        out = np.zeros(t.shape)
        for i, ti in np.ndenumerate(t):
            if ti != 0.0:
                out[i] = ti * (a + dini(omega1, ti)) * math.exp(c * dini(omega2, ti))
        return out

    def dw(t):
        out = np.empty(t.shape)
        for i, ti in np.ndenumerate(t):
            out[i] = math.exp(c * dini(omega2, ti)) * (
                (a + dini(omega1, ti)) * (1.0 - c * float(omega2(ti))) - float(omega1(ti)))
        return out

    # w/t = (a + I1) exp(c I2) falls, so t w' <= w and (t w)' <= 2 w <= 2 w(hi): a bound
    return Modulus("composite", tilde_t0, w, deriv=dw, slope_sup=lambda lo, hi: 2.0 * w(hi),
                   params={"a": a, "b": b, "c": c})
