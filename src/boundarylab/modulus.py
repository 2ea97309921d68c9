"""Moduli of continuity: evaluation, Dini integrals, and composite moduli.

A modulus is a nondecreasing function omega on [0, t0) with omega(0) = 0.
The constant kind models the Lipschitz limit omega == L; it does not vanish
at zero and is flagged accordingly so callers that need a true modulus can
reject it.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from .errors import ConvergenceError, DomainError, InfeasibleError

__all__ = [
    "Modulus",
    "CompositeModulus",
    "constant",
    "power",
    "log_modulus",
    "table",
    "zero",
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
        dini_primitive: Optional[Callable[[float], float]] = None,
        params: Optional[dict] = None,
        vanishes_at_zero: bool = True,
    ):
        if not t0 > 0:
            raise DomainError(f"t0 must be positive, got {t0}")
        self.kind = kind
        self.t0 = float(t0)
        self._func = func
        self._deriv = deriv
        # antiderivative of omega(s)/s, where a closed form exists
        self.dini_primitive = dini_primitive
        self.params = dict(params or {})
        self.vanishes_at_zero = vanishes_at_zero

    def __call__(self, t):
        return eval_modulus(self, t)

    def derivative(self, t):
        """omega'(t), from the closed form deriv that each kind supplies."""
        return self._deriv(np.asarray(t, dtype=float))

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"Modulus({self.kind}, t0={self.t0}, {ps})"


def eval_modulus(omega: Modulus, t):
    """Evaluate omega(t) for 0 <= t < t0; anything else is a domain error."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0) or np.any(arr >= omega.t0):
        raise DomainError(
            f"modulus of kind {omega.kind!r} is defined on [0, {omega.t0}), got t={t}"
        )
    out = np.asarray(omega._func(arr), dtype=float)
    return float(out) if np.ndim(t) == 0 else out


def constant(L: float, t0: float = 1.0) -> Modulus:
    """The Lipschitz limit omega == L. Non-vanishing at zero unless L == 0."""
    if L < 0:
        raise DomainError(f"constant level must be nonnegative, got {L}")
    return Modulus(
        "constant",
        t0,
        lambda t: np.full_like(np.asarray(t, dtype=float), L),
        deriv=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        dini_primitive=(lambda s: L * math.log(s)),
        params={"L": L},
        vanishes_at_zero=(L == 0.0),
    )


def zero(t0: float = 1.0) -> Modulus:
    """omega == 0 (convex / halfspace geometry)."""
    return constant(0.0, t0)


def power(alpha: float, scale: float = 1.0, t0: float = 1.0) -> Modulus:
    """omega(t) = scale * t**alpha with alpha > 0."""
    if alpha <= 0 or scale <= 0:
        raise DomainError(f"power modulus needs alpha, scale > 0, got {alpha}, {scale}")
    return Modulus(
        "power",
        t0,
        lambda t: scale * np.asarray(t, dtype=float) ** alpha,
        deriv=lambda t: scale * alpha * np.asarray(t, dtype=float) ** (alpha - 1.0),
        dini_primitive=(lambda s: scale * s**alpha / alpha),
        params={"alpha": alpha, "scale": scale},
    )


def log_modulus(c: float = 1.0, t0: float = 0.5) -> Modulus:
    """omega(t) = c / log(1/t), the non-Dini threshold example. Needs t0 < 1."""
    if c <= 0:
        raise DomainError(f"log modulus needs c > 0, got {c}")
    if not t0 < 1.0:
        raise DomainError(f"log modulus needs t0 < 1, got {t0}")

    def f(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = c / np.log(1.0 / t[pos])
        return out

    def df(t):
        t = np.asarray(t, dtype=float)
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
        dini_primitive=(lambda s: -c * math.log(math.log(1.0 / s))),
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
    if np.any(np.diff(ts) <= 0) or np.any(np.diff(values) <= 0):
        raise DomainError("table modulus samples must be strictly increasing")
    slopes = np.diff(values) / np.diff(ts)
    if t0 is None:
        t0 = float(ts[-1])
    if t0 > ts[-1]:
        raise DomainError("t0 beyond the last sample would extrapolate")

    def dval(t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(slopes) - 1)
        return slopes[idx]

    return Modulus(
        "table",
        t0,
        lambda t: np.interp(np.asarray(t, dtype=float), ts, values),
        deriv=dval,
        params={"n_samples": int(ts.size)},
    )


def dini_integral(omega: Modulus, a: float, b: float) -> float:
    """Integral of omega(s)/s over [a, b], 0 < a <= b < t0.

    a = 0 is allowed when the modulus vanishes at zero and the integral
    converges (the Dini condition); divergence raises ConvergenceError.
    Uses the closed-form antiderivative when the modulus carries one,
    otherwise adaptive (Gauss-Kronrod) quadrature to relative tolerance DINI_RTOL.
    """
    if not (0 <= a <= b):
        raise DomainError(f"need 0 <= a <= b, got a={a}, b={b}")
    if b >= omega.t0:
        raise DomainError(f"upper endpoint {b} outside (0, {omega.t0})")
    if a == b:
        return 0.0
    if a == 0.0:
        if not omega.vanishes_at_zero:
            raise ConvergenceError(
                f"dini integral from 0 diverges for non-vanishing modulus {omega}"
            )
        if omega.kind == "log":
            raise ConvergenceError(f"dini integral from 0 diverges for {omega}")
    if omega.dini_primitive is not None and a > 0.0:
        return omega.dini_primitive(b) - omega.dini_primitive(a)
    if omega.dini_primitive is not None:
        # closed-form primitives with a finite limit at zero
        p0 = omega.dini_primitive(1e-300)
        if math.isfinite(p0) and abs(p0) < DINI_RTOL:
            return omega.dini_primitive(b) - 0.0
    # integrate in u = log s: smooths the 1/s factor near the left endpoint
    val, err = integrate.quad(
        lambda u: float(omega(math.exp(u))),
        math.log(a) if a > 0 else -np.inf,
        math.log(b),
        epsabs=1e-15,
        epsrel=DINI_RTOL,
        limit=200,
    )
    if err > 10 * DINI_RTOL * max(abs(val), 1e-300) and err > 1e-14:
        raise ConvergenceError(
            f"dini_integral quadrature error estimate {err:g} exceeds tolerance for {omega}"
        )
    return val


class CompositeModulus:
    """The composite modulus

        w(t) = t * (a + I1(t, b)) * exp(c * I2(t, b)),

    with I_i(t, b) the Dini integral of omega_i over [t, b].  Certified
    strictly increasing on (0, t0), where t0 (the paper's tilde t0)
    satisfies omega1(t0)/a + c*omega2(t0) <= 1/2.
    """

    def __init__(self, a: float, b: float, c: float, omega1: Modulus, omega2: Modulus,
                 t0: float):
        self.a = a
        self.b = b
        self.c = c
        self.omega1 = omega1
        self.omega2 = omega2
        self.t0 = t0
        self.kind = "composite"
        self.vanishes_at_zero = True
        self.dini_primitive = None    # Dini integrals of w go through quadrature

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(arr < 0) or np.any(arr >= self.t0):
            raise DomainError(
                f"composite modulus defined on [0, {self.t0}), got t={t}"
            )
        out = np.zeros_like(arr)
        for i, ti in enumerate(arr):
            if ti == 0.0:
                continue
            i1 = dini_integral(self.omega1, ti, self.b)
            i2 = dini_integral(self.omega2, ti, self.b)
            out[i] = ti * (self.a + i1) * math.exp(self.c * i2)
        return float(out[0]) if scalar else out

    def __repr__(self):
        return (f"CompositeModulus(a={self.a}, b={self.b}, c={self.c}, "
                f"t0={self.t0})")


def make_composite(a: float, b: float, c: float, omega1: Modulus,
                   omega2: Modulus) -> CompositeModulus:
    """Build the composite modulus, certifying its monotonicity radius.

    Its t0 (the paper's tilde t0) is the largest t in (0, b) with
    omega1(t)/a + c*omega2(t) <= 1/2, located by bisection to relative
    precision 1e-6.
    """
    if a <= 0 or c <= 0:
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
    return CompositeModulus(a, b, c, omega1, omega2, tilde_t0)
