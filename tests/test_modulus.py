import math

import numpy as np
import pytest

from boundarylab import (
    DomainError, InfeasibleError, Modulus, constant, dini_integral, log_modulus,
    make_composite, power, table,
)
from boundarylab.errors import ConvergenceError


def test_power_values():
    w = power(1.0, 1.0, 1.0)
    assert w(0.0) == 0.0
    assert w(0.5) == 0.5
    w2 = power(0.5, 2.0, 1.0)
    assert w2(0.25) == pytest.approx(1.0, rel=1e-15)


def test_constant_kind_flagged():
    w = constant(0.3)
    assert w(0.05) == 0.3
    assert not w.vanishes_at_zero
    assert constant(0.0).vanishes_at_zero


@pytest.mark.parametrize("omega, vanishes", [
    (constant(0.3), False),
    (constant(0.0), True),
    (power(0.5), True),
    (log_modulus(), True),
    (table([0.0, 0.5, 1.0], [0.0, 0.2, 0.3]), True),
    (make_composite(1.0, 0.5, 1.0, power(1.0), power(1.0)), True),
], ids=["constant", "zero", "power", "log", "table", "composite"])
def test_vanishes_at_zero_is_omega_of_zero(omega, vanishes):
    assert omega.vanishes_at_zero is vanishes


def test_log_closed_form():
    w = log_modulus(1.0)
    assert w(math.exp(-4.0)) == pytest.approx(0.25, rel=1e-14)
    assert w(0.0) == 0.0


def test_domain_errors():
    w = power(1.0)
    with pytest.raises(DomainError):
        w(1.0)
    with pytest.raises(DomainError):
        w(-0.1)
    with pytest.raises(DomainError):
        w(np.array([0.1, 1.5]))


def test_monotone_on_samples():
    for w in (power(0.5), power(2.0, 0.3), log_modulus(0.7),
              constant(0.2), table([0.0, 0.1, 0.5, 1.0], [0.0, 0.05, 0.3, 0.4])):
        ts = np.linspace(0.0, w.t0 * (1 - 1e-9), 1000)
        vals = np.array([float(w(t)) for t in ts])
        assert np.all(np.diff(vals) >= -1e-15)


def test_table_linear_interp():
    w = table([0.0, 0.2, 0.4], [0.0, 0.1, 0.3])
    assert w(0.1) == pytest.approx(0.05)
    assert w(0.3) == pytest.approx(0.2)
    with pytest.raises(DomainError):
        table([0.0, 0.2], [0.1, 0.3])          # does not start at (0,0)
    with pytest.raises(DomainError):
        table([0.0, 0.2, 0.1], [0.0, 0.1, 0.2])  # non-increasing abscissae


def test_dini_closed_forms():
    # constant: L ln(b/a)
    assert dini_integral(constant(0.3), 0.1, 0.4) == pytest.approx(
        0.3 * math.log(4.0), rel=1e-12)
    # power: scale (b^a - a^a)/alpha
    assert dini_integral(power(0.5, 2.0), 0.04, 0.25) == pytest.approx(
        2.0 * (0.5 - 0.2) / 0.5, rel=1e-12)
    # log: ln ln(1/a) - ln ln(1/b)
    got = dini_integral(log_modulus(1.0), 0.1, 0.4)
    want = math.log(math.log(10.0)) - math.log(math.log(2.5))
    assert got == pytest.approx(want, rel=1e-12)


def test_dini_quadrature_matches_closed_form():
    # strip the primitive to force quadrature, compare against closed form
    w = log_modulus(1.0)
    w.dini_primitive = None
    got = dini_integral(w, 0.05, 0.3)
    want = math.log(math.log(20.0)) - math.log(math.log(1.0 / 0.3))
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("err", [float("nan"), 1e-3], ids=["nan", "over-tolerance"])
def test_dini_quadrature_error_estimate_must_meet_the_tolerance(monkeypatch, err):
    # the value is the true integral; only the error estimate is bad
    from scipy import integrate
    w = log_modulus(1.0)
    w.dini_primitive = None
    monkeypatch.setattr(integrate, "quad", lambda *args, **kwargs: (0.462, err))
    with pytest.raises(ConvergenceError, match="error estimate"):
        dini_integral(w, 0.05, 0.3)


def test_dini_additivity():
    rng = np.random.default_rng(11)
    for w in (power(0.7, 1.3), log_modulus(0.5), table([0, 0.3, 0.9], [0, 0.2, 0.5])):
        for _ in range(20):
            a, m, b = np.sort(rng.uniform(1e-4, w.t0 * 0.99, 3))
            whole = dini_integral(w, a, b)
            split = dini_integral(w, a, m) + dini_integral(w, m, b)
            assert split == pytest.approx(whole, rel=1e-9, abs=1e-12)


def test_dini_from_zero():
    assert dini_integral(power(0.5), 0.0, 0.25) == pytest.approx(1.0, rel=1e-10)
    assert dini_integral(constant(0.0), 0.0, 0.5) == 0.0
    with pytest.raises(ConvergenceError):
        dini_integral(constant(0.3), 0.0, 0.5)


@pytest.mark.parametrize("omega, at_zero", [
    (power(0.5), 0.0), (constant(0.0), 0.0), (constant(0.3), -math.inf),
    (log_modulus(1.0), -math.inf),
], ids=["power", "zero", "constant", "log"])
def test_dini_primitive_is_defined_at_zero(omega, at_zero):
    assert omega.dini_primitive(0.0) == at_zero


def test_dini_from_zero_takes_the_closed_form_for_small_alpha():
    # for alpha <= 1/30 the primitive exceeds 1e-10 even at s = 1e-300; quadrature
    # from 0 ends 3.4e-7 off here, while its error estimate stays within DINI_RTOL
    closed = 0.7 * 0.5 ** 0.02 / 0.02
    assert dini_integral(power(0.02, 0.7), 0.0, 0.5) == pytest.approx(closed, rel=1e-12)


def test_log_modulus_not_dini():
    # integral diverges monotonically as the lower endpoint goes to zero
    w = log_modulus(1.0)
    vals = [dini_integral(w, 10.0 ** (-k), 0.4) for k in range(2, 13)]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ConvergenceError):
        dini_integral(w, 0.0, 0.4)


def test_composite_t0_quarter():
    # omega1 = omega2 = t, a = c = 1: condition t + t <= 1/2 gives t0 = 1/4
    w = make_composite(1.0, 1.0 - 1e-12, 1.0, power(1.0), power(1.0))
    assert w.t0 == pytest.approx(0.25, rel=1e-5)


def test_composite_closed_form():
    # a=c=1, omega1=omega2=t, b=1: w(t) = t (2 - t) e^(1 - t)
    w = make_composite(1.0, 1.0 - 1e-12, 1.0, power(1.0), power(1.0))
    for t in (0.05, 0.1, 0.2):
        assert w(t) == pytest.approx(t * (2 - t) * math.exp(1 - t), rel=1e-9)
    assert w(0.1) < w(0.2)
    assert w(0.0) == 0.0


@pytest.mark.parametrize("omega2", [power(1.0, 0.4), log_modulus(0.2)], ids=["power", "log"])
def test_composite_derivative_matches_central_differences(omega2):
    w = make_composite(0.5, 0.3, 1.0, power(0.5, 0.3), omega2)
    assert isinstance(w, Modulus)
    ts = np.geomspace(1e-4, 0.9 * w.t0, 7)
    h = 1e-5 * ts
    fd = (w(ts + h) - w(ts - h)) / (2 * h)
    np.testing.assert_allclose(w.derivative(ts), fd, rtol=1e-8)


def test_composite_derivative_at_zero_is_its_limit():
    # omega1 = omega2 = t, a = c = 1, b = 1/2: w'(0) = e^(1/2) (1 + 1/2)
    w = make_composite(1.0, 0.5, 1.0, power(1.0), power(1.0))
    assert float(w.derivative(0.0)) == pytest.approx(1.5 * math.exp(0.5), rel=1e-12)
    assert float(w.derivative(1e-9)) == pytest.approx(float(w.derivative(0.0)), rel=1e-8)
    # a log omega2 is not Dini: I2(t) -> inf, so w'(t) -> +inf
    w_log = make_composite(0.5, 0.3, 1.0, power(0.5, 0.3), log_modulus(0.2))
    assert np.all(w_log.derivative(np.zeros(3)) == math.inf)


def test_composite_infeasible():
    with pytest.raises(InfeasibleError):
        make_composite(1e-9, 0.5, 1.0, constant(0.4, 1.0), constant(0.4, 1.0))


def test_composite_monotone_with_log_slope():
    w = make_composite(0.5, 0.8, 2.0, power(0.5, 0.3), power(1.0, 0.4))
    ts = np.geomspace(w.t0 * 1e-5, w.t0 * (1 - 1e-9), 200)
    vals = np.array([w(t) for t in ts])
    assert np.all(np.diff(vals) > 0)
    slopes = np.diff(np.log(vals)) / np.diff(np.log(ts))
    assert np.all(slopes >= 0.5 - 0.05)


def test_composite_domain_error():
    w = make_composite(1.0, 0.9, 1.0, power(1.0), power(1.0))
    with pytest.raises(DomainError):
        w(w.t0 * 1.01)


# each factory used to build a modulus from a NaN parameter
@pytest.mark.parametrize("build", [
    lambda: power(float("nan")),
    lambda: power(0.5, scale=float("nan")),
    lambda: constant(float("nan")),
    lambda: log_modulus(c=float("nan")),
    lambda: table([0.0, 0.5, 1.0], [0.0, float("nan"), 0.3]),
    lambda: make_composite(float("nan"), 0.5, 1.0, power(1.0), power(1.0)),
    lambda: make_composite(1.0, 0.5, float("nan"), power(1.0), power(1.0)),
], ids=["power-alpha", "power-scale", "constant", "log", "table", "composite-a", "composite-c"])
def test_a_nan_parameter_builds_no_modulus(build):
    with pytest.raises(DomainError):
        build()


def test_an_out_of_domain_t_is_named_alone():
    # NaN used to pass the domain check (power(0.5)(nan) was nan), and the
    # message printed the whole t array
    omega = power(0.5)
    with pytest.raises(DomainError, match=r"got t=nan$"):
        omega(float("nan"))
    with pytest.raises(DomainError) as exc:
        omega(np.linspace(0.0, 2.0, 1001))
    assert str(exc.value) == "modulus of kind 'power' is defined on [0, 1.0), got t=1.0"
