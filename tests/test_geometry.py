import numpy as np
import pytest

from boundarylab import (
    BoundaryGraph, DomainError, check_c1_conditions, log_modulus, make_composite, power,
)
from boundarylab.geometry import _radius
from boundarylab.modulus import table


def test_zero_family():
    g = BoundaryGraph("zero")
    assert g.gamma(0.3) == 0.0
    assert g.L_global == 0.0


def test_linear_family():
    g = BoundaryGraph("linear", a=0.25)
    assert g.gamma(0.2) == pytest.approx(0.05)
    assert g.jet(np.array([0.3]))[1][0] == pytest.approx(0.25)
    assert g.L_global == pytest.approx(0.25)
    g3 = BoundaryGraph("linear", dim=3, a=(0.3, 0.4))
    assert g3.L_global == pytest.approx(0.5)
    assert g3.gamma(np.array([1.0, 1.0])) == pytest.approx(0.7)


def test_cone_family():
    g = BoundaryGraph("cone", L=0.2)
    assert g.gamma(-0.3) == pytest.approx(0.06)
    assert g.radial_kink
    assert g.local_lip_seminorm(0.1) == pytest.approx(0.2, rel=1e-9)
    # gradient is odd in x'
    assert g.jet(np.array([0.1]))[1][0] == pytest.approx(0.2)
    assert g.jet(np.array([-0.1]))[1][0] == pytest.approx(-0.2)


def test_sinusoid_family():
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    assert g.gamma(0.1) == pytest.approx(0.05 * np.sin(0.4))
    assert g.L_global == pytest.approx(0.2)
    # seminorm over a small ball around 0 is attained at the center
    assert g.local_lip_seminorm(0.01) == pytest.approx(0.2, rel=1e-6)


def test_c1model_slope_and_sign():
    w = power(1.0, 0.5, 1.0)             # omega = t/2, Gamma = rho^2/2
    g = BoundaryGraph("c1model", omega=w)
    assert g.gamma(0.2) == pytest.approx(0.02)
    # slope omega(r) + r omega'(r) = r
    assert g.jet(np.array([0.2]))[1][0] == pytest.approx(0.2, rel=1e-6)
    gm = BoundaryGraph("c1model", omega=w, sign=-1)
    assert gm.gamma(0.2) == pytest.approx(-0.02)
    with pytest.raises(DomainError):
        BoundaryGraph("c1model", omega=w, sign=0.5)


@pytest.mark.parametrize("family, params, message", [
    ("cube", {}, r"unknown boundary family 'cube'; known: \['c1model', 'cone', 'linear', "
                 r"'sinusoid', 'table', 'zero'\]"),
    ("cone", {}, r"family 'cone' takes parameters \['L'\]; got \[\]"),
    ("zero", {"L": 0.1}, r"family 'zero' takes parameters \[\]; got \['L'\]"),
    ("sinusoid", {"A": 0.05, "k": 4.0, "sign": -1},
     r"family 'sinusoid' takes parameters \['A', 'k'\]; got \['A', 'k', 'sign'\]"),
    ("c1model", {}, r"family 'c1model' takes parameters \['omega'\], optionally \['sign'\]"),
    ("cone", {"L": "steep"}, "cone L must be a number, got 'steep'"),
    ("cone", {"L": None}, "cone L must be a number, got None"),
    ("cone", {"L": float("nan")}, "cone L must be a number, got nan"),
], ids=["unknown", "missing", "stray", "stray-sign", "missing-c1model", "string", "none", "nan"])
def test_bad_family_parameters_raise_domain_error(family, params, message):
    with pytest.raises(DomainError, match=message):
        BoundaryGraph(family, **params)


# each of these used to build a graph: a boolean or a string read as a number
# (L true a slope-1 cone), and NaN or an infinity passed unchecked
@pytest.mark.parametrize("family, params, key", [
    ("cone", {"L": True}, "L"),
    ("cone", {"L": "0.1"}, "L"),
    ("cone", {"L": float("inf")}, "L"),
    ("cone", {"L": -float("inf")}, "L"),
    ("sinusoid", {"A": float("nan"), "k": 4.0}, "A"),
    ("sinusoid", {"A": 0.05, "k": float("inf")}, "k"),
    ("linear", {"a": [float("nan")]}, "a"),
    ("linear", {"a": [True]}, "a"),
    ("table", {"ts": [-0.5, float("nan"), 0.5], "values": [0.1, 0.0, 0.1]}, "ts"),
    ("table", {"ts": [-0.5, 0.0, 0.5], "values": [0.1, 0.0, float("inf")]}, "values"),
    ("c1model", {"omega": power(0.5), "sign": True}, "sign"),
], ids=["cone-L-true", "cone-L-string", "cone-L-inf", "cone-L-minus-inf", "sinusoid-A-nan",
        "sinusoid-k-inf", "linear-a-nan", "linear-a-true", "table-ts-nan", "table-values-inf",
        "c1model-sign-true"])
def test_a_family_parameter_must_be_finite_numbers(family, params, key):
    # a list entry is named by its index, as the config reader names it
    with pytest.raises(DomainError,
                       match=rf"^{family} {key}( must be a number|\[\d\]: expected a number), got "):
        BoundaryGraph(family, **params)


@pytest.mark.parametrize("ts, values", [([], []), ([-0.5, 0.0, 0.5], [0.1, 0.0])],
                         ids=["empty", "short-values"])
def test_a_table_needs_as_many_values_as_ts(ts, values):
    # an empty table used to end in an IndexError, a short one in scipy's ValueError
    with pytest.raises(DomainError, match="table needs as many values as ts, at least 2"):
        BoundaryGraph("table", ts=ts, values=values)


# each of these used to build a chart, of radius 1.0 or 0.3, or end in a TypeError
@pytest.mark.parametrize("chart_radius", [True, "0.3", [0.3]], ids=["true", "string", "list"])
def test_the_chart_radius_must_be_a_number(chart_radius):
    with pytest.raises(DomainError, match=r"^chart radius must be a positive number, got "):
        BoundaryGraph("cone", L=0.1, chart_radius=chart_radius)


# a float dimension used to pass the `in (2, 3)` test
@pytest.mark.parametrize("dim", [2.0, 3.0])
def test_the_dimension_must_be_an_integer(dim):
    with pytest.raises(DomainError, match=r"^dim must be the integer 2 or 3, got "):
        BoundaryGraph("cone", dim=dim, L=0.1)
    assert BoundaryGraph("cone", dim=np.int64(dim), L=0.1).dim == dim


# a list or a dict used to end in "TypeError: unhashable type"
@pytest.mark.parametrize("family", [[], {}], ids=["list", "dict"])
def test_a_family_that_is_not_a_string_is_unknown(family):
    with pytest.raises(DomainError, match=r"^unknown boundary family "):
        BoundaryGraph(family)


def test_c1model_requires_vanishing_modulus():
    from boundarylab import constant
    with pytest.raises(DomainError):
        BoundaryGraph("c1model", omega=constant(0.3))


def test_table_family_pins_origin():
    ts = np.linspace(-0.5, 0.5, 11)
    vals = 0.1 * ts + 0.07                # affine with nonzero offset
    g = BoundaryGraph("table", ts=ts, values=vals)
    assert abs(g.gamma(0.0)) < 1e-14
    assert g.gamma(0.3) == pytest.approx(0.03, abs=1e-12)


def test_seminorm_at_off_center():
    g = BoundaryGraph("c1model", omega=power(1.0, 0.5, 1.0))
    # sup over B_0.1(0.2) of |x| is 0.3 (slope = rho for this graph)
    assert g.seminorm_at(np.array([0.2]), 0.1) == pytest.approx(0.3, rel=1e-4)


def _random_balls(graph, k):
    """k centres inside the chart and scales up to 0.4 R; some balls cross the chart circle."""
    rng = np.random.default_rng(2)
    R = graph.chart_radius
    u = rng.normal(size=(k, graph.dim - 1))
    xp = u / np.linalg.norm(u, axis=-1, keepdims=True) * rng.uniform(0.0, R, (k, 1))
    return xp, rng.uniform(0.02, 0.4, k) * R


def _unit_sample(d, m):
    """m points across [-1, 1] in 1-D; in 2-D the centre, then m - 1 radii by 2(m - 1) angles."""
    if d == 1:
        return np.linspace(-1.0, 1.0, m)[:, None]
    rho = np.linspace(0.0, 1.0, m)[1:, None]
    th = np.linspace(0.0, 2 * np.pi, 2 * (m - 1), endpoint=False)
    ring = np.stack([(rho * np.cos(th)).ravel(), (rho * np.sin(th)).ravel()], axis=-1)
    return np.concatenate([np.zeros((1, 2)), ring])


def _ball_sample(graph, x, s, m):
    """max |grad Gamma| on x' + s u over the unit sample u, projected onto the chart disk.

    The projection is nonexpansive and fixes x', so every point stays in B'_s(x').
    """
    R = graph.chart_radius
    pts = x + s * _unit_sample(graph.dim - 1, m)
    pts *= R / np.maximum(np.linalg.norm(pts, axis=-1, keepdims=True), R)
    return np.max(np.linalg.norm(graph.jet(pts)[1], axis=-1))


# 41 knots of 0.05 sin 7t: the sup of |Gamma'| sits between sample points
_TS41 = np.linspace(-0.5, 0.5, 41)
_TABLE41 = BoundaryGraph("table", ts=_TS41, values=0.05 * np.sin(7 * _TS41))


@pytest.mark.parametrize("graph", [
    BoundaryGraph("c1model", omega=power(0.5, 0.2)),
    BoundaryGraph("sinusoid", A=0.05, k=4.0),
    BoundaryGraph("c1model", dim=3, omega=power(0.5, 0.2)),
    _TABLE41,
], ids=["c1model-2d", "sinusoid-2d", "c1model-3d", "table-2d"])
def test_seminorm_at_matches_per_call_sample(graph):
    # a batch is bitwise one-ball-at-a-time calls; a scale that is not
    # positive or a centre outside the chart raises
    k = 4000 if graph.dim == 2 else 150
    xp, scales = _random_balls(graph, k)
    batch = graph.seminorm_at(xp, scales)
    single = np.array([graph.seminorm_at(xp[i], scales[i]) for i in range(k)])
    np.testing.assert_array_equal(batch, single)
    with pytest.raises(DomainError, match="scale must be positive"):
        graph.seminorm_at(xp, np.where(np.arange(k) == k - 1, 0.0, scales))
    outside = np.where(np.arange(k)[:, None] == 3, 1.01 * graph.chart_radius, xp)
    with pytest.raises(DomainError, match="outside the chart"):
        graph.seminorm_at(outside, scales)


@pytest.mark.parametrize("chart, x, s, want", [
    # the centre lies inside the chart and the ball reaches past it, so the
    # radii stop at R; the box [-R, R]^2 holds rho = 1.27 > t0 = 1
    (0.9, (0.6, 0.6), 0.5, 1.5 * 0.2 * np.sqrt(0.9)),
    (0.5, (0.3, 0.3), 0.3, 1.5 * 0.2 * np.sqrt(0.5)),
], ids=["past-t0", "default-chart"])
def test_seminorm_at_cuts_the_ball_to_the_chart_disk(chart, x, s, want):
    # (t omega)' = 1.5 * 0.2 t^0.5 rises, so S is its value at the chart radius
    g = BoundaryGraph("c1model", dim=3, omega=power(0.5, 0.2), chart_radius=chart)
    assert g.seminorm_at(np.array(x), s) == pytest.approx(want, rel=1e-15)
    # a ball at the origin reaching past the chart is cut to it too
    assert g.local_lip_seminorm(2 * chart) == g.L_global == pytest.approx(want, rel=1e-15)


def test_table_l_global_is_the_peak_of_the_derivative():
    # the sup, 0.3501782, lies between the points of any sample
    g = _TABLE41
    fine = _ball_sample(g, np.zeros(1), g.chart_radius, 4097)
    assert g.L_global >= max(fine, 0.350178)
    assert g.L_global == pytest.approx(np.abs(g._dinterp(np.linspace(-0.5, 0.5, 2_000_001))).max(),
                                       rel=1e-11)


def test_table_modulus_reaches_the_left_limit_at_a_knot():
    # (t omega)' jumps down at t = 0.5, from 0.3 + 0.5 * 0.625 to 0.3 + 0.5 * 0.2
    g = BoundaryGraph("c1model", omega=table([0, 0.1, 0.5, 1], [0, 0.05, 0.3, 0.4]))
    assert g.chart_radius == 0.5
    assert g.L_global == pytest.approx(0.6125, rel=1e-15)
    assert g.seminorm_at(np.array([0.45]), 0.1) == pytest.approx(0.6125, rel=1e-15)
    # inside a piece the sup is at hi: 0.175 + 0.3 * 0.625 at t = 0.3
    assert g.seminorm_at(np.array([0.2]), 0.1) == pytest.approx(0.3625, rel=1e-15)
    assert 0.6125 - 1e-3 < _ball_sample(g, np.zeros(1), 0.5, 4097) <= 0.6125


# zeros of both signs, subnormals, squares that underflow or overflow, and
# ordinary values
_EDGE = np.array([0.0, -0.0, 5e-324, -2.2e-308, 1e-170, 1e-160, 0.3, -1.7, 1e154, 1e300, -1e300])


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_radius_is_bitwise_linalg_norm(m):
    grid = np.stack(np.meshgrid(*[_EDGE] * m, indexing="ij"), axis=-1).reshape(-1, m)
    rng = np.random.default_rng(4)
    for arr in (grid, rng.normal(size=(3, 50, m)), grid[0]):
        want = np.linalg.norm(arr, axis=-1)
        got = _radius(arr)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cone_gradient_is_bitwise_the_masked_divide(dim):
    # rows at the origin, with either sign of zero or squares that underflow,
    # come back as +0 exactly as from the masked divide into zeros
    g = BoundaryGraph("cone", dim=dim, L=0.1)
    m = dim - 1
    grid = np.stack(np.meshgrid(*[_EDGE] * m, indexing="ij"), axis=-1).reshape(-1, m)
    rng = np.random.default_rng(6)
    for arr in (grid, rng.normal(size=(2, 40, m)), grid[1]):
        rho = np.linalg.norm(arr, axis=-1)[..., None]
        want = np.zeros_like(arr)
        np.divide(0.1 * arr, rho, out=want, where=rho > 0)
        assert g.jet(arr)[1].tobytes() == want.tobytes()
        assert np.asarray(g.gamma(arr)).tobytes() == (0.1 * rho[..., 0]).tobytes()


def _analytic_gradient(g, arr):
    """The gradient formulas of each family written out, with the masked divide."""
    out = np.zeros_like(arr)
    if g.family in ("cone", "c1model"):
        rho = np.linalg.norm(arr, axis=-1)[..., None]
        if g.family == "cone":
            num = g._L * arr
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = g._omega(rho[..., 0]) + rho[..., 0] * g._omega.derivative(rho[..., 0])
                num = g._sign * slope[..., None] * arr
        np.divide(num, rho, out=out, where=rho > 0)
    elif g.family == "linear":
        out[...] = g._a
    elif g.family == "sinusoid":
        out[..., 0] = g._A * g._k * np.cos(g._k * arr[..., 0])
    elif g.family == "table":
        out[..., 0] = g._dinterp(arr[..., 0])
    return out


_COMPOSITE = make_composite(0.05, 0.4, 1.0, power(1.0, 0.05), log_modulus(0.05))
_JET_GRAPHS = {
    "zero": BoundaryGraph("zero"),
    "linear": BoundaryGraph("linear", a=0.25),
    "cone": BoundaryGraph("cone", L=0.1),
    "c1model": BoundaryGraph("c1model", omega=power(0.5, 0.2)),
    "c1model-minus": BoundaryGraph("c1model", omega=power(0.5, 0.2), sign=-1.0),
    "c1model-composite": BoundaryGraph("c1model", omega=_COMPOSITE),
    # k = 3, not a power of two, so the order of A k cos(k x) shows
    "sinusoid": BoundaryGraph("sinusoid", A=0.05, k=3.0),
    "table": BoundaryGraph("table", ts=np.linspace(-0.5, 0.5, 11),
                           values=0.1 * np.sin(8 * np.linspace(-0.5, 0.5, 11))),
    "zero-3d": BoundaryGraph("zero", dim=3),
    "linear-3d": BoundaryGraph("linear", dim=3, a=(0.3, 0.4)),
    "cone-3d": BoundaryGraph("cone", dim=3, L=0.1),
    "c1model-3d": BoundaryGraph("c1model", dim=3, omega=power(0.5, 0.2)),
    "c1model-minus-3d": BoundaryGraph("c1model", dim=3, omega=power(0.5, 0.2), sign=-1.0),
    "c1model-composite-3d": BoundaryGraph("c1model", dim=3, omega=_COMPOSITE),
    "sinusoid-3d": BoundaryGraph("sinusoid", dim=3, A=0.05, k=3.0),
}


@pytest.mark.parametrize("name", list(_JET_GRAPHS))
def test_jet_is_gamma_and_the_analytic_gradient_bitwise(name):
    g = _JET_GRAPHS[name]
    m = g.dim - 1
    # rho = 0 rows of both signs of zero among random points, as a batch of
    # blocks; the composite modulus is evaluated point by point, so fewer
    r = 0.8 * min(g.chart_radius, 0.5)
    k = 12 if "composite" in name else 200
    arr = np.random.default_rng(8).uniform(-r, r, (2, k, m))
    arr[0, :2] = 0.0
    arr[1, 0] = -0.0
    for xp in (arr, arr[0, 3], arr[:, :3, :]):
        val, grad = g.jet(xp)
        assert np.asarray(val).tobytes() == np.asarray(g.gamma(xp)).tobytes()
        assert grad.shape == xp.shape
        assert grad.tobytes() == _analytic_gradient(g, xp).tobytes()
    if g.dim == 2:
        # a scalar x' gives a float, as gamma does
        val, grad = g.jet(0.1)
        assert isinstance(val, float) and val == g.gamma(0.1)
        assert grad.tobytes() == _analytic_gradient(g, np.array([0.1])).tobytes()


_FINE_GRAPHS = {"sinusoid-2d": BoundaryGraph("sinusoid", A=0.05, k=4.0), **_JET_GRAPHS}


@pytest.mark.parametrize("name", list(_FINE_GRAPHS))
def test_seminorm_at_is_within_tolerance_of_a_fine_sample(name):
    # S bounds the maximum over a fine sample of the ball cut to the chart
    # (m = 4097 in 1-D, 513 in 2-D; 33 for the 3-D composite, whose modulus is
    # evaluated point by point) up to the gradient's rounding, and exceeds it
    # by under 1e-6 (2.2e-7 measured, 3-D c1model) on all but the composite,
    # whose S is the bound 2 w(hi)
    g = _FINE_GRAPHS[name]
    composite = "composite" in name
    xp, scales = _random_balls(g, 4 if composite else 20 if g.dim == 2 else 6)
    m = 4097 if g.dim == 2 else 33 if composite else 513
    S = g.seminorm_at(xp, scales)
    fine = np.array([_ball_sample(g, x, s, m) for x, s in zip(xp, scales)])
    assert np.all(S >= fine * (1 - 1e-15))
    if not composite:
        assert np.all(S - fine <= 1e-6 * S)


_MAXIMIZER_CASES = [
    ("zero", 0.2, 0.1), ("linear-3d", (0.2, -0.1), 0.1), ("cone", 0.2, 0.1),
    ("cone-3d", (0.0, 0.0), 0.3),
    # (t omega)' rises: the maximizer is the sample point x' + s x'/|x'| or its
    # projection R x'/|x'| onto the chart circle
    ("c1model", -0.2, 0.1), ("c1model-minus", 0.4, 0.3), ("c1model-3d", (0.2, 0.0), 0.1),
    ("c1model-3d", (0.4, 0.0), 0.3),
    # the centre is a multiple of pi/k, or [x_1 - s, x_1 + s] holds none and
    # the end x_1 - s is the maximizer
    ("sinusoid", 0.0, 0.2), ("sinusoid", 0.3, 0.1), ("sinusoid-3d", (0.0, 0.2), 0.1),
    ("sinusoid-3d", (0.3, 0.0), 0.1),
    # |Gamma'| rises over [0.25, 0.35] to the end x_1 + s
    ("table", 0.3, 0.05),
]


@pytest.mark.parametrize("name, x, s", _MAXIMIZER_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(_MAXIMIZER_CASES)])
def test_seminorm_at_equals_a_sample_that_holds_the_maximizer(name, x, s):
    g = _JET_GRAPHS[name]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = 4097 if g.dim == 2 else 513
    assert g.seminorm_at(x, s) == pytest.approx(_ball_sample(g, x, s, m), rel=1e-15)


@pytest.mark.parametrize("omega2", [power(1.0, 0.05), log_modulus(0.05)], ids=["power", "log"])
def test_composite_seminorm_lies_between_the_slope_at_hi_and_twice_w(omega2):
    # t w' <= w, as w(t)/t = (a + I1) exp(c I2) is nonincreasing, so
    # (t w)'(hi) <= S = 2 w(hi) bounds (t w)' over the radii [lo, hi]
    w = make_composite(0.05, 0.4, 1.0, power(1.0, 0.05), omega2)
    g = BoundaryGraph("c1model", omega=w)
    t = np.linspace(0.0, g.chart_radius, 201)[1:]
    assert np.all(t * w.derivative(t) <= w(t))
    xp, scales = _random_balls(g, 6)
    hi = np.minimum(np.abs(xp[:, 0]) + scales, g.chart_radius)
    S = g.seminorm_at(xp, scales)
    np.testing.assert_array_equal(S, 2.0 * w(hi))
    assert np.all(w(hi) + hi * w.derivative(hi) <= S)
    assert g.L_global == 2.0 * w(g.chart_radius)


def test_dim_checks():
    with pytest.raises(DomainError):
        BoundaryGraph("zero", dim=4)
    with pytest.raises(DomainError):
        BoundaryGraph("table", dim=3, ts=[0, 1], values=[0, 1])
    with pytest.raises(DomainError):
        BoundaryGraph("unknown-family")


def test_c1_conditions_interior_exterior():
    w = power(0.5, 0.3, 1.0)
    g = BoundaryGraph("c1model", omega=w)
    # the boundary coincides with the interior cone: margin 0
    rep = check_c1_conditions(g, w, "interior", 0.2)
    assert rep.holds
    assert rep.margin == pytest.approx(0.0, abs=1e-14)
    rep_ext = check_c1_conditions(g, w, "exterior", 0.2)
    assert rep_ext.holds
    # a narrower test modulus fails the interior condition
    w_narrow = power(0.5, 0.1, 1.0)
    rep_bad = check_c1_conditions(g, w_narrow, "interior", 0.2)
    assert not rep_bad.holds


@pytest.mark.parametrize("omega2", [power(1.0, 0.05), log_modulus(0.05)],
                         ids=["power", "log"])
def test_c1model_on_the_composite_modulus(omega2):
    # the paper's explicit modulus bounds a C1 domain like any other modulus;
    # with a log omega2 its derivative is infinite at the origin
    w = make_composite(0.05, 0.4, 1.0, power(1.0, 0.05), omega2)
    g = BoundaryGraph("c1model", omega=w)
    assert 0.0 < g.L_global < 0.1
    assert np.all(np.isfinite(g.jet(np.array([[0.0], [0.1]]))[1]))
    r = 0.5 * g.chart_radius
    rep = check_c1_conditions(g, w, "interior", r)
    assert rep.holds
    assert rep.margin == pytest.approx(0.0, abs=1e-14)
    assert check_c1_conditions(g, w, "exterior", r).holds


def test_c1_conditions_flat_domain():
    g = BoundaryGraph("zero")
    w = power(1.0, 1.0, 1.0)
    assert check_c1_conditions(g, w, "interior", 0.3).holds
    assert check_c1_conditions(g, w, "exterior", 0.3).holds
    with pytest.raises(DomainError):
        check_c1_conditions(g, w, "sideways", 0.3)
