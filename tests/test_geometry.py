import re

import numpy as np
import pytest

from boundarylab import (
    BoundaryGraph, ConvergenceError, DomainError, check_c1_conditions, log_modulus,
    make_composite, power,
)
from boundarylab.geometry import (
    _SEMINORM_NODES, SEMINORM_M0, SEMINORM_M_MAX, SEMINORM_TOL, _radius, _sample_ball,
)


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
    ("cone", {"L": float("nan")}, "cone slope L must be nonnegative"),
], ids=["unknown", "missing", "stray", "stray-sign", "missing-c1model", "string", "none", "nan"])
def test_bad_family_parameters_raise_domain_error(family, params, message):
    with pytest.raises(DomainError, match=message):
        BoundaryGraph(family, **params)


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
    rng = np.random.default_rng(2)
    return rng.uniform(-0.3, 0.3, (k, graph.dim - 1)), rng.uniform(0.01, 0.2, k)


def _ball_sample(graph, x, s, m):
    """max |grad Gamma| on x + s u over the unit sample u, as seminorm_at forms it."""
    cr = graph.chart_radius
    pts = np.clip(x + s * _sample_ball(graph.dim - 1, 1.0, m), -cr, cr)
    return np.max(np.linalg.norm(graph.jet(pts)[1], axis=-1))


def _reference_seminorm(graph, x, s):
    """One ball refined on its own: m, 2m - 1, ... until two samples agree."""
    m, prev = SEMINORM_M0, None
    while True:
        val = _ball_sample(graph, x, s, m)
        if prev is not None and abs(val - prev) <= SEMINORM_TOL * val:
            return val
        prev, m = val, 2 * m - 1


@pytest.mark.parametrize("graph", [
    BoundaryGraph("c1model", omega=power(0.5, 0.2)),
    BoundaryGraph("sinusoid", A=0.05, k=4.0),
    BoundaryGraph("c1model", dim=3, omega=power(0.5, 0.2)),
], ids=["c1model-2d", "sinusoid-2d", "c1model-3d"])
def test_seminorm_at_matches_per_call_sample(graph):
    # a batch is bitwise one-ball-at-a-time calls and a per-ball refinement;
    # the batches span at least three sampling blocks at the first level
    k = 4000 if graph.dim == 2 else 150
    assert k > 2 * (_SEMINORM_NODES // len(_sample_ball(graph.dim - 1, 1.0, SEMINORM_M0)))
    xp, scales = _random_balls(graph, k)
    batch = graph.seminorm_at(xp, scales)
    ref = np.array([_reference_seminorm(graph, xp[i], scales[i]) for i in range(k)])
    single = np.array([graph.seminorm_at(xp[i], scales[i]) for i in range(k)])
    np.testing.assert_array_equal(single, ref)
    np.testing.assert_array_equal(batch, ref)
    with pytest.raises(DomainError):
        graph.seminorm_at(xp, np.where(np.arange(k) == k - 1, 0.0, scales))


@pytest.mark.parametrize("graph", [
    BoundaryGraph("sinusoid", A=0.05, k=4.0),
    BoundaryGraph("c1model", dim=3, omega=power(0.5, 0.2)),
], ids=["sinusoid-2d", "c1model-3d"])
def test_seminorm_at_is_within_tolerance_of_a_fine_sample(graph):
    # the fine sample contains every coarser one, so S never exceeds it
    xp, scales = _random_balls(graph, 200 if graph.dim == 2 else 20)
    S = graph.seminorm_at(xp, scales)
    m_fine = 4097 if graph.dim == 2 else 513
    fine = np.array([_ball_sample(graph, x, s, m_fine) for x, s in zip(xp, scales)])
    assert np.all(S <= fine)
    assert np.all(fine - S <= SEMINORM_TOL * fine)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [3, SEMINORM_M0, 33])
def test_sample_ball_is_nested_with_one_centre(d, m):
    coarse, fine = _sample_ball(d, 0.3, m), _sample_ball(d, 0.3, 2 * m - 1)
    assert {tuple(p) for p in coarse} <= {tuple(p) for p in fine}
    for sample in (coarse, fine):
        assert np.count_nonzero(~sample.any(axis=-1)) == 1


def test_seminorm_at_returns_the_first_agreeing_sample(monkeypatch):
    # |grad Gamma| = 1 - 1/M^2 on a ball of M nodes: the samples M = 17, 33
    # and 65 differ by 2.5e-3 and then 6.8e-4 relative, so at SEMINORM_M0 = 17
    # and SEMINORM_TOL = 1e-3 the ball settles at M = 65
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    monkeypatch.setattr(g, "jet", lambda pts: (None, np.full(pts.shape, 1 - pts.shape[-2] ** -2.0)))
    assert g.seminorm_at(np.array([0.2]), 0.1) == 1 - 65 ** -2.0


def test_seminorm_at_raises_on_a_ball_that_never_settles(monkeypatch):
    # |grad Gamma| equal to the node count of the ball grows with every level
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    monkeypatch.setattr(g, "jet", lambda pts: (None, np.full(pts.shape, pts.shape[-2] + 0.0)))
    m = SEMINORM_M_MAX
    msg = f"B'_0.1([0.2]) unsettled at m = {m}: {(m + 1) // 2} then {m}"
    with pytest.raises(ConvergenceError, match=re.escape(msg)):
        g.seminorm_at(np.array([0.2]), 0.1)


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
