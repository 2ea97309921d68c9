import numpy as np
import pytest

from boundarylab import BoundaryGraph, DomainError, check_c1_conditions, power, zero
from boundarylab.geometry import _radius, _sample_ball


def test_zero_family():
    g = BoundaryGraph("zero")
    assert g.gamma(0.3) == 0.0
    assert g.L_global == 0.0
    assert g.contains([0.1, 0.01])
    assert not g.contains([0.1, -0.01])
    assert not g.contains([0.1, 0.0])     # boundary excluded


def test_linear_family():
    g = BoundaryGraph("linear", a=0.25)
    assert g.gamma(0.2) == pytest.approx(0.05)
    assert g.grad_gamma(np.array([0.3]))[0] == pytest.approx(0.25)
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
    assert g.grad_gamma(np.array([0.1]))[0] == pytest.approx(0.2)
    assert g.grad_gamma(np.array([-0.1]))[0] == pytest.approx(-0.2)


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
    assert g.grad_gamma(np.array([0.2]))[0] == pytest.approx(0.2, rel=1e-6)
    gm = BoundaryGraph("c1model", omega=w, sign=-1)
    assert gm.gamma(0.2) == pytest.approx(-0.02)
    with pytest.raises(DomainError):
        BoundaryGraph("c1model", omega=w, sign=0.5)


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


@pytest.mark.parametrize("graph", [
    BoundaryGraph("c1model", omega=power(0.5, 0.2)),
    BoundaryGraph("sinusoid", A=0.05, k=4.0),
    BoundaryGraph("c1model", dim=3, omega=power(0.5, 0.2)),
], ids=["c1model-2d", "sinusoid-2d", "c1model-3d"])
def test_seminorm_at_matches_per_call_sample(graph):
    # the cached, scaled unit ball gives the per-call sample of B'_scale(x');
    # 2-D batches of 600 points span two sampling blocks
    rng = np.random.default_rng(2)
    k = 600 if graph.dim == 2 else 6
    xp = rng.uniform(-0.3, 0.3, (k, graph.dim - 1))
    scales = rng.uniform(0.01, 0.2, k)
    batch = graph.seminorm_at(xp, scales)
    cr = graph.chart_radius
    ref = np.array([
        np.max(np.linalg.norm(graph.grad_gamma(np.clip(
            xp[i] + _sample_ball(graph.dim - 1, scales[i], 129), -cr, cr)), axis=-1))
        for i in range(k)])
    single = np.array([graph.seminorm_at(xp[i], scales[i]) for i in range(k)])
    np.testing.assert_allclose(single, ref, rtol=1e-15, atol=0)
    np.testing.assert_allclose(batch, ref, rtol=1e-15, atol=0)
    with pytest.raises(DomainError):
        graph.seminorm_at(xp, np.where(np.arange(k) == k - 1, 0.0, scales))


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
        assert g.grad_gamma(arr).tobytes() == want.tobytes()
        assert np.asarray(g.gamma(arr)).tobytes() == (0.1 * rho[..., 0]).tobytes()


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


def test_c1_conditions_flat_domain():
    g = BoundaryGraph("zero")
    w = power(1.0, 1.0, 1.0)
    assert check_c1_conditions(g, w, "interior", 0.3).holds
    assert check_c1_conditions(g, w, "exterior", 0.3).holds
    with pytest.raises(DomainError):
        check_c1_conditions(g, w, "sideways", 0.3)
