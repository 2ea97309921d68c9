import numpy as np
import pytest

from boundarylab import (
    Barrier, BoundaryGraph, DomainError, EllipticityPair,
    barrier_hessian_value, check_special_solution_sandwich, load_calibration, log_modulus,
    minimal_passing_epsilon, power, sample_domain_points, special_solution, verify_barrier,
)
from boundarylab.calibrate import epsilon_for
from boundarylab.pucci import pucci_minus, pucci_plus
from boundarylab.regdist import RegularizedDistanceField, check_distance_bounds

E_LAP = EllipticityPair(1.0, 1.0)


def _field(fam="cone", **kw):
    g = BoundaryGraph(fam, **(kw or ({"L": 0.1} if fam == "cone" else {})))
    return g, RegularizedDistanceField(g)


def test_sample_domain_points_properties():
    g, _ = _field()
    rng = np.random.default_rng(0)
    pts = sample_domain_points(g, 0.3, 100, rng)
    assert pts.shape == (100, 2)
    assert np.all(np.linalg.norm(pts, axis=-1) < 0.3)
    assert np.all(pts[:, 1] > g.gamma(pts[:, :1]))
    # deterministic given the generator state
    pts2 = sample_domain_points(g, 0.3, 100, np.random.default_rng(0))
    np.testing.assert_array_equal(pts, pts2)


@pytest.mark.parametrize("t0", [0.5, 0.4])
def test_sample_domain_points_respect_small_charts(t0):
    # the chart shrinks to t0/2 < 1/2; every sample must stay evaluable
    g = BoundaryGraph("c1model", omega=power(0.5, 0.2, t0=t0))
    assert g.chart_radius == 0.5 * t0
    f = RegularizedDistanceField(g)
    for r in (0.3, g.chart_radius):
        pts = sample_domain_points(g, r, 200, np.random.default_rng(3))
        gap = pts[:, 1] - g.gamma(pts[:, :1])
        assert np.all(np.abs(pts[:, 0]) + 1.5 * gap < g.chart_radius)
        rep = check_distance_bounds(f, pts, load_calibration().C_regdist_2d)
        assert rep.passed, rep.to_dict()


def test_sample_domain_points_evaluate_gamma_only_inside_the_chart():
    # omega lives on [0, 1/2), so the chart is 1/4; at r = 0.6 the sampler
    # used to evaluate Gamma at |x'| >= 1/2 and fail in the modulus
    g = BoundaryGraph("c1model", omega=log_modulus(0.1))
    pts = sample_domain_points(g, 0.6, 200, np.random.default_rng(1))
    gap = pts[:, 1] - g.gamma(pts[:, :1])
    assert np.all((gap > 0) & (np.abs(pts[:, 0]) + 1.5 * gap < g.working_radius))


def test_sample_domain_points_name_a_radius_above_the_chart():
    # it used to ask whether r was too small
    g = BoundaryGraph("cone", L=0.1)
    with pytest.raises(DomainError, match=r"could not sample 50 interior points of B_r, "
                       r"r = 5, inside the chart's working radius 0.5; r is above it$"):
        sample_domain_points(g, 5, 50, np.random.default_rng(1))


def test_barrier_validation():
    g, f = _field()
    with pytest.raises(DomainError):
        Barrier(field=f, eps=0.6, sign="sub", E=E_LAP, r=0.25)
    with pytest.raises(DomainError):
        Barrier(field=f, eps=0.1, sign="both", E=E_LAP, r=0.25)
    b = Barrier(field=f, eps=0.1, sign="sub", E=E_LAP, r=0.25)
    assert b.exponent == pytest.approx(1.1)
    assert Barrier(field=f, eps=0.1, sign="super", E=E_LAP, r=0.25).exponent == pytest.approx(0.9)


def test_hessian_value_matches_manual_assembly():
    g, f = _field()
    x = np.array([0.05, 0.12])
    d, grad, hess = f.eval_all(x[None, :])
    for sign, q in (("sub", 1.2), ("super", 0.8)):
        b = Barrier(field=f, eps=0.2, sign=sign, E=E_LAP, r=0.25)
        D2 = (q * d[0] ** (q - 1) * hess[0]
              + q * (q - 1) * d[0] ** (q - 2) * np.outer(grad[0], grad[0]))
        want = np.trace(D2)  # lam = Lam = 1
        assert barrier_hessian_value(b, x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("fam, kw", [("sinusoid", {"A": 0.05, "k": 4.0}),
                                     ("cone", {"dim": 3, "L": 0.1})])
def test_batched_hessian_value_matches_per_point(fam, kw):
    g, f = _field(fam, **kw)
    pts = sample_domain_points(g, 0.25, 20 if g.dim == 2 else 8, np.random.default_rng(5))
    d, grad, hess = f.eval_all(pts)
    E = EllipticityPair(1.0, 2.0)
    for sign, op in (("sub", pucci_minus), ("super", pucci_plus)):
        b = Barrier(field=f, eps=0.2, sign=sign, E=E, r=0.25)
        q = b.exponent
        want = [op(E, q * d[i] ** (q - 1) * hess[i]
                   + q * (q - 1) * d[i] ** (q - 2) * np.outer(grad[i], grad[i]))
                for i in range(len(pts))]
        np.testing.assert_allclose(barrier_hessian_value(b, pts), want, rtol=1e-12)


def test_flat_boundary_barriers_pass_any_eps():
    g, f = _field("zero")
    pts = sample_domain_points(g, 0.25, 100, np.random.default_rng(1))
    for sign in ("sub", "super"):
        b = Barrier(field=f, eps=0.01, sign=sign, E=EllipticityPair(1.0, 5.0), r=0.25)
        assert verify_barrier(b, pts).passed


def test_sub_barrier_fails_below_threshold():
    g, f = _field("cone", L=0.1)
    pts = sample_domain_points(g, 0.25, 300, np.random.default_rng(2))
    small = Barrier(field=f, eps=0.01, sign="sub", E=E_LAP, r=0.25)
    rep = verify_barrier(small, pts)
    assert not rep.passed
    assert rep.min_value < 0
    big = Barrier(field=f, eps=0.3, sign="sub", E=E_LAP, r=0.25)
    assert verify_barrier(big, pts).passed


def test_minimal_epsilon_increases_with_slope():
    rng = np.random.default_rng(3)
    eps = []
    for L in (0.03, 0.06, 0.1):
        g, f = _field("cone", L=L)
        pts = sample_domain_points(g, 0.25, 200, np.random.default_rng(7))
        eps.append(minimal_passing_epsilon(f, E_LAP, 0.25, pts, "sub"))
    assert eps[0] < eps[1] < eps[2]


def test_calibrated_epsilon_selector_passes():
    cal = load_calibration()
    for lam, Lam in ((1.0, 1.0), (1.0, 2.0)):
        E = EllipticityPair(lam, Lam)
        for L in (0.02, 0.05, 0.1):
            g, f = _field("cone", L=L)
            eps = epsilon_for(cal, E, g.local_lip_seminorm(0.5))
            pts = sample_domain_points(g, 0.25, 200, np.random.default_rng(11))
            for sign in ("sub", "super"):
                b = Barrier(field=f, eps=eps, sign=sign, E=E, r=0.25)
                assert verify_barrier(b, pts).passed, (lam, Lam, L, sign)


def test_special_solution_sandwich():
    cal = load_calibration()
    g, f = _field("cone", L=0.1)
    eps = epsilon_for(cal, E_LAP, g.local_lip_seminorm(0.5))
    rep = check_special_solution_sandwich(f, eps, 0.25, K_hat=cal.K_sandwich, n=96)
    assert rep.lower_ok and rep.upper_ok, rep.to_dict()
    assert rep.closeness_ok, rep.to_dict()
    # phi_r and the checked nodes do not depend on eps; pinned on this grid
    assert rep.max_deviation == 0.006431617256753133
    assert rep.n_nodes == 2918


def test_special_solution_has_data_d_on_the_cut_boundary():
    # phi_r takes d at the cut points above the graph and 0 on the graph itself
    g, f = _field("cone", L=0.1)
    phi = special_solution(f, 0.25, 48)
    assert phi.h == 0.25 / 24
    pts, vals = phi.boundary_points, phi.boundary_values
    on_graph = pts[:, 1] - g.gamma(pts[:, :1]) <= 1e-9
    assert on_graph.any() and not on_graph.all()
    assert np.all(vals[on_graph] == 0.0)
    np.testing.assert_array_equal(vals[~on_graph], f.eval_d(pts[~on_graph]))


def test_verify_barrier_inverts_once(monkeypatch):
    # d, grad d and D^2 d all come from one vertical inversion per check
    g = BoundaryGraph("cone", dim=3, L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.25, 6, np.random.default_rng(3))
    calls = []
    solve_d = RegularizedDistanceField._solve_d

    def counted(self, *args, **kwargs):
        calls.append(len(args[0]))
        return solve_d(self, *args, **kwargs)

    monkeypatch.setattr(RegularizedDistanceField, "_solve_d", counted)
    b = Barrier(field=f, eps=0.3, sign="sub", E=EllipticityPair(1.0, 2.0), r=0.25)
    rep = verify_barrier(b, pts)
    assert calls == [6]
    d = f.eval_all(pts)[0]
    assert rep.min_value == (barrier_hessian_value(b, pts) / d ** (b.exponent - 2.0)).min()


def test_sub_and_super_checks_of_one_batch_invert_once(monkeypatch):
    # both barriers are powers of one d: the super check reads the sub check's inversion
    g, f = _field("sinusoid", A=0.05, k=4.0)
    pts = sample_domain_points(g, 0.25, 30, np.random.default_rng(5))
    fresh = RegularizedDistanceField(g)
    E = EllipticityPair(1.0, 2.0)
    expected = [verify_barrier(Barrier(field=RegularizedDistanceField(g), eps=0.3, sign=sign,
                                       E=E, r=0.25), pts).to_dict()
                for sign in ("sub", "super")]
    calls = []
    solve_d = RegularizedDistanceField._solve_d

    def counted(self, *args, **kwargs):
        calls.append(len(args[0]))
        return solve_d(self, *args, **kwargs)

    monkeypatch.setattr(RegularizedDistanceField, "_solve_d", counted)
    reps = [verify_barrier(Barrier(field=f, eps=0.3, sign=sign, E=E, r=0.25), pts).to_dict()
            for sign in ("sub", "super")]
    assert calls == [30]
    assert reps == expected
    # the memo belongs to its field
    fresh.eval_all(pts)
    assert calls == [30, 30]


def test_minimal_epsilon_inverts_the_samples_once(monkeypatch):
    # d, grad d and D^2 d do not depend on eps: one eval_all serves every step
    g, f = _field("cone", L=0.1)
    pts = sample_domain_points(g, 0.25, 100, np.random.default_rng(7))
    calls = []
    eval_all = RegularizedDistanceField.eval_all

    def counted(self, *args, **kwargs):
        calls.append(len(args[0]))
        return eval_all(self, *args, **kwargs)

    monkeypatch.setattr(RegularizedDistanceField, "eval_all", counted)
    eps = minimal_passing_epsilon(f, E_LAP, 0.25, pts, "sub")
    assert calls == [100]
    # the bisection stops within 1e-3 relative of a failing eps, and its
    # sign test is verify_barrier's
    assert verify_barrier(Barrier(field=f, eps=eps, sign="sub", E=E_LAP, r=0.25), pts).passed
    below = Barrier(field=f, eps=eps * (1 - 1e-3), sign="sub", E=E_LAP, r=0.25)
    assert not verify_barrier(below, pts).passed
