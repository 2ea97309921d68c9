"""End-to-end acceptance checks, one per headline property.

Each test exercises a full pipeline at its production tolerances and prints
a single PASS line on success; `pytest -v` therefore yields one line per
criterion.  These are slower than the unit suites (minutes, not seconds).
"""

import numpy as np
import pytest

from boundarylab import (
    Barrier, BoundaryGraph, EllipticityPair, FixedOp, GridProblem, LaplaceOp,
    PucciOp, abp_check, dini_integral, load_calibration, log_modulus,
    make_composite, measure_growth, minimal_passing_epsilon, power,
    sample_domain_points, solve, verify_barrier,
)
from boundarylab.calibrate import epsilon_for
from boundarylab.regdist import RegularizedDistanceField, check_distance_bounds

CAL = load_calibration()
ZERO = lambda p: np.zeros(len(np.atleast_2d(p)))

FAMILIES = [
    ("zero", {}),
    ("linear", {"a": 0.05}),
    ("cone", {"L": 0.05}),
    ("cone", {"L": 0.1}),
    ("sinusoid", {"A": 0.05, "k": 4.0}),
    ("c1model", {"omega": power(0.5, 0.2, 1.0)}),
    ("c1model", {"omega": power(1.0, 0.2, 1.0)}),
]


def test_criterion_1_regularized_distance_bounds():
    rng = np.random.default_rng(101)
    for fam, kw in FAMILIES:
        g = BoundaryGraph(fam, **kw)
        field = RegularizedDistanceField(g)
        pts = sample_domain_points(g, 0.3, 1000, rng)
        rep = check_distance_bounds(field, pts, CAL.C_regdist_2d)
        assert rep.passed, (fam, kw, rep.to_dict())
        if fam in ("zero", "linear"):
            # flat geometry: the comparison is exact, not just bounded
            assert rep.flat_exact, (fam, rep.to_dict())
    print("criterion 1 (regularized distance, three bounds on 7 families, "
          "1000 pts each): PASS")


def test_criterion_2_barriers_and_epsilon_scaling():
    rng = np.random.default_rng(7)
    # calibrated selector passes on every test domain
    for fam, kw in FAMILIES:
        g = BoundaryGraph(fam, **kw)
        field = RegularizedDistanceField(g)
        pts = sample_domain_points(g, 0.25, 300, rng)
        sem = g.local_lip_seminorm(min(0.5, g.chart_radius))
        for E in (EllipticityPair(1.0, 1.0), EllipticityPair(1.0, 2.0)):
            eps = max(epsilon_for(CAL, E, sem), 1e-3)
            for sign in ("sub", "super"):
                b = Barrier(field=field, eps=eps, sign=sign, E=E, r=0.25)
                assert verify_barrier(b, pts).passed, (fam, kw, E, sign, eps)
    # minimal passing epsilon on cones scales linearly in the slope
    E = EllipticityPair(1.0, 1.0)
    Ls = np.array([0.01, 0.02, 0.04, 0.06, 0.08, 0.1])
    eps_min = []
    for L in Ls:
        g = BoundaryGraph("cone", L=L)
        field = RegularizedDistanceField(g)
        pts = sample_domain_points(g, 0.25, 200, np.random.default_rng(13))
        eps_min.append(minimal_passing_epsilon(field, E, 0.25, pts, "sub"))
    A = np.column_stack([Ls, np.ones_like(Ls)])
    coef, *_ = np.linalg.lstsq(A, np.asarray(eps_min), rcond=None)
    pred = A @ coef
    ss_res = float(((eps_min - pred) ** 2).sum())
    ss_tot = float(((eps_min - np.mean(eps_min)) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    assert r2 >= 0.98, (coef, r2, eps_min)
    assert coef[0] > 0
    print(f"criterion 2 (barriers on 7 families; minimal eps ~ {coef[0]:.2f} L, "
          f"R^2 = {r2:.4f} >= 0.98): PASS")


def test_criterion_3_solver_convergence_orders():
    r = 0.5
    ns = [64, 128, 256]
    hs = 2 * r / np.array(ns)
    g = BoundaryGraph("cone", L=0.2)

    def harm(p):
        p = np.atleast_2d(p)
        return np.exp(p[:, 0]) * np.sin(p[:, 1])

    sup_err, int_err = [], []
    for n in ns:
        sol = solve(GridProblem(g, r, n, LaplaceOp(), ZERO, harm))
        err = np.abs(sol.values - harm(sol.nodes))
        sup_err.append(err.max())
        gap = sol.nodes[:, 1] - np.atleast_1d(g.gamma(sol.nodes[:, :1]))
        interior = (gap > 0.1) & (np.linalg.norm(sol.nodes, axis=-1) < 0.35)
        int_err.append(err[interior].max())
    order_sup = np.polyfit(np.log(hs), np.log(sup_err), 1)[0]
    order_int = np.polyfit(np.log(hs), np.log(int_err), 1)[0]
    assert order_sup >= 1.0, (sup_err, order_sup)
    assert order_int >= 1.9, (int_err, order_int)

    # anisotropic constant coefficients, manufactured solution
    A = np.array([[1.0, 0.3], [0.3, 1.0]])
    op = FixedOp(A=lambda x: A)
    f = lambda p: 2 * A[0, 1] * np.exp(np.atleast_2d(p)[:, 0]) * np.cos(np.atleast_2d(p)[:, 1])
    an_err = []
    for n in ns:
        sol = solve(GridProblem(g, r, n, op, f, harm))
        an_err.append(np.abs(sol.values - harm(sol.nodes)).max())
    order_an = np.polyfit(np.log(hs), np.log(an_err), 1)[0]
    assert order_an >= 1.0, (an_err, order_an)

    # Pucci at lam = Lam is the (scaled) Laplacian, node for node
    lam = 2.0
    fr = lambda p: -np.ones(len(np.atleast_2d(p)))
    s_lap = solve(GridProblem(g, r, 64, LaplaceOp(), lambda p: fr(p) / lam, ZERO))
    s_puc = solve(GridProblem(g, r, 64, PucciOp(EllipticityPair(lam, lam), "minus"),
                              fr, ZERO))
    puc_dev = np.abs(s_puc.values - s_lap.values).max()
    assert puc_dev <= 1e-10
    print(f"criterion 3 (orders: sup {order_sup:.2f} >= 1.0, interior "
          f"{order_int:.2f} >= 1.9, anisotropic {order_an:.2f} >= 1.0; "
          f"Pucci collapse {puc_dev:.1e} <= 1e-10): PASS")


def test_criterion_4_sector_exponent_oracle():
    L = 0.2
    g = BoundaryGraph("cone", L=L)
    rep = measure_growth(g, k_max=7, n_grid=256)
    # exact planar-sector growth exponent for the cone of slope L
    gamma = np.pi / (np.pi - 2.0 * np.arctan(L))
    rel = abs(rep.exponent - (gamma - 1.0)) / (gamma - 1.0)
    assert rel <= 0.05, (rep.exponent, gamma - 1.0, rel)
    print(f"criterion 4 (cone L=0.2 exponent {rep.exponent:.4f} vs sector "
          f"{gamma - 1.0:.4f}, rel err {rel:.3f} <= 0.05): PASS")


def test_criterion_5_dini_envelopes_and_drift():
    om = power(0.5, 1.0, 1.0)
    g = BoundaryGraph("c1model", omega=om)
    rep = measure_growth(g, k_max=7, n_grid=256, omega=om, C_hat=CAL.C_envelope)
    late = rep.ks >= 3
    assert np.all(rep.q[late] >= rep.env_lower[late]), rep.to_dict()
    assert np.all(rep.q[late] <= rep.env_upper[late]), rep.to_dict()
    drift = abs(np.log(rep.q[-1]) - np.log(rep.q[1]))
    bound = CAL.C_envelope * dini_integral(om, rep.radii[-1], rep.radii[1])
    assert drift <= bound, (drift, bound)
    print(f"criterion 5 (sqrt-modulus domain: q_k inside envelopes for k=3..7; "
          f"drift {drift:.3f} <= {bound:.3f}): PASS")


def test_criterion_6_log_lipschitz_regime():
    b = 0.4
    om = log_modulus(1.0, 0.5)
    g = BoundaryGraph("c1model", omega=om, sign=-1, chart_radius=b / 2)
    rep = measure_growth(g, k_max=7, n_grid=128)

    def omega_tilde(t):
        # t * exp(int_t^b omega(s)/s ds) with the closed-form primitive
        # log log(1/s) for omega(s) = 1/log(1/s); simplifies to a log ratio
        return t * np.log(1.0 / t) / np.log(1.0 / b)

    wt = omega_tilde(rep.radii)
    ratio = rep.m * rep.radii / wt
    assert np.all(ratio <= CAL.C_envelope), (ratio, CAL.C_envelope)
    # log m_k against log log(1/r_k): bounded positive slope
    x = np.log(np.log(1.0 / rep.radii))
    y = np.log(rep.m)
    slope = np.polyfit(x, y, 1)[0]
    assert 0.0 < slope <= 3.0, slope
    print(f"criterion 6 (log-modulus domain: m_k r_k / omega_tilde <= "
          f"{ratio.max():.2f} <= {CAL.C_envelope}; log-log-log slope "
          f"{slope:.2f} in (0, 3]): PASS")


def test_criterion_7_composite_modulus_calculus():
    rng = np.random.default_rng(77)
    for trial in range(10):
        w1 = power(rng.uniform(0.4, 1.5), rng.uniform(0.5, 2.0), 1.0)
        w2 = power(rng.uniform(0.4, 1.5), rng.uniform(0.5, 2.0), 1.0)
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.2, 0.8)
        c = rng.uniform(0.5, 2.0)
        comp = make_composite(a, b, c, w1, w2)
        ts = np.geomspace(comp.t0 * 1e-6, comp.t0 * (1 - 1e-9), 200)
        vals = comp(ts)
        assert np.all(np.diff(vals) > 0), trial
        slopes = np.diff(np.log(vals)) / np.diff(np.log(ts))
        assert slopes.min() >= 0.5 - 0.05, (trial, slopes.min())
        # Dini integral additivity and the power closed form
        lo, mid, hi = 0.1 * b, 0.4 * b, 0.9 * b
        whole = dini_integral(w1, lo, hi)
        split = dini_integral(w1, lo, mid) + dini_integral(w1, mid, hi)
        assert whole == pytest.approx(split, rel=1e-9)
        alpha, scale = w1.params["alpha"], w1.params["scale"]
        closed = scale * (hi ** alpha - lo ** alpha) / alpha
        assert whole == pytest.approx(closed, rel=1e-9)
    print("criterion 7 (10 random composites: strict monotonicity, discrete "
          "slope >= 0.45, Dini additivity to 1e-9): PASS")


def test_criterion_8_discrete_maximum_principle_abp():
    r = 0.5
    for fam, kw in [("cone", {"L": 0.2}), ("sinusoid", {"A": 0.05, "k": 4.0})]:
        g = BoundaryGraph(fam, **kw)
        data = lambda p: np.cos(5.0 * np.atleast_2d(p)[:, 0]) + 0.5 * np.atleast_2d(p)[:, 1]
        rep = abp_check(solve(GridProblem(g, r, 64, LaplaceOp(), ZERO, data)))
        assert rep.max_principle_exact, (fam, rep.to_dict())
        assert rep.forcing_norm == 0.0
    g = BoundaryGraph("cone", L=0.1)
    f = lambda p: -np.ones(len(np.atleast_2d(p)))
    consts = []
    for n in (48, 96):
        rep = abp_check(solve(GridProblem(g, r, n, LaplaceOp(), f, ZERO)))
        consts.append(rep.bound_constant)
    rel = abs(consts[1] - consts[0]) / consts[0]
    assert rel <= 0.10, consts
    print(f"criterion 8 (max principle exact with f=0; ABP constant "
          f"{consts[0]:.4f} -> {consts[1]:.4f}, drift {rel:.3f} <= 0.10): PASS")
