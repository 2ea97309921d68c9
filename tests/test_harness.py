import numpy as np
import pytest

from boundarylab import (
    BoundaryGraph, DomainError, EllipticityPair, FixedOp, GridProblem, LaplaceOp,
    PucciOp, constant, harness, load_calibration, log_modulus,
    measure_boundary_modulus, measure_growth, power, solver,
)
from boundarylab.harness import (
    _run_cascade, diagnostic_sequences, dyadic_sum_and_integral, envelope_lower,
    envelope_upper, fit_log_slope,
)

DILATION_GRAPHS = {"cone": {"L": 0.2}, "zero": {}, "linear": {"a": 0.15}}
CASCADE_OPERATORS = {
    "laplace-standard5": (LaplaceOp(), "standard5"),
    "fixed-wide": (FixedOp(A=lambda x: np.array([[1.0, 0.3], [0.3, 1.5]])), "wide"),
    "pucci_minus-wide": (PucciOp(EllipticityPair(1.0, 2.0), "minus"), "wide"),
}


def test_flat_linear_data_gives_unit_quotients():
    g = BoundaryGraph("zero")
    rep = measure_growth(g, k_max=4, n_grid=32, outer_data=lambda p: p[:, 1])
    np.testing.assert_allclose(rep.q, 1.0, atol=1e-10)
    np.testing.assert_allclose(rep.m, 1.0, atol=1e-10)
    assert abs(rep.exponent) < 1e-9
    assert np.all(np.diff(rep.radii) < 0)


def test_cascade_lets_programming_errors_through():
    def bad_data(p):
        raise TypeError("not a boundary datum")

    with pytest.raises(TypeError, match="not a boundary datum"):
        measure_growth(BoundaryGraph("zero"), k_max=2, n_grid=32, graph_data=bad_data)


def test_fit_log_slope_recovers_power():
    r = 2.0 ** (-np.arange(1, 8, dtype=float))
    q = 3.0 * r ** 0.37
    slope, r2 = fit_log_slope(r, q)
    assert slope == pytest.approx(0.37, rel=1e-12)
    assert r2 == pytest.approx(1.0)
    with pytest.raises(DomainError):
        fit_log_slope(r[:3], q[:3])


def test_cone_exponent_matches_sector_oracle_coarse():
    L = 0.2
    g = BoundaryGraph("cone", L=L)
    rep = measure_growth(g, k_max=6, n_grid=96)
    gamma = np.pi / (np.pi - 2.0 * np.arctan(L))
    assert rep.exponent == pytest.approx(gamma - 1.0, rel=0.08)
    assert np.all(rep.q > 0)


def test_envelope_functions():
    w = constant(0.2, 1.0)
    C = 3.0
    lo = envelope_lower(w, 0.05, 0.2, C)
    hi = envelope_upper(w, 0.05, 0.2, C)
    # closed form: int = 0.2 ln(0.4/0.05)
    I = 0.2 * np.log(8.0)
    assert lo == pytest.approx(np.exp(-C * I) / C, rel=1e-12)
    assert hi == pytest.approx(C * np.exp(C * I), rel=1e-12)
    assert lo < hi


def test_growth_report_envelopes_contain_dini_domain():
    om = power(0.5, 1.0, 1.0)
    g = BoundaryGraph("c1model", omega=om)
    cal = load_calibration()
    rep = measure_growth(g, k_max=5, n_grid=64, omega=om, C_hat=cal.C_envelope)
    assert np.all(rep.q >= rep.env_lower)
    assert np.all(rep.q <= rep.env_upper)


def test_grid_refinement_stability():
    g = BoundaryGraph("cone", L=0.2)
    q_coarse = measure_growth(g, k_max=4, n_grid=64).q
    q_fine = measure_growth(g, k_max=4, n_grid=128).q
    assert np.all(np.abs(q_fine - q_coarse) <= 0.02 * np.abs(q_fine))


def test_tighter_modulus_no_worse_exponent():
    # smaller cone slope gives an exponent closer to the flat value 0
    rep_tight = measure_growth(BoundaryGraph("cone", L=0.05), k_max=5, n_grid=64)
    rep_loose = measure_growth(BoundaryGraph("cone", L=0.2), k_max=5, n_grid=64)
    assert rep_tight.exponent <= rep_loose.exponent + 1e-9


def test_boundary_modulus_linear_data_subtracted_exactly():
    g = BoundaryGraph("zero")
    rep = measure_boundary_modulus(
        g, k_max=4, n_grid=32,
        g=lambda p: np.atleast_2d(p)[:, 0], grad_g0=[1.0],
        outer_data=lambda p: np.atleast_2d(p)[:, 0])
    # v = u - x1 = 0: sup quotients vanish
    assert np.all(np.abs(rep.m) < 1e-10)


@pytest.mark.parametrize("a, off", [(0.3, 0.1), (0.7, 1.3), (0.123456789, 5.0)])
def test_boundary_modulus_exact_gradient_leaves_no_floor(a, off):
    # with the exact gradient, v = g - g(0) - a x1 cancels bit for bit; a central
    # difference (h = 1e-6) leaves max|m_k| between 5e-12 and 2e-10 here
    coeffs = np.array([a, 0.0])
    g = lambda p: off + np.atleast_2d(p) @ coeffs
    rep = measure_boundary_modulus(BoundaryGraph("zero"), k_max=12, n_grid=64,
                                   g=g, outer_data=g, grad_g0=coeffs[:-1])
    assert np.abs(rep.m).max() == 0.0


@pytest.mark.parametrize("op_name", sorted(CASCADE_OPERATORS))
@pytest.mark.parametrize("family", sorted(DILATION_GRAPHS))
def test_cascade_levels_equal_their_own_assembly(monkeypatch, family, op_name):
    # a dilation-invariant cascade solves every later level on the dilated first
    # level; each must be bitwise the level's own assembly and solve
    operator, stencil = CASCADE_OPERATORS[op_name]
    graph = BoundaryGraph(family, **DILATION_GRAPHS[family])
    real_solve = solver.solve
    units = []

    def checked(prob, system=None):
        sol = real_solve(prob, system=system)
        fresh = real_solve(GridProblem(prob.graph, prob.r, prob.h, prob.operator,
                                       prob.rhs, prob.dirichlet, stencil=prob.stencil))
        np.testing.assert_array_equal(sol.nodes, fresh.nodes)
        np.testing.assert_array_equal(sol.values, fresh.values)
        np.testing.assert_array_equal(sol.policy, fresh.policy)
        assert sol.residual == fresh.residual
        assert sol.iterations == fresh.iterations
        units.append(system.unit)
        return sol

    monkeypatch.setattr(harness, "solve", checked)
    _run_cascade(graph, operator, k_max=5, n_grid=32, r0=0.5,
                 outer_data=lambda p: 1.0 + 0.4 * p[:, 0] - 0.3 * p[:, 1] ** 2,
                 graph_data=lambda p: 0.1 + np.sin(5.0 * p[:, 0]),
                 rhs=lambda p: -1.0 - p[:, 0], stencil=stencil)
    assert units == [4.0 ** j for j in range(5)]


@pytest.mark.parametrize("graph, calls", [(BoundaryGraph("cone", L=0.2), 1),
                                          (BoundaryGraph("sinusoid", A=0.05, k=4.0), 7)])
def test_cascade_assembles_and_factors_once_when_dilation_invariant(monkeypatch, graph,
                                                                     calls):
    counts = {"discretize": 0, "splu": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    discretize = counted("discretize", solver.discretize)
    monkeypatch.setattr(solver, "discretize", discretize)
    monkeypatch.setattr(harness, "discretize", discretize)
    monkeypatch.setattr(solver, "splu", counted("splu", solver.splu))
    rep = measure_growth(graph, k_max=7, n_grid=32)
    assert len(rep.ks) == 7
    assert counts == {"discretize": calls, "splu": calls}


def test_deep_cone_cascade_keeps_every_node(monkeypatch):
    real_solve = solver.solve
    nodes = []

    def counted(prob, system=None):
        sol = real_solve(prob, system=system)
        nodes.append(len(sol.values))
        return sol

    monkeypatch.setattr(harness, "solve", counted)
    rep = measure_growth(BoundaryGraph("cone", L=0.2), k_max=30, n_grid=64)
    assert rep.radii[-1] == 0.5 * 2.0 ** -30
    assert len(nodes) == 30 and len(set(nodes)) == 1


def test_deep_cone_cascade_meets_the_sector_exponent():
    # measured rel. error of the fitted exponent at n_grid = 128: -3.04% at
    # k_max = 7, -0.31% at k_max = 20, -0.18% at k_max = 26
    L = 0.2
    rep = measure_growth(BoundaryGraph("cone", L=L), k_max=20, n_grid=128)
    exact = np.pi / (np.pi - 2.0 * np.arctan(L)) - 1.0
    rel = abs(rep.exponent - exact) / exact
    assert rel <= 0.004, (rep.exponent, exact, rel)


def test_boundary_modulus_cone_slope_bound():
    cal = load_calibration()
    L = 0.2
    g = BoundaryGraph("cone", L=L)
    rep = measure_boundary_modulus(g, k_max=6, n_grid=64, grad_g0=[0.0])
    slope, _ = fit_log_slope(rep.radii, rep.m)
    assert slope >= -cal.C_envelope * L


def test_diagnostic_sequences_flat_and_cone():
    ks, eps, c, d = diagnostic_sequences(BoundaryGraph("zero"), 2.0, 0.5, 6)
    np.testing.assert_allclose(eps, 0.0)
    np.testing.assert_allclose(c, 1.0)
    np.testing.assert_allclose(d, 0.0)

    L, C0, A = 0.1, 2.0, 0.5
    ks, eps, c, d = diagnostic_sequences(BoundaryGraph("cone", L=L), C0, A, 6)
    np.testing.assert_allclose(eps, C0 * L, rtol=1e-9)
    want = (1.0 - A * C0 * L) ** np.arange(len(ks))
    np.testing.assert_allclose(c, want, rtol=1e-9)
    # product lower bound from the proof: c_k >= 4^(-A sum eps_j)
    sums = np.concatenate([[0.0], np.cumsum(eps[:-1])])
    assert np.all(c >= 4.0 ** (-A * sums) - 1e-12)


def test_diagnostic_sequences_dini_limit_positive():
    g = BoundaryGraph("c1model", omega=power(0.5, 0.2, 1.0))
    ks, eps, c, d = diagnostic_sequences(g, 2.0, 0.5, 12)
    assert np.all(np.diff(c) <= 1e-15)
    assert c[-1] > 0.05                 # converges to a positive limit
    assert c[-1] / c[-2] > c[1] / c[0]  # decay rate slows as eps_k shrinks


def test_diagnostic_sequences_forcing_terms():
    g = BoundaryGraph("zero")
    wf = power(1.0, 1.0, 1.0)
    wg = power(0.5, 1.0, 1.0)
    ks, eps, c, d = diagnostic_sequences(g, 1.0, 1.0, 4, omega_f=wf, omega_g=wg,
                                         C_hat=3.0)
    t = 2.0 ** (-ks.astype(float) - 1)
    np.testing.assert_allclose(d, np.sqrt(t) + 3.0 * t, rtol=1e-12)


def test_dyadic_sum_integral_comparability():
    # for nondecreasing omega:  integral/ln 2 <= sum <= integral/ln 2 + omega(2^-k0)
    for w in (constant(0.3, 2.0), power(0.5, 1.0, 2.0), log_modulus(1.0)):
        s, integral = dyadic_sum_and_integral(w, 2, 10)
        lo = integral / np.log(2.0)
        assert lo - 1e-12 <= s <= lo + float(w(2.0 ** -2)) + 1e-12
