import numpy as np
import pytest
from scipy.sparse.linalg import splu

from boundarylab import (
    BoundaryGraph, ConvergenceError, DomainError, EllipticityPair, FixedOp, GridProblem,
    LaplaceOp, PucciOp, constant, harness, load_calibration,
    measure_boundary_modulus, measure_growth, power, solve, solver,
)
from boundarylab.harness import _run_cascade, envelope_lower, envelope_upper, fit_log_slope

ZERO_DATA = lambda p: np.zeros(len(p))
DILATION_GRAPHS = {"cone": {"L": 0.2}, "zero": {}, "linear": {"a": 0.15}}


def _rotating_field(x):
    # a per-node field: each level recomputes its weights on the dilated nodes
    t = np.arctan2(x[:, 1], x[:, 0])
    A = np.empty((len(x), 2, 2))
    A[:, 0, 0] = 1.5 + 0.5 * np.cos(2 * t)
    A[:, 1, 1] = 1.5 - 0.5 * np.cos(2 * t)
    A[:, 0, 1] = A[:, 1, 0] = 0.5 * np.sin(2 * t)
    return A


# each operator with the number of lattice directions it assembles: the
# 5-point stencil for the Laplacian, more for the others
CASCADE_OPERATORS = {
    "laplace-standard5": (LaplaceOp(), 2),
    "fixed-wide": (FixedOp(A=lambda x: np.array([[1.0, 0.3], [0.3, 1.5]])), 3),
    "pucci_minus-wide": (PucciOp(EllipticityPair(1.0, 2.0), "minus"), 4),
    "field-wide": (FixedOp(A=_rotating_field), 8),
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
        measure_growth(BoundaryGraph("zero"), k_max=2, n_grid=32, outer_data=bad_data)


def test_cascade_starts_on_the_working_radius():
    graph = BoundaryGraph("cone", L=0.2, chart_radius=0.3)
    rep = measure_growth(graph, k_max=4, n_grid=32)
    assert graph.working_radius == 0.3
    assert rep.radii[0] == graph.working_radius / 2


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


@pytest.mark.parametrize("a, off", [(1.0, 0.0), (0.3, 0.1), (0.7, 1.3), (0.123456789, 5.0)])
def test_boundary_modulus_subtracts_linear_data_exactly(a, off):
    # with the exact gradient, g - g(0) - a x1 cancels bit for bit: the cascade
    # is the one with zero graph data and circle data 1 - (g(0) + a x1)
    coeffs = np.array([a, 0.0])
    g = lambda p: off + np.atleast_2d(p) @ coeffs
    graph = BoundaryGraph("zero")
    rep = measure_boundary_modulus(graph, k_max=12, n_grid=64, g=g, grad_g0=coeffs[:-1])
    ks, radii, q, m, res = _run_cascade(
        graph, LaplaceOp(), k_max=12, n_grid=64,
        outer_data=lambda p: 1.0 - (off + p[:, :-1] @ coeffs[:-1]),
        graph_data=lambda p: np.zeros(len(p)))
    np.testing.assert_array_equal(rep.radii, radii)
    np.testing.assert_array_equal(rep.q, q)
    np.testing.assert_array_equal(rep.m, m)
    np.testing.assert_array_equal(rep.residuals, res)


@pytest.mark.parametrize("op_name", sorted(CASCADE_OPERATORS))
@pytest.mark.parametrize("family", sorted(DILATION_GRAPHS))
def test_cascade_levels_equal_their_own_assembly(monkeypatch, family, op_name):
    # a dilation-invariant cascade solves every later level on the dilated first
    # level; each must be bitwise the level's own assembly and solve
    operator, n_dir = CASCADE_OPERATORS[op_name]
    graph = BoundaryGraph(family, **DILATION_GRAPHS[family])
    real_solve = solver.solve
    units = []

    def checked(prob, system=None):
        sol = real_solve(prob, system=system)
        fresh = real_solve(GridProblem(prob.graph, prob.r, prob.n, prob.operator,
                                       prob.rhs, prob.dirichlet))
        np.testing.assert_array_equal(sol.nodes, fresh.nodes)
        np.testing.assert_array_equal(sol.values, fresh.values)
        np.testing.assert_array_equal(sol.policy, fresh.policy)
        assert sol.residual == fresh.residual
        assert sol.iterations == fresh.iterations
        assert system.n_dir == n_dir
        units.append(system.unit)
        return sol

    monkeypatch.setattr(harness, "solve", checked)
    _run_cascade(graph, operator, k_max=5, n_grid=32,
                 outer_data=lambda p: 1.0 + 0.4 * p[:, 0] - 0.3 * p[:, 1] ** 2,
                 graph_data=lambda p: 0.1 + np.sin(5.0 * p[:, 0]))
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
    monkeypatch.setattr("scipy.sparse.linalg.splu", counted("splu", splu))
    rep = measure_growth(graph, k_max=7, n_grid=32)
    assert len(rep.ks) == 7
    assert counts == {"discretize": calls, "splu": calls}


_C1MODEL = BoundaryGraph("c1model", omega=power(0.5, 0.2))


@pytest.mark.parametrize("graph, builds, interpolations", [
    (BoundaryGraph("cone", L=0.2), 1, 5), (BoundaryGraph("linear", a=0.15), 1, 5),
    (_C1MODEL, 0, 9)], ids=["cone", "linear", "c1model"])
def test_cascade_transfer_is_bitwise_a_fresh_interpolation(monkeypatch, graph, builds,
                                                           interpolations):
    # a dilation-invariant cascade builds its level transfer once and gathers
    # it at every later level; c1model builds it in each level's interpolate.
    # Either way each level's circle data are bitwise a fresh interpolation
    # of the level before, nonzero fill corners included
    graph_data = lambda p: 0.1 + np.sin(5.0 * p[:, 0])
    counts = {"transfer": 0, "interpolate": 0}
    for name in counts:
        method = getattr(solver.GridSolution, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(solver.GridSolution, name, counted)
    real_solve = solver.solve
    levels = []

    def recorded(prob, system=None):
        sol = real_solve(prob, system=system)
        levels.append((prob, system, sol))
        return sol

    monkeypatch.setattr(harness, "solve", recorded)
    _run_cascade(graph, LaplaceOp(), k_max=5, n_grid=48, outer_data=lambda p: 1.0 + p[:, 1],
                 graph_data=graph_data)
    # one probe per level, plus the transfers that interpolate builds
    assert counts == {"transfer": interpolations + builds, "interpolate": interpolations}
    fills = []
    for (_, _, prev), (prob, system, _) in zip(levels, levels[1:]):
        pts = system.boundary_points
        on = harness._on_circle(pts, prob.r)
        fresh = prev.interpolate(pts[on], fill=lambda q: fills.append(len(q)) or graph_data(q))
        np.testing.assert_array_equal(system.boundary_values[on], fresh)
        np.testing.assert_array_equal(system.boundary_values[~on], graph_data(pts[~on]))
    assert len(fills) == 4 and min(fills) > 0


def test_boundary_modulus_equals_a_cold_level_by_level_cascade():
    # linear g on a cone: g - g(0) - a x1 = 0.7 L |x1| on the graph, and the
    # transfer reads it at four fill corners per level; each reference level
    # assembles and solves its own problem, with a per-level data closure
    coeffs = np.array([0.3, 0.7])
    g = lambda p: 0.2 + np.atleast_2d(p) @ coeffs
    graph = BoundaryGraph("cone", L=0.2)
    rep = measure_boundary_modulus(graph, k_max=6, n_grid=64, g=g, grad_g0=coeffs[:-1])
    affine = lambda p: 0.2 + p[:, :-1] @ coeffs[:-1]
    graph_data = lambda p: np.atleast_1d(g(p)) - affine(np.atleast_2d(p))
    fills = []
    fill = lambda p: fills.append(len(p)) or graph_data(p)
    prev, q, m, res = None, [], [], []
    for k in range(1, 7):
        R = 2.0 ** (-k + 1) * graph.working_radius

        def dirichlet(pts, _R=R, _prev=prev):
            out = np.empty(len(pts))
            on = np.abs(np.linalg.norm(pts, axis=-1) - _R) < 1e-9 * _R
            out[on] = (1.0 - affine(pts[on]) if _prev is None
                       else _prev.interpolate(pts[on], fill=fill))
            out[~on] = graph_data(pts[~on])
            return out

        prev = solve(GridProblem(graph, R, 64, LaplaceOp(), ZERO_DATA, dirichlet))
        r_k = R / 2.0
        q.append(prev.interpolate(np.array([[0.0, r_k]]), fill=graph_data)[0] / r_k)
        m.append(np.abs(prev.values[np.linalg.norm(prev.nodes, axis=-1) <= r_k]).max() / r_k)
        res.append(prev.residual)
    assert fills == [4] * 5
    np.testing.assert_array_equal(rep.q, q)
    np.testing.assert_array_equal(rep.m, m)
    np.testing.assert_array_equal(rep.residuals, res)


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


def test_residual_certificate_rejects_a_perturbed_deep_level(monkeypatch):
    # the solve tolerance scales with the level's own data: a level-30 solution
    # off by 1e-6 of max|u| must fail it (an absolute 1e-10 floor let it pass)
    real_solve = solver.solve
    levels = []

    def recorded(prob, system=None):
        sol = real_solve(prob, system=system)
        levels.append((prob, float(np.abs(sol.values).max())))
        return sol

    monkeypatch.setattr(harness, "solve", recorded)
    measure_growth(BoundaryGraph("cone", L=0.2), k_max=30, n_grid=64)
    prob, u_max = levels[-1]

    class Perturbed:
        # every solve is off by the same 1e-6 max|u|, which refinement cannot remove
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(b) + 1e-6 * u_max

    monkeypatch.setattr("scipy.sparse.linalg.splu", lambda A, **kw: Perturbed(splu(A, **kw)))
    with pytest.raises(ConvergenceError, match="solve residual"):
        real_solve(prob)


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
    rep = measure_boundary_modulus(g, k_max=6, n_grid=64, g=lambda p: np.zeros(len(p)),
                                   grad_g0=[0.0])
    slope, _ = fit_log_slope(rep.radii, rep.m)
    assert slope >= -cal.C_envelope * L
