import numpy as np
import pytest
from scipy.optimize import brentq

from boundarylab import (
    BoundaryGraph, DomainError, EllipticityPair, FixedOp, GridProblem,
    LaplaceOp, MonotonicityError, PucciOp, abp_check, discretize, power, solve,
)
from boundarylab.solver import _DIRECTIONS, _cut_fractions, _decompose_spd

R = 0.5
ZERO = lambda p: np.zeros(len(np.atleast_2d(p)))


def _harmonic(p):
    p = np.atleast_2d(p)
    return np.exp(p[:, 0]) * np.sin(p[:, 1])


def test_grid_geometry_checks():
    g = BoundaryGraph("zero")
    with pytest.raises(DomainError):
        GridProblem(g, 0.5, 0.1, LaplaceOp(), ZERO, ZERO)  # h > r/16
    with pytest.raises(DomainError):
        GridProblem(BoundaryGraph("zero", dim=3), 0.5, 0.01, LaplaceOp(), ZERO, ZERO)


def test_linear_exactness_with_cut_cells():
    lin = lambda p: 1.0 + 0.3 * np.atleast_2d(p)[:, 0] + 0.7 * np.atleast_2d(p)[:, 1]
    # the flat case at r = 0.4, n = 64 sends segments through the
    # no-crossing branch of the cut search (s = 1)
    for fam, kw, r, n in [("cone", {"L": 0.2}, R, 48),
                          ("sinusoid", {"A": 0.05, "k": 4.0}, R, 48),
                          ("zero", {}, 0.4, 64)]:
        g = BoundaryGraph(fam, **kw)
        sol = solve(GridProblem(g, r, 2 * r / n, LaplaceOp(), ZERO, lin))
        assert np.abs(sol.values - lin(sol.nodes)).max() < 1e-12


def _cut_fraction_reference(graph, r, x, w, samples=64):
    """Scalar first exit of x + s w: circle root, sign scan, then brentq."""
    cands = []
    a, b, c = w @ w, 2.0 * (x @ w), x @ x - r * r
    disc = b * b - 4 * a * c
    if disc >= 0:
        s_ball = (-b + np.sqrt(disc)) / (2 * a)
        if 0 < s_ball <= 1 + 1e-12:
            cands.append(min(s_ball, 1.0))
    psi = lambda s: x[1] + s * w[1] - float(graph.gamma(np.array([x[0] + s * w[0]])))
    ss = np.linspace(0.0, 1.0, samples + 1)
    vals = np.array([psi(s) for s in ss])
    neg = np.nonzero(vals <= 0)[0]
    if neg.size:
        i = neg[0]
        cands.append(ss[i] if vals[i] == 0.0 else brentq(psi, ss[i - 1], ss[i], xtol=1e-14))
    return max(min(cands), 1e-10) if cands else None


def _cut_segments(graph, r, n):
    """Every node-to-outside segment along the eight wide-stencil directions."""
    sys_ = discretize(GridProblem(graph, r, 2 * r / n, LaplaceOp(), ZERO, ZERO,
                                  stencil="wide"))
    h = sys_.problem.h
    ii, jj = np.nonzero(sys_.ids >= 0)
    X0, W = [], []
    for v in _DIRECTIONS:
        for sgn in (1, -1):
            ni, nj = ii + sgn * v[0], jj + sgn * v[1]
            ok = (ni >= 0) & (ni <= n) & (nj >= 0) & (nj <= n)
            out = ~ok
            out[ok] = sys_.ids[ni[ok], nj[ok]] < 0
            X0.append(sys_.nodes[out])
            W.append(np.tile([sgn * v[0] * h, sgn * v[1] * h], (out.sum(), 1)))
    return np.concatenate(X0), np.concatenate(W)


@pytest.mark.parametrize("fam, kw, r, n", [
    ("zero", {}, 0.4, 64),
    ("linear", {"a": [0.3]}, R, 32),
    ("cone", {"L": 0.2}, R, 32),
    ("c1model", {"omega": power(0.5, 1.0, 1.0)}, 0.4, 32),
    ("sinusoid", {"A": 0.05, "k": 4.0}, R, 32),
    ("table", {"ts": np.linspace(-1, 1, 9), "values": 0.1 * np.sin(3 * np.linspace(-1, 1, 9))},
     R, 32),
])
def test_batched_cut_fractions_match_scalar_reference(fam, kw, r, n):
    g = BoundaryGraph(fam, **kw)
    X0, W = _cut_segments(g, r, n)
    s = _cut_fractions(g, r, X0, W)
    ref = [_cut_fraction_reference(g, r, x, w) for x, w in zip(X0, W)]
    found = np.array([v is not None for v in ref])
    np.testing.assert_allclose(s[found], [v for v in ref if v is not None], rtol=0, atol=1e-13)
    np.testing.assert_array_equal(s[~found], 1.0)
    if fam == "zero":
        assert (~found).sum() > 0     # the no-crossing branch is exercised


def test_dirichlet_called_once_per_discretize():
    calls = []

    def data(p):
        calls.append(p.shape)
        return p[:, 1]

    sys_ = discretize(GridProblem(BoundaryGraph("cone", L=0.2), R, 2 * R / 32,
                                  PucciOp(EllipticityPair(1.0, 2.0), "minus"), ZERO, data,
                                  stencil="wide"))
    assert calls == [(len(sys_.boundary_points), 2)]
    # a scalar return is broadcast; any other shape is rejected
    sys_ = discretize(GridProblem(BoundaryGraph("zero"), R, 2 * R / 32, LaplaceOp(), ZERO,
                                  lambda p: 2.0))
    np.testing.assert_array_equal(sys_.boundary_values, 2.0)
    with pytest.raises(DomainError):
        discretize(GridProblem(BoundaryGraph("zero"), R, 2 * R / 32, LaplaceOp(), ZERO,
                               lambda p: p))


def test_harmonic_convergence_order():
    g = BoundaryGraph("cone", L=0.2)
    errs = []
    for n in (32, 64, 128):
        sol = solve(GridProblem(g, R, 2 * R / n, LaplaceOp(), ZERO, _harmonic))
        errs.append(np.abs(sol.values - _harmonic(sol.nodes)).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.5)


def test_monotonicity_certificate():
    g = BoundaryGraph("zero")
    sys_ = discretize(GridProblem(g, R, 2 * R / 32, LaplaceOp(), ZERO, ZERO))
    assert sys_.certificate["monotone"]
    assert sys_.certificate["min_direction_weight"] >= 0.0


def test_fixed_offdiagonal_needs_wide_stencil():
    g = BoundaryGraph("zero")
    A = np.array([[1.0, 0.4], [0.4, 1.0]])
    op = FixedOp(A=lambda x: A)
    with pytest.raises(MonotonicityError):
        solve(GridProblem(g, R, 2 * R / 32, op, ZERO, ZERO, stencil="standard5"))
    # wide stencil accepts the same operator
    u = lambda p: np.atleast_2d(p)[:, 0] ** 2 - np.atleast_2d(p)[:, 1] ** 2
    f = lambda p: np.full(len(np.atleast_2d(p)), 2.0 * A[0, 0] - 2.0 * A[1, 1])
    sol = solve(GridProblem(g, R, 2 * R / 32, op, f, u, stencil="wide"))
    assert np.abs(sol.values - u(sol.nodes)).max() < 1e-9


def test_fixed_eigenvalue_range_enforced():
    g = BoundaryGraph("zero")
    A = np.diag([0.5, 3.0])
    op = FixedOp(A=lambda x: A, E=EllipticityPair(1.0, 2.0))
    with pytest.raises(DomainError):
        solve(GridProblem(g, R, 2 * R / 32, op, ZERO, ZERO, stencil="wide"))


def test_fixed_eigenvalue_range_enforced_at_one_node():
    # A(x) leaves [1, 2] only at the grid nodes (1/4, 1/8) and, later in node
    # order, (3/8, 1/4); h = 1/32.  The first is named.
    g = BoundaryGraph("zero")

    def A(x):
        out = np.tile(np.diag([1.0, 1.5]), (len(x), 1, 1))
        for bad in ([0.25, 0.125], [0.375, 0.25]):
            out[np.isclose(x, bad).all(axis=1), 0, 0] = 3.0
        return out

    with pytest.raises(DomainError, match=r"A\(\[0\.25 +0\.125\]\)"):
        solve(GridProblem(g, R, 2 * R / 32, FixedOp(A=A, E=EllipticityPair(1.0, 2.0)),
                          ZERO, ZERO, stencil="wide"))
    # without the range check the same field is admissible
    solve(GridProblem(g, R, 2 * R / 32, FixedOp(A=A), ZERO, ZERO, stencil="wide"))


@pytest.mark.parametrize("stencil", ["standard5", "wide"])
def test_identity_field_is_the_laplacian(stencil):
    # a linear operator is the one-policy case of policy iteration
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    f = lambda p: -1.0 + np.atleast_2d(p)[:, 0]
    sols = [solve(GridProblem(g, R, 2 * R / 48, op, f, _harmonic, stencil=stencil))
            for op in (LaplaceOp(), FixedOp(A=lambda x: np.eye(2)))]
    np.testing.assert_array_equal(sols[1].values, sols[0].values)
    for sol in sols:
        assert sol.iterations == 1
        assert sol.policy.dtype.kind == "i" and sol.policy.shape == sol.values.shape
        assert not sol.policy.any()


def test_fixed_field_decomposes_each_distinct_matrix_once(monkeypatch):
    A1 = np.array([[2.0, 1.1], [1.1, 1.0]])     # needs the nnls fallback
    A2 = np.array([[1.0, 0.2], [0.2, 1.5]])
    field = lambda x: np.where((x[:, 0] < 0)[:, None, None], A1, A2)
    calls = []

    def counted(A, dirs):
        calls.append(A)
        return _decompose_spd(A, dirs)

    monkeypatch.setattr("boundarylab.solver._decompose_spd", counted)
    sys_ = discretize(GridProblem(BoundaryGraph("zero"), R, 2 * R / 32, FixedOp(A=field),
                                  ZERO, ZERO, stencil="wide"))
    assert len(calls) == 2
    # each node carries the weights of its own matrix
    expect = np.stack([_decompose_spd(A1 if x[0] < 0 else A2, _DIRECTIONS)
                       for x in sys_.nodes])
    np.testing.assert_array_equal(sys_.alphas, expect[None])


def test_pucci_collapses_to_laplacian():
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    lam = 2.0
    f = lambda p: -np.ones(len(np.atleast_2d(p)))
    sol_lap = solve(GridProblem(g, R, 2 * R / 64, LaplaceOp(),
                                lambda p: f(p) / lam, ZERO))
    for sign in ("minus", "plus"):
        op = PucciOp(EllipticityPair(lam, lam), sign)
        sol_p = solve(GridProblem(g, R, 2 * R / 64, op, f, ZERO, stencil="wide"))
        assert np.abs(sol_p.values - sol_lap.values).max() <= 1e-10


def test_pucci_ordering_and_iteration():
    g = BoundaryGraph("zero")
    E = EllipticityPair(1.0, 2.0)
    f = lambda p: -np.ones(len(np.atleast_2d(p)))
    lo = solve(GridProblem(g, R, 2 * R / 48, PucciOp(E, "minus"), f, ZERO, stencil="wide"))
    hi = solve(GridProblem(g, R, 2 * R / 48, PucciOp(E, "plus"), f, ZERO, stencil="wide"))
    # for concave solutions (f = -1) the M+ equation needs curvature -1/lam,
    # the M- equation only -1/Lam, so the plus solution dominates
    assert np.all(hi.values >= lo.values - 1e-12)
    assert lo.iterations >= 1 and hi.iterations >= 1


def test_comparison_principle():
    g = BoundaryGraph("cone", L=0.1)
    g1 = lambda p: np.atleast_2d(p)[:, 1] + 0.5
    g2 = lambda p: np.atleast_2d(p)[:, 1] + 0.6
    s1 = solve(GridProblem(g, R, 2 * R / 48, LaplaceOp(), ZERO, g1))
    s2 = solve(GridProblem(g, R, 2 * R / 48, LaplaceOp(), ZERO, g2))
    assert np.all(s2.values >= s1.values - 1e-13)


def test_determinism():
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    E = EllipticityPair(1.0, 3.0)
    f = lambda p: -np.ones(len(np.atleast_2d(p)))
    a = solve(GridProblem(g, R, 2 * R / 32, PucciOp(E, "minus"), f, ZERO, stencil="wide"))
    b = solve(GridProblem(g, R, 2 * R / 32, PucciOp(E, "minus"), f, ZERO, stencil="wide"))
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.policy, b.policy)


def test_dilated_cone_keeps_every_node():
    # the cone is dilation invariant and every grid coordinate scales by a power
    # of two, so the scaled problem is the same problem down to the last bit
    g = BoundaryGraph("cone", L=0.2)

    def scaled(R):
        data = lambda p: p[:, 1] / (2 * R)
        return solve(GridProblem(g, R, 2 * R / 128, LaplaceOp(), ZERO, data))

    ref = scaled(R)
    for k in (10, 20, 24, 30):
        sol = scaled(R * 2.0 ** -k)
        np.testing.assert_array_equal(sol.nodes, ref.nodes * 2.0 ** -k)
        np.testing.assert_array_equal(sol.values, ref.values)


def test_dilated_system_is_the_assembly_of_the_dilated_problem():
    g = BoundaryGraph("cone", L=0.2)
    op = PucciOp(EllipticityPair(1.0, 2.0), "minus")
    data = lambda p: 1.0 + np.sin(5.0 * p[:, 0]) + p[:, 1]

    def prob(r, graph=g, n=32):
        return GridProblem(graph, r, 2 * r / n, op, ZERO, data, stencil="wide")

    base = discretize(prob(R))
    small = prob(R / 8)
    dil, fresh = base.dilated(small), discretize(small)
    assert dil.unit == 64.0 and base.unit == 1.0
    for name in ("nodes", "xs", "boundary_points", "boundary_values"):
        np.testing.assert_array_equal(getattr(dil, name), getattr(fresh, name))
    # direction values are in the dilated problem's own units
    u = np.random.default_rng(3).standard_normal(dil.m)
    np.testing.assert_array_equal(dil.direction_values(u), fresh.direction_values(u))
    alpha = np.broadcast_to(dil.alphas[1], (dil.m, dil.alphas.shape[2]))
    A, _, c = dil.frozen_matrix(alpha)
    A_fresh, _, c_fresh = fresh.frozen_matrix(alpha)
    assert (dil.unit * A != A_fresh).nnz == 0
    np.testing.assert_array_equal(dil.unit * c, c_fresh)
    # a graph that is not dilation invariant, a ratio that is not a power of
    # two, or another grid is refused
    sin = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    for other in (prob(R / 3), prob(R / 8, n=64)):
        with pytest.raises(DomainError):
            base.dilated(other)
    with pytest.raises(DomainError):
        discretize(prob(R, sin)).dilated(prob(R / 2, sin))


def test_interpolation_and_grid_values():
    g = BoundaryGraph("zero")
    lin = lambda p: np.atleast_2d(p)[:, 1]
    sol = solve(GridProblem(g, R, 2 * R / 32, LaplaceOp(), ZERO, lin))
    pts = np.array([[0.1, 0.2], [-0.2, 0.15], [0.0, 0.33]])
    np.testing.assert_allclose(sol.interpolate(pts, fill=lambda q: lin(q)),
                               lin(pts), atol=1e-12)


def test_interpolate_fills_only_the_corners_it_reads():
    # a callable fill is evaluated once, on the distinct non-interior corners
    # of the touched cells; the result is bitwise the full-grid fill's
    g = BoundaryGraph("cone", L=0.2)
    sol = solve(GridProblem(g, R, 2 * R / 32, LaplaceOp(), ZERO, _harmonic))
    pts = np.array([[0.0, 0.3], [0.1, 0.06], [-0.2, 0.05], [0.45, 0.2], [0.1, 0.06]])
    seen = []

    def fill(q):
        seen.append(q)
        return _harmonic(q)

    got = sol.interpolate(pts, fill=fill)
    assert len(seen) == 1
    ids, xs = sol._ids, sol._xs
    i, j = np.rint((seen[0] - xs[0]) / sol.h).astype(int).T
    np.testing.assert_array_equal(seen[0], np.stack([xs[i], xs[j]], axis=-1))
    assert np.all(ids[i, j] < 0)
    assert 0 < len(set(zip(i, j))) == len(i) <= 4 * 4
    full = _harmonic(np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2))
    full = full.reshape(ids.shape)
    full[ids >= 0] = sol.values
    fi, fj = ((pts - xs[0]) / sol.h).T
    a, b = np.floor(fi).astype(int), np.floor(fj).astype(int)
    tx, ty = fi - a, fj - b
    ref = ((1 - tx) * (1 - ty) * full[a, b] + tx * (1 - ty) * full[a + 1, b]
           + (1 - tx) * ty * full[a, b + 1] + tx * ty * full[a + 1, b + 1])
    np.testing.assert_array_equal(got, ref)
    # the point (0, 0.3) lies inside: no fill at all
    seen.clear()
    sol.interpolate(pts[:1], fill=fill)
    assert seen == []


def test_abp_max_principle_exact():
    g = BoundaryGraph("cone", L=0.2)
    data = lambda p: np.cos(3.0 * np.atleast_2d(p)[:, 0]) + np.atleast_2d(p)[:, 1]
    sol = solve(GridProblem(g, R, 2 * R / 48, LaplaceOp(), ZERO, data))
    rep = abp_check(sol)
    assert rep.max_principle_exact
    assert rep.forcing_norm == 0.0


def test_abp_bound_with_forcing():
    g = BoundaryGraph("zero")
    f = lambda p: -np.ones(len(np.atleast_2d(p)))
    consts = []
    for n in (48, 96):
        rep = abp_check(solve(GridProblem(g, R, 2 * R / n, LaplaceOp(), f, ZERO)))
        assert rep.max_interior > 0
        consts.append(rep.bound_constant)
    assert abs(consts[1] - consts[0]) <= 0.1 * consts[0]
