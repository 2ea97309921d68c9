import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import brentq, nnls
from scipy.sparse.linalg import splu

from boundarylab import (
    BoundaryGraph, ConvergenceError, DomainError, EllipticityPair, FixedOp, GridProblem,
    LaplaceOp, MonotonicityError, PucciOp, abp_check, discretize, power, solve, solver,
)
from boundarylab.solver import _DIRECTIONS, _cut_fractions, _decompose_spd, _operator_weights

R = 0.5
ZERO = lambda p: np.zeros(len(np.atleast_2d(p)))


def _harmonic(p):
    p = np.atleast_2d(p)
    return np.exp(p[:, 0]) * np.sin(p[:, 1])


def _stencil(system):
    """The stencil a system assembled: the 5-point one, or a wider one."""
    return "standard5" if system.n_dir == 2 else "wide"


def _identity_field(x):
    return np.tile(np.eye(2), (len(x), 1, 1))


def test_grid_geometry_checks():
    g = BoundaryGraph("zero")
    with pytest.raises(DomainError):
        GridProblem(g, 0.5, 10, LaplaceOp(), ZERO, ZERO)  # h > r/16
    with pytest.raises(DomainError):
        GridProblem(BoundaryGraph("zero", dim=3), 0.5, 100, LaplaceOp(), ZERO, ZERO)


# n used to be derived from h = 2r/n: n = 0 ended in a ZeroDivisionError, a
# negative n in "no interior grid nodes", and NaN or a negative r passed
@pytest.mark.parametrize("r, n, message", [
    (0.5, 0, "got n=0"), (0.5, -64, "got n=-64"), (0.5, 31, "got n=31"),
    (0.5, 64.0, "got n=64.0"), (0.5, True, "got n=True"),
    (float("nan"), 64, "got r=nan"), (-0.5, 64, "got r=-0.5"),
], ids=["n-zero", "n-negative", "n-31", "n-float", "n-true", "r-nan", "r-negative"])
def test_grid_problem_names_a_bad_cell_count_or_radius(r, n, message):
    with pytest.raises(DomainError, match=message):
        GridProblem(BoundaryGraph("zero"), r, n, LaplaceOp(), ZERO, ZERO)


def test_grid_problem_takes_a_numpy_cell_count():
    prob = GridProblem(BoundaryGraph("zero"), 0.3, np.int64(48), LaplaceOp(), ZERO, ZERO)
    assert type(prob.n) is int and prob.n == 48 and prob.h == 2 * 0.3 / 48


def test_linear_exactness_with_cut_cells():
    lin = lambda p: 1.0 + 0.3 * np.atleast_2d(p)[:, 0] + 0.7 * np.atleast_2d(p)[:, 1]
    # the flat case at r = 0.4, n = 64 sends segments through the
    # no-crossing branch of the cut search (s = 1)
    for fam, kw, r, n in [("cone", {"L": 0.2}, R, 48),
                          ("sinusoid", {"A": 0.05, "k": 4.0}, R, 48),
                          ("zero", {}, 0.4, 64)]:
        g = BoundaryGraph(fam, **kw)
        sol = solve(GridProblem(g, r, n, LaplaceOp(), ZERO, lin))
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
    """Every node-to-outside segment along the eight lattice directions."""
    sys_ = discretize(GridProblem(graph, r, n, LaplaceOp(), ZERO, ZERO))
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

    sys_ = discretize(GridProblem(BoundaryGraph("cone", L=0.2), R, 32,
                                  PucciOp(EllipticityPair(1.0, 2.0), "minus"), ZERO, data))
    assert calls == [(len(sys_.boundary_points), 2)]
    # a scalar return is broadcast; any other shape is rejected
    sys_ = discretize(GridProblem(BoundaryGraph("zero"), R, 32, LaplaceOp(), ZERO,
                                  lambda p: 2.0))
    np.testing.assert_array_equal(sys_.boundary_values, 2.0)
    with pytest.raises(DomainError):
        discretize(GridProblem(BoundaryGraph("zero"), R, 32, LaplaceOp(), ZERO,
                               lambda p: p))


def test_harmonic_convergence_order():
    g = BoundaryGraph("cone", L=0.2)
    errs = []
    for n in (32, 64, 128):
        sol = solve(GridProblem(g, R, n, LaplaceOp(), ZERO, _harmonic))
        errs.append(np.abs(sol.values - _harmonic(sol.nodes)).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.5)


def test_monotonicity_certificate():
    g = BoundaryGraph("zero")
    sys_ = discretize(GridProblem(g, R, 32, LaplaceOp(), ZERO, ZERO))
    assert sys_.certificate["monotone"]
    assert sys_.certificate["min_direction_weight"] >= 0.0


def test_fixed_offdiagonal_needs_wide_stencil():
    # a12 != 0 puts weight on the diagonal (1, 1), outside the 5-point
    # stencil: the system assembles it, and the scheme is exact on quadratics
    g = BoundaryGraph("zero")
    A = np.array([[1.0, 0.4], [0.4, 1.0]])
    prob = GridProblem(g, R, 32, FixedOp(A=lambda x: A),
                       lambda p: np.full(len(p), 2.0 * (A[0, 0] - A[1, 1] + A[0, 1])),
                       lambda p: p[:, 0] ** 2 - p[:, 1] ** 2 + p[:, 0] * p[:, 1])
    sys_ = discretize(prob)
    assert sys_.n_dir == 3
    sol = solve(prob, sys_)
    assert np.abs(sol.values - prob.dirichlet(sol.nodes)).max() < 1e-9
    # an indefinite matrix has no nonnegative split over the eight directions
    indefinite = np.array([[1.0, 1.2], [1.2, 1.0]])
    with pytest.raises(MonotonicityError, match="eight lattice directions"):
        discretize(GridProblem(g, R, 32, FixedOp(A=lambda x: indefinite), ZERO, ZERO))


@pytest.mark.parametrize("operator, n_dir", [
    (LaplaceOp(), 2),
    (FixedOp(A=lambda x: np.diag([1.5, 1.0])), 2),
    (FixedOp(A=lambda x: np.array([[1.0, 0.3], [0.3, 1.5]])), 3),
    (PucciOp(EllipticityPair(1.0, 2.0), "minus"), 4),
    (PucciOp(EllipticityPair(1.0, 8.0), "minus"), 8),
    (FixedOp(A=_identity_field), 8),
])
def test_assembled_directions_follow_the_operator(operator, n_dir):
    # only the directions some policy weights are assembled, cut and
    # evaluated; a per-node field keeps all eight
    sys_ = discretize(GridProblem(_SIN, R, 32, operator, ZERO, ZERO))
    assert sys_.n_dir == sys_.alphas.shape[-1] == n_dir
    assert sys_.D.shape == (sys_.m * n_dir, sys_.m) and sys_.c.shape == (sys_.m * n_dir,)
    assert sys_.direction_values(np.zeros(sys_.m)).shape == (sys_.m, n_dir)
    if n_dir < 8:
        assert sys_.alphas.any(axis=(0, 1)).all()
    # the cut points are those of the assembled directions, which lead
    # _DIRECTIONS here: a prefix of the cut points of all eight
    full = discretize(GridProblem(_SIN, R, 32, FixedOp(A=_identity_field), ZERO, ZERO))
    np.testing.assert_array_equal(sys_.boundary_points,
                                  full.boundary_points[: len(sys_.boundary_points)])
    assert (len(sys_.boundary_points) < len(full.boundary_points)) == (n_dir < 8)


def test_fixed_eigenvalue_range_enforced():
    g = BoundaryGraph("zero")
    A = np.diag([0.5, 3.0])
    op = FixedOp(A=lambda x: A, E=EllipticityPair(1.0, 2.0))
    with pytest.raises(DomainError):
        solve(GridProblem(g, R, 32, op, ZERO, ZERO))


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
        solve(GridProblem(g, R, 32, FixedOp(A=A, E=EllipticityPair(1.0, 2.0)),
                          ZERO, ZERO))
    # without the range check the same field is admissible
    solve(GridProblem(g, R, 32, FixedOp(A=A), ZERO, ZERO))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("E", [None, EllipticityPair(1.0, 2.0)], ids=["no-range", "range"])
def test_a_non_finite_coefficient_names_its_node_and_entry(value, E):
    # A(x) holds value in its (1, 0) entry only at the grid node (1/4, 1/8);
    # it used to pass discretize without a range, and end in "matrix is not
    # symmetric" with one
    g = BoundaryGraph("zero")

    def A(x):
        out = np.tile(np.diag([1.0, 1.5]), (len(x), 1, 1))
        out[np.isclose(x, [0.25, 0.125]).all(axis=1), 1, 0] = value
        return out

    with pytest.raises(DomainError, match=r"A\(\[0\.25 +0\.125\]\) has the non-finite "
                                          rf"entry A\[1\]\[0\] = {value}"):
        discretize(GridProblem(g, R, 32, FixedOp(A=A, E=E), ZERO, ZERO))
    # a constant matrix is named at the first node
    const = np.array([[1.0, value], [value, 1.0]])
    with pytest.raises(DomainError, match=r"non-finite entry A\[0\]\[1\]"):
        discretize(GridProblem(g, R, 32, FixedOp(A=lambda x: const, E=E), ZERO, ZERO))


@pytest.mark.parametrize("stencil", ["standard5", "wide"])
def test_identity_field_is_the_laplacian(stencil):
    # a linear operator is the one-policy case of policy iteration; the
    # identity as one shared matrix assembles the 5-point stencil, as a
    # per-node field all eight directions, and either solves as the Laplacian
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    f = lambda p: -1.0 + np.atleast_2d(p)[:, 0]
    field = {"standard5": lambda x: np.eye(2), "wide": _identity_field}[stencil]
    probs = [GridProblem(g, R, 48, op, f, _harmonic)
             for op in (LaplaceOp(), FixedOp(A=field))]
    systems = [discretize(prob) for prob in probs]
    assert [_stencil(s) for s in systems] == ["standard5", stencil]
    sols = [solve(prob, s) for prob, s in zip(probs, systems)]
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

    def counted(A):
        calls.append(A)
        return _decompose_spd(A)

    monkeypatch.setattr("boundarylab.solver._decompose_spd", counted)
    sys_ = discretize(GridProblem(BoundaryGraph("zero"), R, 32, FixedOp(A=field),
                                  ZERO, ZERO))
    assert len(calls) == 2
    # each node carries the weights of its own matrix, over all eight directions
    expect = np.stack([_decompose_spd(A1 if x[0] < 0 else A2) for x in sys_.nodes])
    np.testing.assert_array_equal(sys_.alphas, expect[None])


def _decompose_spd_reference(A, dirs):
    """The closed-form split as two mirrored branches, then the nnls fallback."""
    a11, a22, a12 = A[0, 0], A[1, 1], A[0, 1]
    alpha = np.zeros(len(dirs))
    if abs(a12) <= min(a11, a22) + 1e-14:
        if a12 >= 0:
            if (1, 1) in dirs or a12 == 0:
                alpha[dirs.index((1, 0))] = a11 - a12
                alpha[dirs.index((0, 1))] = a22 - a12
                if a12 > 0:
                    alpha[dirs.index((1, 1))] = 2 * a12
                return alpha
        elif (1, -1) in dirs:
            alpha[dirs.index((1, 0))] = a11 + a12
            alpha[dirs.index((0, 1))] = a22 + a12
            alpha[dirs.index((1, -1))] = -2 * a12
            return alpha
    B = np.empty((3, len(dirs)))
    for m, v in enumerate(dirs):
        vv = np.asarray(v, dtype=float)
        vv /= np.linalg.norm(vv)
        B[:, m] = [vv[0] ** 2, vv[1] ** 2, vv[0] * vv[1]]
    target = np.array([a11, a22, a12])
    sol, res = nnls(B, target)
    if res > 1e-10 * max(np.linalg.norm(target), 1.0):
        raise MonotonicityError("no nonnegative decomposition")
    return sol


@pytest.mark.parametrize("n_dir", [2, 8])
def test_decompose_spd_matches_the_two_branch_split_bitwise(n_dir):
    # the split is over all eight directions; with n_dir = 2 it is checked on
    # the matrices the axis pair (the 5-point stencil) splits, a12 = +-0,
    # which keep that split with no weight elsewhere
    dirs = _DIRECTIONS[:n_dir]
    diag = [-0.0, 0.0, 1e-15, 0.3, 1.0, 2.5]
    off = [-3.0, -1.0, -0.3, -1e-15, -0.0, 0.0, 1e-15, 0.3, 1.0, 3.0]

    def outcome(fn, A):
        try:
            alpha = fn(A)
        except MonotonicityError:
            return "no decomposition"
        return np.pad(alpha, (0, len(_DIRECTIONS) - len(alpha))).tobytes()

    for a11 in diag:
        for a22 in diag:
            for a12 in off if n_dir == 8 else [-0.0, 0.0]:
                A = np.array([[a11, a12], [a12, a22]])
                ref = outcome(lambda A: _decompose_spd_reference(A, dirs), A)
                assert outcome(_decompose_spd, A) == ref, A


@pytest.mark.parametrize("E, stencil, count", [
    ((1.0, 1.0 + 1e-6), "wide", 10),
    ((1.0, 1.0 + 1e-6), "standard5", 4),
    ((1.0, 2.0), "wide", 10),
    ((1.0, 1.0), "wide", 1),
    ((100.0, 100.0), "wide", 1),
    ((1.0, 1.0 + 1e-15), "wide", 10),
    ((1.0, 1.0 + 1e-15), "standard5", 4),
])
def test_pucci_policy_count(E, stencil, count):
    # lam I, Lam I and the two mixed matrices of each orthogonal direction
    # pair, even when they differ only by rounding; lam = Lam leaves lam I.
    # Only the four of the axis pair weigh no direction beyond the 5-point stencil
    alphas, _ = _operator_weights(PucciOp(EllipticityPair(*E), "minus"), np.zeros((1, 2)))
    if stencil == "standard5":
        alphas = alphas[~alphas[:, 0, 2:].any(axis=1)]
    assert alphas.shape[0] == count
    if E[0] == E[1]:
        want = np.zeros(alphas.shape[-1])
        want[:2] = E[0]
        np.testing.assert_array_equal(alphas[0, 0], want)


def _pucci_weights_reference(E, sign, n_dir):
    """Reference weights: a loop over orthogonal frames that merges the
    matrices agreeing to 1e-14 Lam in every entry."""
    dirs = _DIRECTIONS[:n_dir]
    frames = [(0, 1), (2, 3), (4, 5), (6, 7)]
    lam, Lam = E.lam, E.Lam
    pols = []
    n_frames = 1 if E.is_laplacian else len(dirs) // 2
    for fi in range(n_frames):
        vi, wi = frames[fi]
        v = np.asarray(dirs[vi], dtype=float); v /= np.linalg.norm(v)
        u = np.asarray(dirs[wi], dtype=float); u /= np.linalg.norm(u)
        for a in (lam, Lam):
            for b in (lam, Lam):
                A = a * np.outer(v, v) + b * np.outer(u, u)
                if not any(np.allclose(A, M, rtol=0, atol=1e-14 * Lam) for M in pols):
                    pols.append(A)
    mats = np.stack(pols)[:, None]
    distinct, inverse = np.unique(mats.reshape(-1, 4), axis=0, return_inverse=True)
    alphas = np.stack([_decompose_spd_reference(a.reshape(2, 2), dirs) for a in distinct])
    return (alphas[inverse.ravel()].reshape(mats.shape[:2] + (len(dirs),)),
            "min" if sign == "minus" else "max")


@pytest.mark.parametrize("stencil", ["standard5", "wide"])
@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_pucci_weights_match_the_frame_loop_bitwise(stencil, sign):
    # lam = Lam, and ratios at which the reference merge keeps the mixed
    # matrices apart (Lam / lam - 1 >= 1e-12).  The reference over the axis
    # pair (the 5-point stencil) builds the axis frame alone: its policies
    # lead the set, with no weight beyond the axes
    Es = [(1.0, 1.0), (100.0, 100.0), (1.0, 1.0 + 1e-12), (1.0, 1.0 + 1e-6),
          (0.3, 7.0), (2.0, 3.0), (1.0, 2.0), (1.0, 8.0)]
    n_dir = {"standard5": 2, "wide": 8}[stencil]
    for lam, Lam in Es:
        E = EllipticityPair(lam, Lam)
        alphas, sense = _operator_weights(PucciOp(E, sign), np.zeros((1, 2)))
        ref, ref_sense = _pucci_weights_reference(E, sign, n_dir)
        assert sense == ref_sense
        head = alphas[: len(ref)]
        assert head[..., :n_dir].shape == ref.shape, (lam, Lam)
        assert head[..., :n_dir].tobytes() == ref.tobytes(), (lam, Lam)
        assert not head[..., n_dir:].any()
        if stencil == "wide":
            assert len(alphas) == len(ref)


@pytest.mark.parametrize("stencil", ["standard5", "wide"])
@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_pucci_at_a_rounding_ratio_solves_as_the_laplacian(stencil, sign):
    # E = (1, 1 + 1e-15) keeps every distinct extremal matrix; they agree
    # to rounding, so the solve is bitwise the one of E = (1, 1), which is the
    # Laplacian's, assembled on the 5-point stencil or, as a per-node
    # identity field, on all eight directions
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    f = lambda p: -np.ones(len(np.atleast_2d(p)))
    laplacian = LaplaceOp() if stencil == "standard5" else FixedOp(A=_identity_field)
    sols = [solve(GridProblem(g, R, 64, op, f, ZERO))
            for op in (laplacian, PucciOp(EllipticityPair(1.0, 1.0), sign),
                       PucciOp(EllipticityPair(1.0, 1.0 + 1e-15), sign))]
    for sol in sols[1:]:
        assert sol.values.tobytes() == sols[0].values.tobytes()
        assert sol.residual == sols[0].residual


_SIN = BoundaryGraph("sinusoid", A=0.05, k=4.0)
_E12 = EllipticityPair(1.0, 2.0)


def _varying_field(x):
    # off-diagonal up to 0.9 against a11 >= 1: the diagonal directions carry weight
    A = np.empty((len(x), 2, 2))
    A[:, 0, 0] = 1.0 + 0.5 * x[:, 0] ** 2
    A[:, 0, 1] = A[:, 1, 0] = 0.9 * np.cos(3.0 * x[:, 1])
    A[:, 1, 1] = 1.5
    return A


@pytest.mark.parametrize("operator", [
    PucciOp(EllipticityPair(1.0, 2.0), "minus"),
    PucciOp(EllipticityPair(1.0, 8.0), "plus"),
    FixedOp(A=_varying_field),
], ids=["pucci-4-directions", "pucci-8-directions", "field"])
def test_frozen_matrix_equals_the_per_direction_sum(operator):
    # the reference is the per-direction algorithm: sum_d diag(alpha_d) D_d and
    # sum_d alpha_d c_d, one direction at a time from the node-major row slices
    data = lambda p: 1.0 + 0.4 * p[:, 0] - 0.3 * p[:, 1] ** 2
    sys_ = discretize(GridProblem(_SIN, R, 32, operator, ZERO, data))
    m, n_dir = sys_.m, sys_.n_dir
    rng = np.random.default_rng(3)
    # a random policy per node; a field has the one policy of its own weights
    per_node = np.broadcast_to(sys_.alphas, (len(sys_.alphas), m, n_dir))
    alpha = per_node[rng.integers(len(sys_.alphas), size=m), np.arange(m)]
    A, _, c, _ = sys_.frozen_matrix(alpha)
    D = [sys_.D[d::n_dir] for d in range(n_dir)]
    c_d = [sys_.c[d::n_dir] for d in range(n_dir)]
    ref_A = sparse.diags(alpha[:, 0]) @ D[0]
    ref_c = alpha[:, 0] * c_d[0]
    for d in range(1, n_dir):
        ref_A = ref_A + sparse.diags(alpha[:, d]) @ D[d]
        ref_c = ref_c + alpha[:, d] * c_d[d]
    assert A.nnz == ref_A.nnz
    np.testing.assert_array_equal(A.toarray(), ref_A.toarray())
    np.testing.assert_array_equal(c, ref_c)
    u = rng.standard_normal(m)
    np.testing.assert_array_equal(sys_.direction_values(u),
                                  np.stack([sys_.unit * (D[d] @ u + c_d[d])
                                            for d in range(n_dir)], axis=1))


# (graph, operator, rhs, dirichlet) of every kind of frozen matrix: a
# Laplace cone cascade level, a FixedOp field, Pucci M- and M+ rounds on the
# axes and diagonals (E = (1, 2)) and on all eight directions (E = (1, 8))
FACTOR_CASES = {
    "laplace-cone": (BoundaryGraph("cone", L=0.2), LaplaceOp(), ZERO,
                     lambda p: 1.0 + 0.4 * p[:, 0] - 0.3 * p[:, 1] ** 2),
    "fixed-wide": (_SIN, FixedOp(A=_varying_field), lambda p: -1.0 - p[:, 0], _harmonic),
    **{f"pucci_{sign}-{name}": (_SIN, PucciOp(E, sign), lambda p: -np.ones(len(p)), _harmonic)
       for sign in ("minus", "plus")
       for name, E in (("wide", _E12), ("E18", EllipticityPair(1.0, 8.0)))},
}


@pytest.mark.parametrize("case", sorted(FACTOR_CASES))
def test_frozen_matrices_factor_with_diagonal_pivots(monkeypatch, case):
    # every frozen-policy M-matrix is factored with its pivots on the
    # diagonal in single-column supernodes, fills in as much as with
    # SuperLU's default supernodes and less than scipy's default splu, and
    # solves as the latter does
    graph, operator, rhs, dirichlet = FACTOR_CASES[case]
    prob = GridProblem(graph, R, 64, operator, rhs, dirichlet)
    factors = []

    def recorded(A, **kwargs):
        lu = splu(A, **kwargs)
        factors.append((A, lu, kwargs))
        return lu

    monkeypatch.setattr("scipy.sparse.linalg.splu", recorded)
    sol = solve(prob)
    monkeypatch.setattr("scipy.sparse.linalg.splu", lambda A, **kwargs: splu(A))
    default = solve(prob)
    assert len(factors) == sol.iterations
    u_smooth = dirichlet(sol.nodes)
    for A, lu, kwargs in factors:
        assert kwargs["relax"] == 1 and kwargs["panel_size"] == 1
        relaxed = splu(A, **{k: v for k, v in kwargs.items() if k not in ("relax", "panel_size")})
        np.testing.assert_array_equal(lu.perm_c, relaxed.perm_c)
        assert lu.L.nnz + lu.U.nnz == relaxed.L.nnz + relaxed.U.nnz
        ref = splu(A)
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
        assert lu.L.nnz + lu.U.nnz < ref.L.nnz + ref.U.nnz
        u, u_ref = lu.solve(A @ u_smooth), ref.solve(A @ u_smooth)
        assert np.abs(u - u_ref).max() <= 1e-13 * np.abs(u).max()
    np.testing.assert_array_equal(sol.policy, default.policy)
    assert sol.iterations == default.iterations
    assert np.abs(sol.values - default.values).max() <= 1e-13 * np.abs(sol.values).max()


@pytest.mark.parametrize("operator", [
    LaplaceOp(), FixedOp(A=lambda x: np.array([[1.0, 0.3], [0.3, 1.5]])),
    FixedOp(A=_varying_field), PucciOp(EllipticityPair(2.0, 2.0), "plus")],
    ids=["laplace", "fixed", "field", "pucci-lam-eq-Lam"])
def test_a_single_policy_solve_is_one_linear_solve(monkeypatch, operator):
    # one policy is optimal everywhere: the solve ends after its first LU
    # solve and residual check, and never evaluates a policy's operator value
    solves = []

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            solves.append(len(b))
            return self.lu.solve(b)

    def no_selection(self, u):
        raise AssertionError("a single policy needs no policy selection")

    prob = GridProblem(_SIN, R, 32, operator, lambda p: -1.0 - p[:, 0], _harmonic)
    want = solve(prob)
    monkeypatch.setattr("scipy.sparse.linalg.splu", lambda A, **kw: Counted(splu(A, **kw)))
    monkeypatch.setattr(solver._DiscreteSystem, "direction_values", no_selection)
    sol = solve(prob)
    assert len(solves) == 1 and sol.iterations == 1
    assert not sol.policy.any()
    np.testing.assert_array_equal(sol.values, want.values)
    assert sol.residual == want.residual


@pytest.mark.parametrize("operator", [LaplaceOp(), PucciOp(_E12, "minus")],
                         ids=["laplace", "pucci"])
def test_a_nan_datum_fails_the_certificate(operator):
    # a NaN residual fails the final check, so u = NaN is never returned
    nan = lambda p: np.full(len(p), np.nan)
    prob = GridProblem(BoundaryGraph("cone", L=0.2), R, 32, operator, ZERO, nan)
    with pytest.raises(ConvergenceError):
        solve(prob)


@pytest.mark.parametrize("operator, stencil", [(LaplaceOp(), "standard5"),
                                               (PucciOp(_E12, "minus"), "wide")])
def test_zero_data_meet_the_scale_free_certificate(operator, stencil):
    # the residual tolerance has no absolute floor: zero data give a zero
    # tolerance, which u = 0 with residual 0 meets
    prob = GridProblem(_SIN, R, 32, operator, ZERO, ZERO)
    sys_ = discretize(prob)
    assert _stencil(sys_) == stencil
    sol = solve(prob, sys_)
    assert not sol.values.any() and sol.residual == 0.0


def test_pucci_sign_is_checked():
    E = EllipticityPair(1.0, 2.0)
    for sign in ("minus", "plus"):
        assert PucciOp(E, sign).sign == sign
    with pytest.raises(DomainError, match="minus-typo"):
        PucciOp(E, "minus-typo")


def test_pucci_collapses_to_laplacian():
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    lam = 2.0
    f = lambda p: -np.ones(len(np.atleast_2d(p)))
    sol_lap = solve(GridProblem(g, R, 64, LaplaceOp(),
                                lambda p: f(p) / lam, ZERO))
    for sign in ("minus", "plus"):
        op = PucciOp(EllipticityPair(lam, lam), sign)
        sol_p = solve(GridProblem(g, R, 64, op, f, ZERO))
        assert np.abs(sol_p.values - sol_lap.values).max() <= 1e-10


def test_pucci_ordering_and_iteration():
    g = BoundaryGraph("zero")
    E = EllipticityPair(1.0, 2.0)
    f = lambda p: -np.ones(len(np.atleast_2d(p)))
    lo = solve(GridProblem(g, R, 48, PucciOp(E, "minus"), f, ZERO))
    hi = solve(GridProblem(g, R, 48, PucciOp(E, "plus"), f, ZERO))
    # for concave solutions (f = -1) the M+ equation needs curvature -1/lam,
    # the M- equation only -1/Lam, so the plus solution dominates
    assert np.all(hi.values >= lo.values - 1e-12)
    assert lo.iterations >= 1 and hi.iterations >= 1


def test_comparison_principle():
    g = BoundaryGraph("cone", L=0.1)
    g1 = lambda p: np.atleast_2d(p)[:, 1] + 0.5
    g2 = lambda p: np.atleast_2d(p)[:, 1] + 0.6
    s1 = solve(GridProblem(g, R, 48, LaplaceOp(), ZERO, g1))
    s2 = solve(GridProblem(g, R, 48, LaplaceOp(), ZERO, g2))
    assert np.all(s2.values >= s1.values - 1e-13)


def test_determinism():
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    E = EllipticityPair(1.0, 3.0)
    f = lambda p: -np.ones(len(np.atleast_2d(p)))
    a = solve(GridProblem(g, R, 32, PucciOp(E, "minus"), f, ZERO))
    b = solve(GridProblem(g, R, 32, PucciOp(E, "minus"), f, ZERO))
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.policy, b.policy)


def test_dilated_cone_keeps_every_node():
    # the cone is dilation invariant and every grid coordinate scales by a power
    # of two, so the scaled problem is the same problem down to the last bit
    g = BoundaryGraph("cone", L=0.2)

    def scaled(R):
        data = lambda p: p[:, 1] / (2 * R)
        return solve(GridProblem(g, R, 128, LaplaceOp(), ZERO, data))

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
        return GridProblem(graph, r, n, op, ZERO, data)

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
    A, _, c, _ = dil.frozen_matrix(alpha)
    A_fresh, _, c_fresh, _ = fresh.frozen_matrix(alpha)
    assert (dil.unit * A != A_fresh).nnz == 0
    np.testing.assert_array_equal(dil.unit * c, c_fresh)
    # forcing enters in the dilated system's units: a solve on it is bitwise
    # a fresh solve, through policy iteration and through the one shared LU
    forced = lambda p: -1.0 - p[:, 0]
    for operator in (op, LaplaceOp()):
        big, small = (GridProblem(g, r, 32, operator, forced, data) for r in (R, R / 8))
        got, want = solve(small, system=discretize(big).dilated(small)), solve(small)
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.policy, want.policy)
        assert (got.residual, got.iterations) == (want.residual, want.iterations)
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
    sol = solve(GridProblem(g, R, 32, LaplaceOp(), ZERO, lin))
    pts = np.array([[0.1, 0.2], [-0.2, 0.15], [0.0, 0.33]])
    np.testing.assert_allclose(sol.interpolate(pts, fill=lambda q: lin(q)),
                               lin(pts), atol=1e-12)


def test_interpolate_fills_only_the_corners_it_reads():
    # a callable fill is evaluated once, on the distinct non-interior corners
    # of the touched cells; the result is bitwise the full-grid fill's
    g = BoundaryGraph("cone", L=0.2)
    sol = solve(GridProblem(g, R, 32, LaplaceOp(), ZERO, _harmonic))
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
    sol = solve(GridProblem(g, R, 48, LaplaceOp(), ZERO, data))
    rep = abp_check(sol)
    assert rep.max_principle_exact
    assert rep.forcing_norm == 0.0


def test_abp_bound_with_forcing():
    g = BoundaryGraph("zero")
    f = lambda p: -np.ones(len(np.atleast_2d(p)))
    consts = []
    for n in (48, 96):
        rep = abp_check(solve(GridProblem(g, R, n, LaplaceOp(), f, ZERO)))
        assert rep.max_interior > 0
        consts.append(rep.bound_constant)
    assert abs(consts[1] - consts[0]) <= 0.1 * consts[0]
