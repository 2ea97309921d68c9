import numpy as np
import pytest

from boundarylab import BoundaryGraph, ConvergenceError, DomainError, QuadratureError, power
from boundarylab.barriers import sample_domain_points
from boundarylab.geometry import _radius
from boundarylab.pucci import sym_eigvals
from boundarylab import regdist
from boundarylab.regdist import (
    _QUAD_NODES, Mollifier, RegularizedDistanceField, _centred_rule, _nodes,
    check_distance_bounds,
)


def _fd_check(field, pts, d, grad, hess):
    """Cross-check grad/Hessian against central differences of d.

    Every offset of every point, +-h e_a and +-h e_a +-h e_b (a < b) with
    h = 1e-5 d, is evaluated in one batched inversion.
    """
    k, n = pts.shape
    eye = np.eye(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    units = np.array([s * eye[a] for a in range(n) for s in (1, -1)]
                     + [sa * eye[a] + sb * eye[b] for a, b in pairs for sa, sb in signs])
    h = 1e-5 * d
    z = (pts[:, None, :] + h[:, None, None] * units).reshape(-1, n)
    dv = field._solve_d(z[:, :-1], z[:, -1])[0].reshape(k, -1)
    fp, fm = dv[:, 0:2 * n:2], dv[:, 1:2 * n:2]
    cross = dv[:, 2 * n:].reshape(k, len(pairs), 4)
    fd_grad = (fp - fm) / (2 * h[:, None])
    fd_hess = np.empty((k, n, n))
    fd_hess[:, range(n), range(n)] = (fp - 2 * d[:, None] + fm) / h[:, None] ** 2
    for j, (a, b) in enumerate(pairs):
        pp, pm, mp, mm = cross[:, j].T
        fd_hess[:, a, b] = fd_hess[:, b, a] = (pp - pm - mp + mm) / (4 * h**2)
    grad_bad = ~np.isclose(fd_grad, grad, rtol=1e-3, atol=1e-9).all(axis=1)
    # second differences carry cancellation noise ~ eps * d / h^2
    noise = 100 * np.finfo(float).eps * d / h**2
    scale = np.maximum(np.maximum(np.abs(fd_hess).max(axis=(1, 2)),
                                  np.abs(hess).max(axis=(1, 2))), noise / 1e-3)
    diff = np.abs(fd_hess - hess).max(axis=(1, 2))
    bad = np.nonzero(grad_bad | (diff > 1e-3 * scale))[0]
    if bad.size:
        i = bad[0]
        if grad_bad[i]:
            raise QuadratureError(
                f"gradient cross-check failed at {pts[i]}: {grad[i]} vs FD {fd_grad[i]}"
            )
        raise QuadratureError(
            f"Hessian cross-check failed at {pts[i]}: |diff| = "
            f"{diff[i]:g} vs scale {scale[i]:g}"
        )


def _checked_all(field, y):
    """field.eval_all(y), cross-checked against central differences of d."""
    pts = np.atleast_2d(y)
    out = field.eval_all(pts)
    _fd_check(field, pts, *out)
    return out


def test_mollifier_normalized():
    for ds in (1, 2):
        m = Mollifier(ds)
        assert m.norm_certificate <= 1e-10
        # mass check at an independent order
        if ds == 1:
            x, w = np.polynomial.legendre.leggauss(300)
            assert w @ m.eta(np.abs(x)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(m.eta(np.array([0.0, 0.5, 0.99])) >= 0)
        assert m.eta(np.array([1.0]))[0] == 0.0
        assert m.eta(np.array([1.3]))[0] == 0.0


def _masked_bump(rho):
    """The bump with np.where masks at every step, as formed before the in-place path."""
    r = np.asarray(rho, dtype=float)
    inside = r < 1.0
    ig = 1.0 / np.where(inside, 1.0 - r * r, 1.0)
    f = np.where(inside, np.exp(-ig), 0.0)
    return f, f * (-2.0 * r * (ig * ig))


def test_in_place_bump_is_bitwise_the_masked_formula():
    rng = np.random.default_rng(8)
    rules = [_radius(_nodes(dim, c, 32)[0]) for dim, c in
             ((2, np.array([[0.0], [0.37]])), (3, np.array([[0.0, 0.0], [0.2, -0.5]])))]
    inside = [rng.uniform(0.0, 1.0, 4096), np.array([0.0, 0.5, np.nextafter(1.0, 0.0)]), *rules]
    mixed = [rng.uniform(0.0, 1.5, 4096), np.array([0.0, 1.0, 1.3, 0.99])]
    for rho in inside + mixed:
        for a, b in zip(regdist._bump(rho), _masked_bump(rho)):
            assert a.tobytes() == b.tobytes()
    # eta_derivs divides the bump by the normalization, bit for bit
    m = Mollifier(1)
    for a, b in zip(m.eta_derivs(inside[0]), _masked_bump(inside[0])):
        assert a.tobytes() == (b / m.normalization).tobytes()


def test_p_trivial_families():
    f0 = RegularizedDistanceField(BoundaryGraph("zero"))
    assert f0.eval_p(np.array([0.1, 0.2])) == pytest.approx(0.2, abs=1e-14)
    fl = RegularizedDistanceField(BoundaryGraph("linear", a=0.2))
    # even mollifier kills the linear term: p = a x' + s
    assert fl.eval_p(np.array([0.1, 0.2])) == pytest.approx(0.22, abs=1e-12)


def test_d_flat_and_linear_exact():
    f0 = RegularizedDistanceField(BoundaryGraph("zero"))
    y = np.array([[0.05, 0.3], [-0.2, 0.1]])
    assert np.abs(f0.eval_d(y) - y[:, 1]).max() < 1e-10
    fl = RegularizedDistanceField(BoundaryGraph("linear", a=0.2))
    y = np.array([[0.05, 0.3], [-0.1, 0.2]])
    gap = y[:, 1] - 0.2 * y[:, 0]
    assert np.abs(fl.eval_d(y) - gap).max() < 1e-10
    _, grad, hess = _checked_all(fl, y[0])
    np.testing.assert_allclose(grad[0], [-0.2, 1.0], atol=1e-9)
    assert np.abs(hess[0]).max() < 1e-8


def test_inverse_consistency():
    g = BoundaryGraph("cone", L=0.15)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.3, 50, np.random.default_rng(5))
    d = f.eval_d(pts)
    for i in range(len(pts)):
        p = f.eval_p(np.append(pts[i, :-1], d[i]))
        assert p == pytest.approx(pts[i, -1], abs=1e-12)


def test_grad_hess_fd_crosscheck_runs():
    # _fd_check raises on any disagreement beyond 1e-3 relative
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    f = RegularizedDistanceField(g)
    y = np.array([0.0, 0.1])
    _, grad, hess = _checked_all(f, y)
    grad, hess = grad[0], hess[0]
    assert grad.shape == (2,)
    assert np.allclose(hess, hess.T)


def test_fd_check_is_one_batched_inversion(monkeypatch):
    # one inversion for d, one for every offset of every point: 8 in 2-D, 18 in 3-D
    sizes = []
    solve_d = RegularizedDistanceField._solve_d

    def counted(self, xp, yn):
        sizes.append(len(yn))
        return solve_d(self, xp, yn)

    monkeypatch.setattr(RegularizedDistanceField, "_solve_d", counted)
    for dim, k, n_offsets in ((2, 6, 8), (3, 2, 18)):
        g = BoundaryGraph("cone", dim=dim, L=0.1)
        pts = sample_domain_points(g, 0.2, k, np.random.default_rng(2))
        sizes.clear()
        _checked_all(RegularizedDistanceField(g), pts)
        assert sizes == [k, k * n_offsets]


@pytest.mark.parametrize("wrong, message", [("hess", "Hessian"), ("grad", "gradient")])
def test_fd_check_names_the_failing_point(wrong, message):
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.3, 6, np.random.default_rng(4))
    d, grad, hess = _checked_all(f, pts)
    # point 3 fails first; a later failure of the other kind must not mask it
    if wrong == "hess":
        hess[3, 0, 0] += 1.0
        grad[5, 1] += 0.01
    else:
        grad[3, 0] += 0.01
        hess[5, 1, 1] += 1.0
    with pytest.raises(QuadratureError, match=message) as exc:
        _fd_check(f, pts, d, grad, hess)
    assert f"failed at {pts[3]}" in str(exc.value)


def test_three_bounds_with_calibrated_constant():
    from boundarylab import load_calibration
    cal = load_calibration()
    rng = np.random.default_rng(17)
    for fam, kw in [("cone", {"L": 0.1}), ("sinusoid", {"A": 0.05, "k": 4.0}),
                    ("c1model", {"omega": power(0.5, 0.2, 1.0)})]:
        g = BoundaryGraph(fam, **kw)
        f = RegularizedDistanceField(g)
        pts = sample_domain_points(g, 0.3, 300, rng)
        rep = check_distance_bounds(f, pts, cal.C_regdist_2d)
        assert rep.passed, (fam, rep.to_dict())


def test_c1model_hessian_vanishes_at_boundary():
    # d |D^2 d| -> 0 along the vertical axis for omega(0) = 0 domains
    g = BoundaryGraph("c1model", omega=power(0.5, 0.2, 1.0))
    f = RegularizedDistanceField(g)
    heights = 0.2 * 2.0 ** (-np.arange(6, dtype=float))
    vals = []
    for h in heights:
        y = np.array([0.0, h])
        d = f.eval_d(y)
        H = f.eval_all(y)[2][0]
        vals.append(d * np.abs(np.linalg.eigvalsh(H)).max())
    assert vals[-1] < 0.25 * vals[0]


def test_locality_of_table_modification():
    # changing the graph outside the mollifier support leaves d unchanged
    ts = np.linspace(-0.5, 0.5, 101)
    base = 0.02 * np.sin(6.0 * ts)
    g1 = BoundaryGraph("table", ts=ts, values=base)
    far = base + np.where(np.abs(ts) > 0.3, 0.05 * (np.abs(ts) - 0.3), 0.0)
    g2 = BoundaryGraph("table", ts=ts, values=far)
    f1 = RegularizedDistanceField(g1)
    f2 = RegularizedDistanceField(g2)
    y = np.array([0.0, 0.05])     # reads Gamma only on |x'| <= d << 0.3
    assert f1.eval_d(y) == f2.eval_d(y)


def test_3d_cone():
    g = BoundaryGraph("cone", dim=3, L=0.1)
    f = RegularizedDistanceField(g)
    y = np.array([0.02, -0.03, 0.1])
    d = f.eval_d(y)
    gap = 0.1 - 0.1 * np.hypot(0.02, 0.03)
    assert 0.8 * gap < d < 1.2 * gap
    _, grad, H = _checked_all(f, y)
    grad, H = grad[0], H[0]
    assert np.linalg.norm(grad) == pytest.approx(1.0, abs=0.3)
    assert np.allclose(H, H.T)


def test_chart_and_steepness_guards():
    with pytest.raises(DomainError):
        RegularizedDistanceField(BoundaryGraph("linear", a=0.3))
    f = RegularizedDistanceField(BoundaryGraph("zero"))
    with pytest.raises(DomainError):
        f.eval_p(np.array([0.4, 0.2]))    # |x'| + s beyond the working radius
    with pytest.raises(DomainError):
        f.eval_p(np.array([0.1, -0.01]))


def test_batch_table_columns():
    g = BoundaryGraph("cone", L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.25, 20, np.random.default_rng(0))
    tab = check_distance_bounds(f, pts, np.inf).columns
    assert tab.shape == (20, 6)
    np.testing.assert_allclose(tab[:, :2], pts)
    assert np.all(tab[:, 2] > 0)          # d
    assert np.all(np.abs(tab[:, 5] - 1.0) < 0.2)   # ratio near 1


def _max_rel(a, b):
    """max |a - b| over max |b|, per array (0 when both vanish)."""
    scale = np.abs(b).max()
    return np.abs(a - b).max() / scale if scale > 0 else np.abs(a).max()


# the kernels written out for each surface dimension m = n - 1:
# (grad eta, k1, k2) from (t, rho, eta, eta')
_KERNELS = {
    1: lambda t, rho, e, de: (np.sign(t) * de[:, None], -(e + rho * de), -(2.0 * e + rho * de)),
    2: lambda t, rho, e, de: (
        de[:, None] * np.divide(t, rho[:, None], out=np.zeros_like(t), where=rho[:, None] > 0),
        -2.0 * e - rho * de, -3.0 * e - rho * de),
}


def _p_derivs_elementwise(field, xp, s, order):
    """Reference: per-node products and sums over the nodes of _nodes, per point."""
    k, m = xp.shape
    out = {
        "p": np.empty(k), "px": np.empty((k, m)), "ps": np.empty(k),
        "pxx": np.empty((k, m, m)), "pxs": np.empty((k, m)), "pss": np.empty(k),
    }
    nodes, weights = _nodes(field.graph.dim, field._centre(xp, s), order)
    for i in range(k):
        T, W = nodes[i], weights[i]
        rho = np.linalg.norm(T, axis=-1)
        eta, deta_r = field.mollifier.eta_derivs(rho)
        grad_eta, k1, k2 = _KERNELS[m](T, rho, eta, deta_r)
        pts = xp[i][None, :] + s[i] * T
        g = field.graph.gamma(pts)
        dg = field.graph.jet(pts)[1]
        out["p"][i] = W @ (eta * g) + s[i]
        out["px"][i] = (W[:, None] * eta[:, None] * dg).sum(axis=0)
        tdg = (T * dg).sum(axis=-1)
        out["ps"][i] = 1.0 + W @ (eta * tdg)
        pxx = -(W[:, None, None] * grad_eta[:, :, None] * dg[:, None, :]).sum(axis=0) / s[i]
        out["pxx"][i] = 0.5 * (pxx + pxx.T)
        out["pxs"][i] = (W[:, None] * k1[:, None] * dg).sum(axis=0) / s[i]
        out["pss"][i] = W @ (k2 * tdg) / s[i]
    return out


@pytest.mark.parametrize("graph", [
    BoundaryGraph("cone", dim=3, L=0.1),
    BoundaryGraph("c1model", dim=3, omega=power(0.5, 0.2, 1.0)),
    BoundaryGraph("cone", L=0.1),
    BoundaryGraph("c1model", omega=power(0.5, 0.2, 1.0)),
    BoundaryGraph("sinusoid", A=0.05, k=4.0),
], ids=["cone-3d", "c1model-3d", "cone-2d", "c1model-2d", "sinusoid-2d"])
def test_p_derivs_2d_matches_elementwise_sums(graph):
    # one node rule and one moment kernel for n = 2 and n = 3
    f = RegularizedDistanceField(graph)
    xp = np.array([[0.02, -0.03], [-0.05, 0.01], [0.11, 0.07], [0.0, 0.0]])[:, :graph.dim - 1]
    s = np.array([0.08, 0.02, 0.06, 0.05])
    # the kink -x'/s lies inside the unit ball for rows 0 and 3, outside for 1 and 2;
    # on cone and c1model the rule splits (2-D) or centres (3-D) there
    assert list(np.linalg.norm(xp, axis=-1) < s) == [True, False, False, True]
    T, W = _nodes(graph.dim, f._centre(xp, s), 64)
    assert T.shape == (4, W.shape[1], graph.dim - 1)
    # the weights integrate 1 to the volume of the unit ball: 2 in 2-D, pi in 3-D
    assert np.allclose(W.sum(axis=1), {2: 2.0, 3: np.pi}[graph.dim])
    ref = _p_derivs_elementwise(f, xp, s, 64)
    got = f._moments(xp, s, f._centre(xp, s), 64)
    for key in ref:
        assert got[key].shape == ref[key].shape, key
        assert _max_rel(got[key], ref[key]) <= 1e-13, key


@pytest.mark.parametrize("dim", [2, 3])
def test_nodes_split_at_the_kink(dim):
    # the cone is linear on each panel (2-D) or ray (3-D) of a rule split at
    # the kink preimage -x'/s, so p and grad_x p converge at once; an unsplit
    # rule leaves an error near 1e-3 in grad_x p
    f = RegularizedDistanceField(BoundaryGraph("cone", dim=dim, L=0.1))
    xp = np.array([[0.02, -0.03], [0.0, 0.0]])[:, :dim - 1]
    s = np.array([0.08, 0.05])
    c = f._centre(xp, s)
    a, b = f._moments(xp, s, c, 64), f._moments(xp, s, c, 256)
    for key in ("p", "px"):
        assert _max_rel(a[key], b[key]) <= 1e-10, key


@pytest.mark.parametrize("graph, n", [
    (BoundaryGraph("cone", dim=3, L=0.1), 8),
    (BoundaryGraph("sinusoid", A=0.05, k=4.0), 8),
    (BoundaryGraph("cone", L=0.1), 150),
    (BoundaryGraph("c1model", omega=power(0.5, 0.2, 1.0)), 150),
], ids=["cone-3d", "sinusoid-2d", "cone-2d-blocks", "c1model-2d-blocks"])
def test_batch_agrees_with_point_by_point(graph, n):
    # each point leaves the inversion loop on its own residual, whatever its
    # block, and comes back in its input place
    f = RegularizedDistanceField(graph)
    pts = sample_domain_points(graph, 0.25, n, np.random.default_rng(5))
    d, grad, hess = f.eval_all(pts)
    if graph.dim == 3:
        inside = np.linalg.norm(pts[:, :-1], axis=-1) < d
        assert inside.any() and not inside.all()
    elif n > 8:
        # 2 * 64 nodes per point on the doubled rule, so blocks of 64 points:
        # the kinked points (|x'| < d) and the shared-rule ones each span two
        kinked = np.abs(pts[:, 0]) < d
        step = _QUAD_NODES // (4 * regdist.QUAD_ORDER)
        assert min(np.count_nonzero(kinked), np.count_nonzero(~kinked)) > step
    for i in range(len(pts)):
        di, gi, hi = f.eval_all(pts[i])
        assert abs(di[0] - d[i]) <= 1e-15 * d[i]
        assert _max_rel(gi[0], grad[i]) <= 1e-15
        assert _max_rel(hi[0], hess[i]) <= 1e-15


def _counted_inversions(monkeypatch):
    sizes = []
    solve_d = RegularizedDistanceField._solve_d

    def counted(self, xp, yn):
        sizes.append(len(yn))
        return solve_d(self, xp, yn)

    monkeypatch.setattr(RegularizedDistanceField, "_solve_d", counted)
    return sizes


def test_eval_all_inverts_a_new_or_changed_batch_again(monkeypatch):
    g = BoundaryGraph("cone", L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.25, 12, np.random.default_rng(4))
    sizes = _counted_inversions(monkeypatch)
    first = f.eval_all(pts)
    again = f.eval_all(pts.copy())
    assert sizes == [12]
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)
    f.eval_all(pts[:7])                          # a different batch
    assert sizes == [12, 7]
    f.eval_all(pts)                              # only the last batch is kept
    assert sizes == [12, 7, 12]
    pts[3, 1] *= 1.01                            # the same array, changed in place
    moved = f.eval_all(pts)
    assert sizes == [12, 7, 12, 12]
    assert moved[0][3] != first[0][3]
    # a batch that raises keeps nothing: it is inverted (and raises) again,
    # and the last good batch is still the one kept
    outside = np.array([[0.0, -0.1]])
    for _ in range(2):
        with pytest.raises(DomainError):
            f.eval_all(outside)
    assert sizes == [12, 7, 12, 12, 1, 1]
    np.testing.assert_array_equal(f.eval_all(pts)[0], moved[0])
    assert sizes == [12, 7, 12, 12, 1, 1]
    np.testing.assert_array_equal(moved[0], RegularizedDistanceField(g).eval_all(pts)[0])


def test_eval_all_returns_arrays_the_caller_owns():
    g = BoundaryGraph("sinusoid", A=0.05, k=4.0)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.25, 9, np.random.default_rng(6))
    expected = [a.copy() for a in RegularizedDistanceField(g).eval_all(pts)]
    for _ in range(3):                           # a miss, then two hits
        out = f.eval_all(pts)
        for a, b in zip(out, expected):
            np.testing.assert_array_equal(a, b)
            a[...] = np.nan                      # spoil what the caller got


def test_eval_all_reuses_newton_derivatives(monkeypatch):
    # the last Halley pass already holds the derivatives of p at d
    f = RegularizedDistanceField(BoundaryGraph("cone", dim=3, L=0.1))
    events = []
    solve_d = RegularizedDistanceField._solve_d
    p_derivs = RegularizedDistanceField._p_derivs

    def counted_solve(self, *args, **kwargs):
        out = solve_d(self, *args, **kwargs)
        events.append("solved")
        return out

    def counted_derivs(self, *args, **kwargs):
        events.append("p")
        return p_derivs(self, *args, **kwargs)

    monkeypatch.setattr(RegularizedDistanceField, "_solve_d", counted_solve)
    monkeypatch.setattr(RegularizedDistanceField, "_p_derivs", counted_derivs)
    f.eval_all(np.array([[0.02, -0.03, 0.1], [0.1, 0.05, 0.08]]))
    assert events.count("solved") == 1
    assert events[-1] == "solved" and "p" in events


def test_inversion_stays_inside_the_chart():
    g = BoundaryGraph("c1model", omega=power(0.5, 0.2, 1.0), chart_radius=0.3)
    f = RegularizedDistanceField(g)
    assert f.working_radius == 0.3
    # p(0.2, t) stays below 0.2 for every t <= 0.3 - 0.2, which eval_p rejects beyond
    with pytest.raises(DomainError):
        f.eval_p(np.array([0.2, 0.11]))
    outside = r"\|x'\| must stay below"
    # p(0.2, 0.1) < 0.13 < p(0.2, 0.125): the inverse lies just past the cap
    cases = [([0.2, 0.2], "leaves the chart"), ([0.2, 0.13], "leaves the chart"),
             ([0.3, 0.05], outside), ([-0.31, 0.1], outside)]
    for y, msg in cases:
        with pytest.raises(DomainError, match=msg):
            f.eval_d(np.array(y))
        with pytest.raises(DomainError, match=msg):
            f.eval_all(np.array(y))
    y = np.array([0.05, 0.1])
    assert f.eval_p(np.append(y[:1], f.eval_d(y))) == pytest.approx(0.1, abs=1e-12)


# the four points of test_p_derivs_2d_matches_elementwise_sums
_XP = np.array([[0.02, -0.03], [-0.05, 0.01], [0.11, 0.07], [0.0, 0.0]])
_S = np.array([0.08, 0.02, 0.06, 0.05])


@pytest.mark.parametrize("graph", [
    BoundaryGraph("cone", dim=3, L=0.1),
    BoundaryGraph("c1model", dim=3, omega=power(0.5, 0.2, 1.0)),
    BoundaryGraph("sinusoid", A=0.05, k=4.0),
], ids=["cone-3d", "c1model-3d", "sinusoid-2d"])
def test_pss_is_the_s_derivative_of_ps(graph):
    # measured: <= 9.9e-9; a kernel with (n+1) eta in place of n eta is off by
    # (ps - 1)/s, far beyond the bound
    f = RegularizedDistanceField(graph)
    xp = _XP[:, :graph.dim - 1]
    h = 1e-4 * _S
    plus, minus, at = (f._moments(xp, s, f._centre(xp, s), 64) for s in (_S + h, _S - h, _S))
    fd = (plus["ps"] - minus["ps"]) / (2 * h)
    assert _max_rel(at["pss"], fd) <= 1e-6


@pytest.mark.parametrize("graph, fine", [
    (BoundaryGraph("cone", dim=3, L=0.1), 200),
    (BoundaryGraph("c1model", dim=3, omega=power(0.5, 0.2, 1.0)), 200),
    (BoundaryGraph("cone", L=0.1), 400),
    (BoundaryGraph("sinusoid", A=0.05, k=4.0), 400),
], ids=["cone-3d", "c1model-3d", "cone-2d", "sinusoid-2d"])
def test_pss_matches_the_fine_order_reference(graph, fine):
    # the reference is the elementwise sum with this file's kernels, so a
    # wrong kernel in _moments fails too; measured at order 64: 2.0e-11 to
    # 8.5e-10, where the twice-integrated kernel against Gamma minus its
    # affine part gave 2.6e-9 to 1.9e-8
    f = RegularizedDistanceField(graph)
    xp = _XP[:, :graph.dim - 1]
    ref = _p_derivs_elementwise(f, xp, _S, fine)["pss"]
    assert _max_rel(f._moments(xp, _S, f._centre(xp, _S), 64)["pss"], ref) <= 2e-9


def test_inversion_brackets_without_quadrature(monkeypatch):
    # the Lipschitz bound brackets the root, so the first pass is already the
    # predictor's Halley pass at t = gap; from the predicted root the
    # working-order loop converges in 2.0 passes per point (2.6 from t = gap)
    g = BoundaryGraph("cone", dim=3, L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.25, 20, np.random.default_rng(0))
    s_first, evaluated = [], {}
    p_derivs, moments = RegularizedDistanceField._p_derivs, RegularizedDistanceField._moments

    def counted_derivs(self, xp, s, *args, **kwargs):
        if not s_first:
            s_first.append(s.copy())
        return p_derivs(self, xp, s, *args, **kwargs)

    def counted_moments(self, xp, s, c, order):
        evaluated[order] = evaluated.get(order, 0) + len(s)
        return moments(self, xp, s, c, order)

    monkeypatch.setattr(RegularizedDistanceField, "_p_derivs", counted_derivs)
    monkeypatch.setattr(RegularizedDistanceField, "_moments", counted_moments)
    f.eval_all(pts)
    np.testing.assert_array_equal(s_first[0], pts[:, -1] - g.gamma(pts[:, :-1]))
    assert evaluated.keys() == {regdist.PREDICT_ORDER, 2 * regdist.QUAD_ORDER}
    assert evaluated[regdist.PREDICT_ORDER] <= regdist.PREDICT_STEPS * len(pts)
    assert evaluated[2 * regdist.QUAD_ORDER] <= 2.0 * len(pts)


@pytest.mark.parametrize("graph", [
    BoundaryGraph("cone", L=0.2),
    BoundaryGraph("c1model", omega=power(0.5, 0.2, 1.0), sign=-1.0),
], ids=["convex-root-below-lo", "concave-root-above-hi"])
def test_root_outside_an_understated_bracket_raises(monkeypatch, graph):
    # a sampled L_global below the truth shrinks [gap/(1+L), gap/(1-L)] past
    # the root; the inversion must end in a typed error, never in a number
    f = RegularizedDistanceField(graph)
    y = np.array([0.0, 0.1])
    d = f.eval_d(y)
    monkeypatch.setattr(graph, "L_global", 1e-3)
    assert not 0.1 / (1 + 1e-3) <= d <= 0.1 / (1 - 1e-3)
    with pytest.raises(ConvergenceError, match="left its bracket"):
        f.eval_d(y)
    with pytest.raises(ConvergenceError, match="left its bracket"):
        f.eval_all(y)


@pytest.mark.parametrize("graph", [
    BoundaryGraph("cone", L=0.2),
    BoundaryGraph("c1model", omega=power(0.5, 0.2, 1.0), sign=-1.0),
], ids=["convex-root-below-lo", "concave-root-above-hi"])
def test_a_predicted_step_outside_the_bracket_is_dropped(monkeypatch, graph):
    # the predictor steps towards the true root; with the bracket understated
    # that step leaves (lo, hi), so it is dropped, not clipped: the working
    # order starts at t = gap, and the inversion ends in the typed error
    f = RegularizedDistanceField(graph)
    y = np.array([0.0, 0.1])
    passes = []
    p_derivs = RegularizedDistanceField._p_derivs

    def counted(self, xp, s, order):
        passes.append((order, s.tolist()))
        return p_derivs(self, xp, s, order)

    monkeypatch.setattr(RegularizedDistanceField, "_p_derivs", counted)
    f.eval_all(y)
    assert passes[0] == (regdist.PREDICT_ORDER, [0.1])
    assert passes[1][0] == 2 * regdist.QUAD_ORDER and passes[1][1] != [0.1]
    monkeypatch.setattr(graph, "L_global", 1e-3)
    passes.clear()
    with pytest.raises(ConvergenceError, match="left its bracket"):
        RegularizedDistanceField(graph).eval_all(y)
    assert passes[:2] == [(regdist.PREDICT_ORDER, [0.1]), (2 * regdist.QUAD_ORDER, [0.1])]


@pytest.mark.parametrize("graph", [
    BoundaryGraph("zero"),
    BoundaryGraph("linear", a=0.2),
    BoundaryGraph("cone", L=0.1),
], ids=["zero", "linear", "cone-2d-off-the-kink"])
def test_exact_cases_take_one_working_pass_at_the_gap(monkeypatch, graph):
    # where Gamma is affine on the mollifier support p(y', t) = t + Gamma(y'),
    # and the predictor's unit-mass p is exact too: no point moves off
    # t = gap, and one working-order pass meets the residual stop
    pts = sample_domain_points(graph, 0.3, 1000, np.random.default_rng(1))
    if graph.radial_kink:
        pts = pts[np.abs(pts[:, 0]) >= pts[:, 1] - graph.gamma(pts[:, :1])]
    gap = pts[:, 1] - graph.gamma(pts[:, :1])
    passes = {}
    p_derivs = RegularizedDistanceField._p_derivs

    def counted(self, xp, s, order):
        passes[order] = passes.get(order, 0) + len(s)
        return p_derivs(self, xp, s, order)

    monkeypatch.setattr(RegularizedDistanceField, "_p_derivs", counted)
    d = RegularizedDistanceField(graph).eval_all(pts)[0]
    assert d.tobytes() == gap.tobytes()
    assert passes == {regdist.PREDICT_ORDER: len(pts), 2 * regdist.QUAD_ORDER: len(pts)}


def test_d_is_the_working_order_root():
    # the regdist_3d distance batch: the last working-order pass starts from
    # the predicted root, so d is the root of the order-64 p to 1e-15, where
    # a pass started at t = gap stopped up to 9.5e-14 away; the reference is
    # three more Newton steps on the same p
    g = BoundaryGraph("cone", dim=3, L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.25, 100, np.random.default_rng(1))
    xp, yn = pts[:, :-1], pts[:, -1]
    d = f.eval_all(pts)[0]
    ref = d.copy()
    for _ in range(3):
        der = f._p_derivs(xp, ref, 2 * regdist.QUAD_ORDER)
        ref -= (der["p"] - yn) / der["ps"]
    assert np.abs(d - ref).max() <= 1e-15


def test_order_doubling_rejects_an_under_resolved_graph():
    # a sinusoid with k = 1000 has about 30 periods across the mollifier
    # support at s = 0.2: orders 32 and 64 disagree by 6e-5 relative in p at
    # (0.01, 0.2); with k = 300 and the same slope they agree to 4e-12
    pts = np.array([[0.01, 0.2], [0.05, 0.1]])
    f = RegularizedDistanceField(BoundaryGraph("sinusoid", A=2e-4, k=1000.0))
    for evaluate in (f.eval_d, f.eval_p):
        for y in (pts, pts[0]):
            with pytest.raises(QuadratureError, match="order-doubling"):
                evaluate(y)
    f = RegularizedDistanceField(BoundaryGraph("sinusoid", A=0.2 / 300, k=300.0))
    d = f.eval_d(pts)
    np.testing.assert_array_equal(d, f.eval_all(pts)[0])
    assert np.all(np.isfinite(f.eval_p(pts)))


def test_eval_d_certifies_the_last_halley_pass(monkeypatch):
    # eval_d makes eval_all's passes, the predictor's at PREDICT_ORDER and
    # then the working order's at 2 QUAD_ORDER, and one pass at QUAD_ORDER
    # over every point, at d; no pass at 2 QUAD_ORDER follows the loop
    g = BoundaryGraph("cone", L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.25, 40, np.random.default_rng(6))
    passes = []
    p_derivs = RegularizedDistanceField._p_derivs

    def counted(self, xp, s, order):
        passes.append((order, len(s)))
        return p_derivs(self, xp, s, order)

    monkeypatch.setattr(RegularizedDistanceField, "_p_derivs", counted)
    f.eval_all(pts)
    halley = passes.copy()
    predicted = [p for p in halley if p[0] == regdist.PREDICT_ORDER]
    working = halley[len(predicted):]
    assert predicted[0] == (regdist.PREDICT_ORDER, len(pts))
    assert working and all(order == 2 * regdist.QUAD_ORDER for order, _ in working)
    passes.clear()
    d = f.eval_d(pts)
    assert passes == halley + [(regdist.QUAD_ORDER, len(pts))]
    np.testing.assert_array_equal(d, f.eval_all(pts)[0])


def _moments_reference(f, xp, s, order):
    """_moments written out on the full per-point rule of _nodes: the same
    kernels and products, with no cache and no per-component loops."""
    n = f.graph.dim
    T, W = _nodes(n, f._centre(xp, s), order)
    rho = np.linalg.norm(T, axis=-1)
    eta, deta = f.mollifier.eta_derivs(rho)
    Wgrad = np.divide(W * deta, rho, out=np.zeros_like(rho), where=rho > 0)[..., None] * T
    k1 = -((n - 1) * eta + rho * deta)
    k2 = -(n * eta + rho * deta)
    pts = xp[:, None, :] + s[:, None, None] * T
    g = f.graph.gamma(pts)
    dg = f.graph.jet(pts)[1]
    tdg = (T * dg).sum(axis=-1)[..., None]
    We = (W * eta)[:, None, :]
    pxx = -(Wgrad.transpose(0, 2, 1) @ dg) / s[:, None, None]
    return {
        "p": (We @ g[..., None])[:, 0, 0] + s,
        "px": (We @ dg)[:, 0],
        "ps": 1.0 + (We @ tdg)[:, 0, 0],
        "pxx": 0.5 * (pxx + pxx.transpose(0, 2, 1)),
        "pxs": ((W * k1)[:, None, :] @ dg)[:, 0] / s[:, None],
        "pss": ((W * k2)[:, None, :] @ tdg)[:, 0, 0] / s,
    }


# batches whose rules are all centred at 0: a 3-D cone with every kink
# preimage -x'/s outside the unit disk, and a 2-D sinusoid (no kink)
_CENTRED = {
    "cone-3d": (BoundaryGraph("cone", dim=3, L=0.1),
                np.array([[0.05, -0.02], [-0.03, 0.08], [0.1, 0.1]]), np.array([0.04, 0.06, 0.1])),
    "sinusoid-2d": (BoundaryGraph("sinusoid", A=0.05, k=4.0),
                    np.linspace(-0.2, 0.2, 7)[:, None], np.linspace(0.01, 0.1, 7)),
}
# batches with kinks inside: 3-D cone points with |x'| < s (one 3-D point per
# block at order 64), and a 2-D cone whose 38 points with |x'| < s are kinked
# and whose other 112 use the shared rule
_KINKED = {
    "cone-3d": (BoundaryGraph("cone", dim=3, L=0.1),
                np.array([[0.01, 0.0], [0.0, -0.02], [0.02, 0.02]]), np.array([0.05, 0.05, 0.1])),
    "cone-2d": (BoundaryGraph("cone", L=0.1),
                np.linspace(-0.2, 0.2, 150)[:, None], np.full(150, 0.05)),
}


@pytest.mark.parametrize("case", ["centred-cone-3d", "centred-sinusoid-2d",
                                  "kinked-cone-3d", "kinked-cone-2d"])
def test_moments_match_the_per_point_rule_bitwise(case):
    kind, name = case.split("-", 1)
    graph, xp, s = (_CENTRED if kind == "centred" else _KINKED)[name]
    f = RegularizedDistanceField(graph)
    c = f._centre(xp, s)
    assert c.any() == (kind == "kinked")
    # the orders alternate, so a cache that ignores the order hands one the other's rule
    for order in (32, 64, 32):
        got, want = f._moments(xp, s, c, order), _moments_reference(f, xp, s, order)
        for key in want:
            assert got[key].shape == want[key].shape, (order, key)
            assert got[key].tobytes() == want[key].tobytes(), (order, key)


def test_centred_blocks_build_no_rule(monkeypatch):
    calls = []
    nodes = regdist._nodes

    def counted(dim, c, order):
        calls.append(len(c))
        return nodes(dim, c, order)

    monkeypatch.setattr(regdist, "_nodes", counted)
    for graph, xp, s in _CENTRED.values():
        f = RegularizedDistanceField(graph)
        f._p_derivs(xp, s, 64)
        calls.clear()
        f._p_derivs(xp, s, 64)
        assert calls == []
    # 2 * 64^2 nodes hold one 3-D point and 2 * 64 nodes 64 2-D points:
    # one rule per block of three, and on the 2-D cone one block of its 38
    # kinked points; its 112 shared-rule points build no rule
    for (graph, xp, s), blocks in zip(_KINKED.values(), ([1, 1, 1], [38])):
        assert np.count_nonzero(np.linalg.norm(xp, axis=-1) < s) == sum(blocks)
        f = RegularizedDistanceField(graph)
        calls.clear()
        f._p_derivs(xp, s, 64)
        assert calls == blocks


def test_moments_sample_the_graph_once_per_node(monkeypatch):
    # one jet call per block gives Gamma and grad Gamma; _moments makes no
    # gamma call of its own (jet reads Gamma from gamma off the radial families)
    calls, depth = [], []
    gamma, jet = BoundaryGraph.gamma, BoundaryGraph.jet

    def counted_gamma(self, xp):
        calls.append("gamma" if not depth else "jet:gamma")
        return gamma(self, xp)

    def counted_jet(self, xp):
        calls.append("jet")
        depth.append(1)
        try:
            return jet(self, xp)
        finally:
            depth.pop()

    monkeypatch.setattr(BoundaryGraph, "gamma", counted_gamma)
    monkeypatch.setattr(BoundaryGraph, "jet", counted_jet)
    for graph in (BoundaryGraph("cone", dim=3, L=0.1), BoundaryGraph("cone", L=0.1),
                  BoundaryGraph("c1model", omega=power(0.5, 0.2, 1.0)),
                  BoundaryGraph("sinusoid", A=0.05, k=4.0)):
        f = RegularizedDistanceField(graph)
        xp = _XP[:, :graph.dim - 1]
        calls.clear()
        f._moments(xp, _S, f._centre(xp, _S), 64)
        assert calls == (["jet"] if graph.radial_kink else ["jet", "jet:gamma"])


def test_2d_cone_off_the_kink_is_the_exact_distance():
    # where |y'| >= d the mollifier support misses the kink, so
    # p(y', t) = t + L |y'| and d = y_n - L |y'| with D^2 d = 0 exactly; on the
    # regdist-check sample (1000 points, r 0.3, seed 1) the shared rule gives
    # max |D^2 d| 3.2e-9 over those 486 points (median 5.6e-12), where the
    # one-panel rule of a centre clipped to +-1 gave 6.2e-7
    g = BoundaryGraph("cone", L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.3, 1000, np.random.default_rng(1))
    d, _, hess = f.eval_all(pts)
    off = np.abs(pts[:, 0]) >= d
    assert np.count_nonzero(off) == 486
    exact = pts[off, 1] - 0.1 * np.abs(pts[off, 0])
    assert np.all(np.abs(d[off] - exact) <= 1e-15 * exact)
    assert np.abs(sym_eigvals(hess[off])).max() <= 1e-8


@pytest.mark.parametrize("dim", [2, 3])
def test_centred_rule_is_read_only(dim):
    rule = _centred_rule(dim, 64)
    assert _centred_rule(dim, 64) is rule
    assert [a.shape[0] for a in rule] == [1] * 5
    for a in rule:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


def test_3d_cone_is_invariant_under_a_quarter_turn():
    # the cone is radial and the polar rule's 128 directions map onto
    # themselves under a quarter turn, centred or not
    g = BoundaryGraph("cone", dim=3, L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.25, 12, np.random.default_rng(8))
    turned = np.column_stack([-pts[:, 1], pts[:, 0], pts[:, 2]])
    d, grad, hess = f.eval_all(pts)
    inside = np.linalg.norm(pts[:, :-1], axis=-1) < d
    assert inside.any() and not inside.all()
    d_t, grad_t, hess_t = f.eval_all(turned)
    assert np.max(np.abs(d_t - d) / d) <= 1e-12
    gn, gn_t = np.linalg.norm(grad, axis=-1), np.linalg.norm(grad_t, axis=-1)
    assert np.max(np.abs(gn_t - gn) / gn) <= 1e-12
    # the Hessian turns with the point, so its eigenvalues stay; measured 2.1e-14
    eig, eig_t = sym_eigvals(hess), sym_eigvals(hess_t)
    assert np.max(np.abs(eig_t - eig).max(axis=1) / np.abs(eig).max(axis=1)) <= 1e-11
