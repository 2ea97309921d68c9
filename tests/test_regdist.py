from math import gamma as gamma_fn

import numpy as np
import pytest

from boundarylab import BoundaryGraph, ConvergenceError, DomainError, QuadratureError, power
from boundarylab.barriers import sample_domain_points, special_solution
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
        # mass at an independent order: the bump is a polynomial in rho^2 of
        # degree BUMP_POWER, so Gauss-Legendre 20 integrates it exactly
        x, w = np.polynomial.legendre.leggauss(20)
        if ds == 1:
            mass = w @ m.eta_derivs(x * x)[0]
        else:
            rho = 0.5 * (x + 1.0)
            mass = np.pi * (w @ (rho * m.eta_derivs(rho * rho)[0]))
        assert mass == pytest.approx(1.0, abs=1e-14)
        assert np.all(m.eta_derivs(np.array([0.0, 0.25, 0.98]))[0] > 0)
        for outside in (1.0, 1.69):
            assert m.eta_derivs(np.array([outside]))[0][0] == 0.0


@pytest.mark.parametrize("ds", [1, 2])
def test_bump_is_the_closed_form_polynomial(ds):
    # eta = (1 - rho^2)^m / Z with Z in closed form, and the second value is
    # eta'/rho, the slope the kernels read; both vanish outside the ball
    m = Mollifier(ds)
    power = regdist.BUMP_POWER
    Z = np.sqrt(np.pi) * gamma_fn(power + 1) / gamma_fn(power + 1.5) if ds == 1 else np.pi / (power + 1)
    assert m.normalization == pytest.approx(Z, rel=1e-15)
    rho = np.linspace(0.0, 1.3, 27)
    eta, slope = m.eta_derivs(rho * rho)
    inside = rho < 1.0
    np.testing.assert_allclose(eta[inside], (1 - rho[inside] ** 2) ** power / Z, rtol=1e-14)
    assert np.all(eta[~inside] == 0.0) and np.all(slope[~inside] == 0.0)
    h = 1e-6
    fd = (m.eta_derivs((rho + h) ** 2)[0] - m.eta_derivs((rho - h) ** 2)[0]) / (2 * h)
    np.testing.assert_allclose((rho * slope)[inside], fd[inside], rtol=1e-7, atol=1e-9)


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


@pytest.mark.parametrize("entry", ["eval_p", "eval_d", "eval_all"])
def test_a_nan_point_is_not_certified(entry):
    # a NaN coordinate fails the domain checks, in x' or in x_n, alone or
    # in a batch of valid points; it never comes back as a certified nan
    f = RegularizedDistanceField(BoundaryGraph("cone", L=0.2))
    for pts in ([np.nan, 0.1], [0.05, np.nan], [[0.01, 0.1], [np.nan, 0.1]],
                [[0.01, 0.1], [0.02, np.nan]]):
        with pytest.raises(DomainError):
            getattr(f, entry)(np.array(pts))


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
# (grad eta, k1, k2) from (t, rho, eta, eta'/rho)
_KERNELS = {
    1: lambda t, rho, e, de: (de[:, None] * t, -(e + rho**2 * de), -(2.0 * e + rho**2 * de)),
    2: lambda t, rho, e, de: (de[:, None] * t, -2.0 * e - rho**2 * de, -3.0 * e - rho**2 * de),
}


def _p_derivs_elementwise(field, xp, s, order):
    """Reference: per-node products and sums over the nodes of _nodes, per point."""
    k, m = xp.shape
    out = {
        "p": np.empty(k), "px": np.empty((k, m)), "ps": np.empty(k),
        "pxx": np.empty((k, m, m)), "pxs": np.empty((k, m)), "pss": np.empty(k),
    }
    c = field._centre(xp, s)
    nodes, weights = _nodes(field.graph.dim, c, order, field._radial(c, order))
    for i in range(k):
        T, W = nodes[i], weights[i]
        rho = np.linalg.norm(T, axis=-1)
        eta, slope = field.mollifier.eta_derivs(rho**2)
        grad_eta, k1, k2 = _KERNELS[m](T, rho, eta, slope)
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
    c = f._centre(xp, s)
    T, W = _nodes(graph.dim, c, 64, f._radial(c, 64))
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


def _last_orders(monkeypatch, f, pts):
    """f.eval_all(pts), and the working order of each point's last Halley pass."""
    last = {}
    halley = RegularizedDistanceField._halley

    def counted(self, xp, yn, t, lo, hi, order):
        for row in np.column_stack([xp, yn]):
            last[row.tobytes()] = order
        return halley(self, xp, yn, t, lo, hi, order)

    monkeypatch.setattr(RegularizedDistanceField, "_halley", counted)
    out = f.eval_all(pts)
    monkeypatch.undo()
    return out, np.array([last[row.tobytes()] for row in pts])


def test_graded_panels_resolve_the_2d_c1model_kink():
    # on c1model grad Gamma ~ |x'|^0.5, a square-root end on each panel from
    # the kink preimage c; t = c + (end - c) u^2 makes it smooth in u, so the
    # first rung's working order meets order 128 (measured 3.9e-14 at most,
    # in d_x d_s p) where ungraded panels miss by 1.1e-4
    f = RegularizedDistanceField(BoundaryGraph("c1model", omega=power(0.5, 0.2, 1.0)))
    xp = np.array([[0.0], [0.013], [-0.03], [0.06], [-0.09]])
    s = np.full(5, 0.05)
    c = f._centre(xp, s)
    assert np.all(np.abs(c) < regdist.FAR) and c.any()
    got, fine = f._moments(xp, s, c, 2 * regdist.BASE_ORDER), f._moments(xp, s, c, 128)
    for key in ("p", "px", "ps", "pxx", "pxs", "pss"):
        assert _max_rel(got[key], fine[key]) <= 1e-12, key


@pytest.mark.parametrize("graph, n, rungs", [
    (BoundaryGraph("cone", dim=3, L=0.1), 40, True),
    (BoundaryGraph("sinusoid", A=0.05, k=4.0), 8, False),
    (BoundaryGraph("cone", L=0.1), 1000, False),
    (BoundaryGraph("c1model", omega=power(0.5, 0.2, 1.0)), 1000, False),
    (BoundaryGraph("sinusoid", A=0.01, k=20.0), 8, True),
], ids=["cone-3d", "sinusoid-2d", "cone-2d-blocks", "c1model-2d-blocks", "sinusoid-2d-rungs"])
def test_batch_agrees_with_point_by_point(monkeypatch, graph, n, rungs):
    # each point climbs the order ladder and leaves each rung's inversion on
    # its own residual, whatever its block, and comes back in its input place
    f = RegularizedDistanceField(graph)
    pts = sample_domain_points(graph, 0.25, n, np.random.default_rng(5))
    if graph.dim == 3:
        # on the 3-D cone only polar points whose kink preimage lies near the
        # unit circle, |c| = |x'|/d in (0.87, 1), still climb: add three
        ang, gap = np.array([0.3, 2.0, 4.0]), np.array([0.05, 0.1, 0.02])
        xp = 0.95 * gap[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        pts = np.concatenate([pts, np.column_stack([xp, gap + graph.gamma(xp)])])
    (d, grad, hess), orders = _last_orders(monkeypatch, f, pts)
    if graph.dim == 3:
        c = np.linalg.norm(pts[:, :-1], axis=-1) / d
        assert np.all((c[n:] > 0.87) & (c[n:] < 1.0))
        assert np.any(c[:n] < 1.0) and not np.all(c[:n] < 1.0)
    elif n > 8:
        # 2 * 16 nodes per point at the first rung's working order, so blocks
        # of 256 points: the kinked points (|x'| < FAR d) and the shared-rule
        # ones each span two
        kinked = np.abs(pts[:, 0]) < regdist.FAR * d
        step = _QUAD_NODES // (4 * regdist.BASE_ORDER)
        assert min(np.count_nonzero(kinked), np.count_nonzero(~kinked)) > step
    # the points of the batch stop on one rung, or on different rungs
    assert (len(set(orders)) > 1) == rungs, orders
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
    # the Lipschitz bound brackets the root, so the first pass is already a
    # Halley pass at t = gap, at the first rung's working order; measured on
    # these 20 points: 54 point-passes at 2 BASE_ORDER (the Halley passes),
    # 20 at BASE_ORDER (the first rung's check) and none at 4 BASE_ORDER:
    # the 9 points whose kink preimage lies outside the unit disk resolve on
    # rays at the first rung
    g = BoundaryGraph("cone", dim=3, L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.25, 20, np.random.default_rng(0))
    s_first, evaluated = [], {}
    p_derivs, moments = RegularizedDistanceField._p_derivs, RegularizedDistanceField._moments

    def counted_derivs(self, xp, s, *args, **kwargs):
        if not s_first:
            s_first.append((s.copy(), *args))
        return p_derivs(self, xp, s, *args, **kwargs)

    def counted_moments(self, xp, s, c, order):
        evaluated[order] = evaluated.get(order, 0) + len(s)
        return moments(self, xp, s, c, order)

    monkeypatch.setattr(RegularizedDistanceField, "_p_derivs", counted_derivs)
    monkeypatch.setattr(RegularizedDistanceField, "_moments", counted_moments)
    f.eval_all(pts)
    s0, order0 = s_first[0]
    np.testing.assert_array_equal(s0, pts[:, -1] - g.gamma(pts[:, :-1]))
    base = regdist.BASE_ORDER
    assert order0 == 2 * base
    assert evaluated[2 * base] <= 3.0 * len(pts)
    assert evaluated[base] == len(pts)
    assert evaluated.keys() == {base, 2 * base}
    assert evaluated.get(4 * base, 0) <= 0.5 * len(pts)


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
    # the Halley step from t = gap heads for the true root; inside the bracket
    # it is taken, but with the bracket understated it leaves (lo, hi), so it
    # is dropped for the bisection midpoint, not clipped, and the inversion
    # ends in the typed error
    y = np.array([0.0, 0.1])
    passes = []
    p_derivs = RegularizedDistanceField._p_derivs

    def counted(self, xp, s, order):
        passes.append((order, s.tolist()))
        return p_derivs(self, xp, s, order)

    monkeypatch.setattr(RegularizedDistanceField, "_p_derivs", counted)
    work = 2 * regdist.BASE_ORDER
    RegularizedDistanceField(graph).eval_all(y)
    assert passes[0] == (work, [0.1])
    lo, hi = 0.1 / (1 + graph.L_global), 0.1 / (1 - graph.L_global)
    assert passes[1][0] == work and lo < passes[1][1][0] < hi
    assert passes[1][1] not in ([0.5 * (lo + 0.1)], [0.5 * (0.1 + hi)])
    monkeypatch.setattr(graph, "L_global", 1e-3)
    passes.clear()
    with pytest.raises(ConvergenceError, match="left its bracket"):
        RegularizedDistanceField(graph).eval_all(y)
    lo, hi = 0.1 / (1 + 1e-3), 0.1 / (1 - 1e-3)
    mid = 0.5 * (lo + 0.1) if graph.family == "cone" else 0.5 * (0.1 + hi)
    assert passes[:2] == [(work, [0.1]), (work, [mid])]


def test_each_rung_starts_from_the_root_below(monkeypatch):
    # the k = 300 sinusoid of the order-doubling test climbs to the top rung:
    # each rung's first pass is at the root of the rung below, inside the
    # Lipschitz bracket, and the first rung starts at t = gap
    g = BoundaryGraph("sinusoid", A=0.2 / 300, k=300.0)
    y = np.array([[0.01, 0.2]])
    passes = []
    p_derivs = RegularizedDistanceField._p_derivs

    def counted(self, xp, s, order):
        passes.append((order, float(s[0])))
        return p_derivs(self, xp, s, order)

    monkeypatch.setattr(RegularizedDistanceField, "_p_derivs", counted)
    d = RegularizedDistanceField(g).eval_d(y)[0]
    gap = 0.2 - g.gamma(0.01)
    base = regdist.BASE_ORDER
    assert passes[0] == (2 * base, gap)
    checks = [i for i in range(1, len(passes)) if passes[i][0] == passes[i - 1][0] // 2]
    # one check pass per rung, at the root the rung's Halley loop stopped on
    assert [passes[i][0] for i in checks] == [base, 2 * base, 4 * base]
    for i in checks:
        assert passes[i][1] == passes[i - 1][1]
    for i in checks[:-1]:
        assert passes[i + 1] == (4 * passes[i][0], passes[i][1])
    assert passes[-1][1] == d
    lo, hi = gap / (1 + g.L_global), gap / (1 - g.L_global)
    assert all(lo <= t <= hi for _, t in passes)


@pytest.mark.parametrize("graph", [
    BoundaryGraph("zero"),
    BoundaryGraph("linear", a=0.2),
    BoundaryGraph("cone", L=0.1),
], ids=["zero", "linear", "cone-2d-off-the-kink"])
def test_exact_cases_take_one_working_pass_at_the_gap(monkeypatch, graph):
    # where Gamma is affine on the mollifier support p(y', t) = t + Gamma(y')
    # on every rule: no point moves off t = gap, one working-order pass meets
    # the residual stop, and one check pass at BASE_ORDER agrees
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
    assert passes == {regdist.BASE_ORDER: len(pts), 2 * regdist.BASE_ORDER: len(pts)}


def test_d_is_the_working_order_root(monkeypatch):
    # the regdist_3d distance batch: each d is the root, to 1e-15, of the p
    # of its last rung's working order; the reference is three more Newton
    # steps on that p
    g = BoundaryGraph("cone", dim=3, L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.25, 100, np.random.default_rng(1))
    (d, _, _), orders = _last_orders(monkeypatch, f, pts)
    assert set(orders) == {2 * regdist.BASE_ORDER, 4 * regdist.BASE_ORDER}
    for order in set(orders):
        at = orders == order
        xp, yn = pts[at, :-1], pts[at, -1]
        ref = d[at].copy()
        for _ in range(3):
            der = f._p_derivs(xp, ref, order)
            ref -= (der["p"] - yn) / der["ps"]
        assert np.abs(d[at] - ref).max() <= 1e-15


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
    # eval_d and eval_all climb the same ladder: the same passes, and each
    # rung's check pass at half its working order follows its Halley passes,
    # at the points and the roots they stopped on
    g = BoundaryGraph("cone", dim=3, L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.25, 40, np.random.default_rng(6))
    passes = []
    p_derivs = RegularizedDistanceField._p_derivs

    def counted(self, xp, s, order):
        passes.append((order, np.column_stack([xp, s])))
        return p_derivs(self, xp, s, order)

    monkeypatch.setattr(RegularizedDistanceField, "_p_derivs", counted)
    d_all = f.eval_all(pts)[0]
    halley = passes.copy()
    passes.clear()
    d = f.eval_d(pts)
    assert [order for order, _ in passes] == [order for order, _ in halley]
    for (_, a), (_, b) in zip(passes, halley):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(d, d_all)
    orders = [order for order, _ in halley]
    base = regdist.BASE_ORDER
    assert orders[0] == 2 * base
    checks = [i for i in range(1, len(orders)) if orders[i - 1] == 2 * orders[i]]
    assert orders[checks[0]] == base and len(checks) >= 2
    # the first check covers every point; a point that climbs no further
    # was checked at its d
    first = halley[checks[0]][1]
    np.testing.assert_array_equal(first[:, :-1], pts[:, :-1])
    later = np.concatenate([halley[i][1][:, 0] for i in checks[1:]])
    stayed = ~np.isin(pts[:, 0], later)
    assert stayed.any() and not stayed.all()
    np.testing.assert_array_equal(first[stayed, -1], d_all[stayed])


def _moments_reference(f, xp, s, order):
    """_moments written out on the full per-point rule of _nodes: the same
    kernels and products, with no cache and no per-component loops."""
    n = f.graph.dim
    c = f._centre(xp, s)
    T, W = _nodes(n, c, order, f._radial(c, order))
    rho2 = (T * T).sum(axis=-1)
    eta, slope = f.mollifier.eta_derivs(rho2)
    We, Ws = W * eta, W * slope
    Wgrad = Ws[..., None] * T
    Wk1 = -((n - 1) * We + rho2 * Ws)
    Wk2 = -(n * We + rho2 * Ws)
    pts = xp[:, None, :] + s[:, None, None] * T
    g = f.graph.gamma(pts)
    dg = f.graph.jet(pts)[1]
    tdg = (T * dg).sum(axis=-1)[..., None]
    We = We[:, None, :]
    pxx = -(Wgrad.transpose(0, 2, 1) @ dg) / s[:, None, None]
    return {
        "p": (We @ g[..., None])[:, 0, 0] + s,
        "px": (We @ dg)[:, 0],
        "ps": 1.0 + (We @ tdg)[:, 0, 0],
        "pxx": 0.5 * (pxx + pxx.transpose(0, 2, 1)),
        "pxs": (Wk1[:, None, :] @ dg)[:, 0] / s[:, None],
        "pss": (Wk2[:, None, :] @ tdg)[:, 0, 0] / s,
    }


# batches whose rules are all centred at 0: a 3-D cone with every kink
# preimage -x'/s at |c| >= FAR, and a 2-D sinusoid (no kink)
_CENTRED = {
    "cone-3d": (BoundaryGraph("cone", dim=3, L=0.1),
                np.array([[0.05, -0.02], [-0.03, 0.08], [0.1, 0.1]]), np.array([0.02, 0.04, 0.05])),
    "sinusoid-2d": (BoundaryGraph("sinusoid", A=0.05, k=4.0),
                    np.linspace(-0.2, 0.2, 7)[:, None], np.linspace(0.01, 0.1, 7)),
}
# batches with kinks near: 3-D cone points with |x'| < s (the polar rule at c;
# one 3-D point per block at order 64), 3-D cone points with s <= |x'| < FAR s
# (rays from c), and a 2-D cone whose 74 points with |x'| < FAR s are kinked
# and whose other 76 use the shared rule
_KINKED = {
    "cone-3d": (BoundaryGraph("cone", dim=3, L=0.1),
                np.array([[0.01, 0.0], [0.0, -0.02], [0.02, 0.02]]), np.array([0.05, 0.05, 0.1])),
    "rays-cone-3d": (BoundaryGraph("cone", dim=3, L=0.1),
                     np.array([[0.05, -0.02], [-0.03, 0.08], [0.1, 0.1]]), np.array([0.04, 0.06, 0.1])),
    "cone-2d": (BoundaryGraph("cone", L=0.1),
                np.linspace(-0.2, 0.2, 150)[:, None], np.full(150, 0.05)),
}


@pytest.mark.parametrize("case", ["centred-cone-3d", "centred-sinusoid-2d",
                                  "kinked-cone-3d", "kinked-rays-cone-3d", "kinked-cone-2d"])
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

    def counted(dim, c, order, radial):
        calls.append(len(c))
        return nodes(dim, c, order, radial)

    monkeypatch.setattr(regdist, "_nodes", counted)
    for graph, xp, s in _CENTRED.values():
        f = RegularizedDistanceField(graph)
        f._p_derivs(xp, s, 64)
        calls.clear()
        f._p_derivs(xp, s, 64)
        assert calls == []
    # a kinked 3-D cone point holds 2 * 64 directions times BUMP_POWER + 2
    # radial nodes, so a block holds 16 and one rule serves each 3-D batch;
    # 2 * 64 nodes hold 64 2-D points, so the 2-D cone's 74 kinked points
    # take two blocks, and its 76 shared-rule points build no rule
    for (graph, xp, s), blocks in zip(_KINKED.values(), ([3], [3], [64, 10])):
        assert np.count_nonzero(np.linalg.norm(xp, axis=-1) < regdist.FAR * s) == sum(blocks)
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


@pytest.mark.parametrize("graph", [
    BoundaryGraph("sinusoid", A=0.05, k=4.0),
    BoundaryGraph("c1model", omega=power(0.5, 0.2, 1.0), sign=-1.0),
], ids=["sinusoid", "c1model-concave"])
def test_distance_at_zero_height_over_a_trough(graph):
    # at (-0.2, 0) Gamma < 0 (-0.036 and -0.018), so y_n = p = 0 at the root:
    # a certificate relative to |p| could not pass there, one relative to d
    # does; special_solution reads such points on its grid
    f = RegularizedDistanceField(graph)
    y = np.array([-0.2, 0.0])
    gap = -graph.gamma(-0.2)
    d = f.eval_d(y)
    L = graph.L_global
    assert gap / (1 + L) <= d <= gap / (1 - L)
    assert f.eval_all(y)[0][0] == d
    phi = special_solution(f, 0.25, 64)
    assert np.all(np.isfinite(phi.values))


def test_eval_all_rejects_an_under_resolved_graph():
    # the sinusoid of test_order_doubling_rejects_an_under_resolved_graph:
    # eval_all climbs the same ladder as eval_d, and raises at its top rung
    f = RegularizedDistanceField(BoundaryGraph("sinusoid", A=2e-4, k=1000.0))
    pts = np.array([[0.01, 0.2], [0.05, 0.1]])
    for y in (pts, pts[1]):
        with pytest.raises(QuadratureError, match="order-doubling"):
            f.eval_all(y)


def _cone_oracle(L, pts):
    """(d, grad d, D^2 d) on the 2-D cone Gamma = L |x'| in closed form.

    With c = -x'/s, p = s + L s J(c), J(c) = int eta(t) |t - c| dt, and J is
    the polynomial -c + 2 c A0(c) - 2 A1(c) on |c| <= 1, with
    A_k(c) = int_{-1}^c t^k eta(t) dt, and |c| outside; so p_x = -L J',
    p_s = 1 + L (J - c J'), p_xx = L J''/s, p_xs = L c J''/s and
    p_ss = L c^2 J''/s.  d is Newton's root of that p, and its derivatives
    follow from the inverse-function identities.
    """
    P = np.polynomial.Polynomial
    m = regdist.BUMP_POWER
    eta = P([1.0, 0.0, -1.0]) ** m / Mollifier(1).normalization
    x = P([0.0, 1.0])
    J = -x + 2 * x * eta.integ(lbnd=-1) - 2 * (x * eta).integ(lbnd=-1)
    dJ, ddJ = J.deriv(), J.deriv(2)

    def derivs(xp, s):
        c = -xp / s
        inside = np.abs(c) < 1
        j = np.where(inside, J(c), np.abs(c))
        j1 = np.where(inside, dJ(c), np.sign(c))
        j2 = np.where(inside, ddJ(c), 0.0)
        return s + L * s * j, -L * j1, 1 + L * (j - c * j1), L * j2 / s, L * c * j2 / s, L * c * c * j2 / s

    xp, yn = pts[:, 0], pts[:, 1]
    d = yn - L * np.abs(xp)
    for _ in range(8):
        p, _, ps, *_ = derivs(xp, d)
        d = d - (p - yn) / ps
    _, px, ps, pxx, pxs, pss = derivs(xp, d)
    d1 = -px / ps
    grad = np.column_stack([d1, 1 / ps])
    hess = np.empty((len(d), 2, 2))
    hess[:, 0, 0] = -(pxx + 2 * pxs * d1 + pss * d1 * d1) / ps
    hess[:, 0, 1] = hess[:, 1, 0] = -(pxs + pss * d1) / ps**2
    hess[:, 1, 1] = -pss / ps**3
    return d, grad, hess


def test_2d_cone_matches_the_closed_form_at_every_point():
    # under the polynomial bump p on the 2-D cone is piecewise polynomial in
    # closed form (_cone_oracle): an exact reference for d, grad d and D^2 d
    # on the regdist-check sample, on the kink x' = 0, and at |c| = 1 and
    # |c| = FAR, where the rule changes; measured: 9.7e-16 in d, 9.8e-15 in
    # grad d and 3.7e-14 in d |D^2 d|, the largest at d = 0.0026
    g = BoundaryGraph("cone", L=0.1)
    f = RegularizedDistanceField(g)
    pts = sample_domain_points(g, 0.3, 1000, np.random.default_rng(1))
    heights = np.array([1e-3, 0.01, 0.05, 0.2])
    kink = np.column_stack([np.zeros(4), heights])
    edges = np.column_stack([np.repeat([0.02, -0.05], 2), [0.022, 0.025, 0.04, 0.0251]])
    pts = np.concatenate([pts, kink, edges])
    d, grad, hess = f.eval_all(pts)
    D, G, H = _cone_oracle(0.1, pts)
    assert np.abs(d - D).max() <= 3e-15
    assert np.abs(grad - G).max() <= 3e-14
    assert (D * np.abs(hess - H).max(axis=(1, 2))).max() <= 1e-13
    # on the kink d |D^2 d| is 0.1875 at every height, so the check has teeth
    assert np.all(np.abs(H[1000:1004, 0, 0]) * heights > 0.1)


@pytest.mark.parametrize("c", [[1.0, 0.0], [1.02, 0.0], [-1.3, 0.6], [0.0, -1.999]])
def test_rays_from_an_outside_kink_integrate_the_bump(c):
    # rays cast from c over the chords of the disk: the weights integrate 1
    # to pi, and the bump's moments of degree <= 2 are exact from order 6
    T, W = _nodes(3, np.array([c]), 6, 6)
    assert W.sum() == pytest.approx(np.pi, rel=1e-14)
    eta = Mollifier(2).eta_derivs((T * T).sum(axis=-1))[0] * W
    assert eta.sum() == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(eta @ T[0], 0.0, atol=1e-15)
    second = 1.0 / (regdist.BUMP_POWER + 2)     # int eta |t|^2 on the disk
    assert eta @ (T[0] ** 2).sum(axis=-1) == pytest.approx(second, rel=1e-14)


def test_rays_resolve_the_3d_cone_where_the_kink_is_just_outside():
    # on a radial graph Gamma along a ray from c depends only on its length;
    # at |c| = 1.02, 1.34 and 1.65 the rays at the first rung's working order
    # miss order 64 by 1.9e-13, 1.4e-16 and 5.6e-17 in grad_x p, where the rule
    # centred at 0 (the rule before rays) misses by 2.1e-6, 5.6e-10 and 6.5e-13
    f = RegularizedDistanceField(BoundaryGraph("cone", dim=3, L=0.1))
    xp = np.array([[0.051, 0.0], [-0.03, 0.06], [0.07, -0.07]])
    s = np.array([0.05, 0.05, 0.06])
    c = f._centre(xp, s)
    assert np.all((np.linalg.norm(c, axis=-1) >= 1) & (np.linalg.norm(c, axis=-1) < regdist.FAR))
    fine = f._moments(xp, s, c, 64)["px"]
    work = 2 * regdist.BASE_ORDER
    rays = np.abs(f._moments(xp, s, c, work)["px"] - fine).max(axis=1)
    centred = np.abs(f._moments(xp, s, np.zeros_like(c), work)["px"] - fine).max(axis=1)
    assert rays.max() <= 2e-9
    assert np.all(rays <= 1e-2 * centred)


@pytest.mark.parametrize("case", ["cone-3d", "rays-cone-3d"])
@pytest.mark.parametrize("order", [8, 16, 32])
def test_kinked_cone_radial_rule_is_exact(monkeypatch, case, order):
    # along a ray from the kink Gamma = L s r, so every moment, with the
    # Jacobian r, is a polynomial of degree <= 2 BUMP_POWER + 2 in r, which
    # BUMP_POWER + 2 Gauss nodes integrate exactly; measured against 64
    # radial nodes: 3.8e-15 at most (BUMP_POWER + 1 nodes miss p by 3.6e-4)
    graph, xp, s = _KINKED[case]
    f = RegularizedDistanceField(graph)
    c = f._centre(xp, s)
    assert f._radial(c, order) == regdist.BUMP_POWER + 2
    got = f._moments(xp, s, c, order)
    monkeypatch.setattr(f, "_radial", lambda c, order: 64)
    fine = f._moments(xp, s, c, order)
    for key in fine:
        assert _max_rel(got[key], fine[key]) <= 1e-14, key


@pytest.mark.parametrize("radius", [1.05, 1.2, 1.4])
def test_rays_just_outside_the_disk_pass_the_first_rung(radius):
    # the first rung's check rule has 2 BASE_ORDER ray angles; with BASE_ORDER
    # angles it missed CERT_TOL s here (6e-7 s at |c| = 1.05, 4.5e-8 s at 1.4);
    # measured: 4.2e-10 s, 2.5e-12 s and 1.5e-14 s
    f = RegularizedDistanceField(BoundaryGraph("cone", dim=3, L=0.1))
    s = np.array([0.05])
    xp = np.array([[-radius * 0.05, 0.0]])
    base = regdist.BASE_ORDER
    fine, coarse = (f._p_derivs(xp, s, q)["p"] for q in (2 * base, base))
    assert abs(fine - coarse)[0] <= regdist.CERT_TOL * s[0]


_C1MODEL_3D = BoundaryGraph("c1model", dim=3, omega=power(0.5, 0.2, 1.0))


@pytest.mark.parametrize("graph, xp, s, exact", [
    (*_KINKED["cone-3d"], True),
    (*_KINKED["rays-cone-3d"], True),
    (_C1MODEL_3D, *_KINKED["cone-3d"][1:], False),
    (_C1MODEL_3D, *_KINKED["rays-cone-3d"][1:], False),
], ids=["cone-polar", "cone-rays", "c1model-polar", "c1model-rays"])
def test_3d_nodes_per_point(monkeypatch, graph, xp, s, exact):
    # every 3-D rule has 2q directions: times BUMP_POWER + 2 = 4 radial nodes
    # on the cone's kinked blocks, times q radial nodes elsewhere (c1model is
    # not affine on a ray from its kink, and the shared rule at c = 0 also
    # serves points off the kink); a block of a 100-fold batch holds at most
    # _QUAD_NODES nodes
    sizes = []
    nodes = regdist._nodes

    def counted(*args):
        T, W = nodes(*args)
        sizes.append(T.shape[:2])
        return T, W

    monkeypatch.setattr(regdist, "_nodes", counted)
    f = RegularizedDistanceField(graph)
    for q in (8, 16, 32, 64):
        assert _centred_rule(3, q)[0].shape[1] == 2 * q * q
        sizes.clear()
        f._p_derivs(xp, s, q)
        assert {per_point for _, per_point in sizes} == {8 * q if exact else 2 * q * q}
        assert sum(k for k, _ in sizes) == len(s)
    sizes.clear()
    f._p_derivs(np.repeat(xp, 100, axis=0), np.repeat(s, 100), 64)
    assert sum(k for k, _ in sizes) == 300
    assert all(k * per_point <= _QUAD_NODES for k, per_point in sizes)


def test_field_refuses_a_graph_whose_lipschitz_constant_is_nan():
    # the chart guard used to read L_global > MAX_LIPSCHITZ, which NaN passes
    graph = BoundaryGraph("cone", L=0.1)
    graph.L_global = float("nan")
    with pytest.raises(DomainError, match="exceeds the chart guard"):
        regdist.RegularizedDistanceField(graph)
